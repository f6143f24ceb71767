"""Command-line front end: decompose, factorize, verify-base, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import _wire
from .groups import build_group, spec_from_json, spec_to_json
from .intervals import (
    GradeSequence,
    decompose_optimal,
    decomposition_to_json,
    lemma_bound,
    prefix_products,
    sequence_from_json,
)
from .rewriting import StepBudgetExceeded, algebra_from_json
from .spanning import (
    NOT_WITNESSED,
    WITNESSED,
    check_graded_theorem,
    is_shirshov_base,
    report_to_json,
)
from .words import (
    alphabet_from_json,
    factorization_to_json,
    factorize,
    height_bound,
    power_count,
    word_from_json,
)

# Exit codes: 0 ok / witnessed, 1 internal invariant violation, 2 malformed
# input, 3 not-witnessed, 4 step budget exhausted.
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_WITNESSED = 3
EXIT_BUDGET = 4

# The largest `bench` n, checked before a trial allocates its arrays of n + 1,
# and the most trials, each of which keeps one result.
BENCH_MAX_N = 100_000_000
BENCH_MAX_TRIALS = 1000


def _load_payload(args: argparse.Namespace, empty: Optional[dict] = None) -> object:
    """The parsed --json or --input payload; without either, empty, if given."""
    if args.json is not None and args.input is not None:
        raise ValueError("give either --input or --json, not both.")
    text: Optional[str] = None
    if args.json is not None:
        text = args.json
    elif args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {args.input}: {exc}") from exc
    if text is None:
        if empty is None:
            raise ValueError("an input is required: --input FILE or --json STRING.")
        return empty
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("bad JSON: nested too deeply.") from exc


def _fold(payload: dict, args: argparse.Namespace, **defaults: Optional[int]) -> dict:
    """payload with each named flag the user gave in place of its field, and
    each default in place of a field that is absent or JSON null."""
    out = dict(payload)
    for name, default in defaults.items():
        flag = getattr(args, name, None)
        if flag is not None:
            out[name] = flag
        elif out.get(name) is None:
            out[name] = default
    return out


def _emit(doc: object, lines: list[str], fmt: str) -> None:
    try:
        if fmt == "json":
            print(json.dumps(doc))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (e.g. `| head`).  Point stdout at devnull so the
        # flush at exit does not raise again; the command keeps its exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_decompose(args: argparse.Namespace) -> int:
    payload = _load_payload(args)
    seq = sequence_from_json(payload)
    dec = decompose_optimal(seq)
    n, m = len(seq), seq.group.order
    bound = lemma_bound(n, m)
    bound_ok = dec.coverage >= bound
    doc = decomposition_to_json(dec)
    doc["bound_ok"] = bound_ok
    lines = [
        "intervals: " + (" ".join(f"[{a},{b}]" for a, b in dec.intervals) or "(none)"),
        "uncovered: " + (" ".join(str(p) for p in dec.uncovered) or "(none)"),
        f"coverage {dec.coverage} >= n-|G|+1 = {bound}: {str(bound_ok).lower()}",
    ]
    _emit(doc, lines, args.format)
    return EXIT_OK if bound_ok else EXIT_INTERNAL


def _cmd_factorize(args: argparse.Namespace) -> int:
    payload = _wire.fields(_load_payload(args), "factorize payload",
                           required=("alphabet", "word"), optional=("h",))
    payload = _fold(payload, args, h=None)
    h = None if payload["h"] is None else _wire.integer(payload["h"], 'factorize "h"', 1)
    alphabet = alphabet_from_json(payload["alphabet"])
    word = word_from_json(payload["word"])
    fact = factorize(alphabet, word)
    doc: dict = {
        "segments": factorization_to_json(fact),
        "k": fact.k,
        "y_total": fact.y_total,
    }
    lines = [
        "segments: " + (" ".join(f"{s.tag}[{s.start},{s.end}]" for s in fact.segments) or "(empty)"),
        f"k = {fact.k}, y letters = {fact.y_total}",
    ]
    if h is not None:
        count = power_count(fact, h)
        bound = height_bound(h, alphabet.group.order)
        doc.update({"power_count": count, "height_bound": bound, "within_bound": count <= bound})
        lines.append(
            f"power_count(h={h}) = {count} <= height_bound = {bound}: "
            f"{str(count <= bound).lower()}"
        )
    _emit(doc, lines, args.format)
    return EXIT_OK


def _cmd_verify_base(args: argparse.Namespace) -> int:
    payload = _wire.fields(_load_payload(args), "verify-base payload",
                           required=("algebra", "base"), optional=("h", "d", "D", "graded"))
    payload = _fold(payload, args, h=None, d=None, D=None)
    h = _wire.integer(payload["h"], 'verify-base "h"', 1)
    d = _wire.integer(payload["d"], 'verify-base "d"', 1)
    # None: the cap is 2*d, and the step budget the library's default.
    D = None if payload["D"] is None else _wire.integer(payload["D"], 'verify-base "D"', 1)
    steps = None if args.steps is None else _wire.integer(args.steps, 'verify-base "steps"', 1)
    graded = args.graded or _wire.boolean(payload.get("graded", False), 'verify-base "graded"')
    spec = algebra_from_json(payload["algebra"])
    base = [word_from_json(w) for w in _wire.array(payload["base"], '"base"')]
    check = check_graded_theorem if graded else is_shirshov_base
    report = check(spec, base, h, d, D, step_budget=steps)
    lines = [
        f"verdict: {report.verdict}",
        f"height {report.height}, d {report.degree_cap}, D {report.expansion_cap}",
        f"rank products {report.rank_products}, rank joint {report.rank_joint}",
        "confluent: true" if report.confluent else
        "confluent: false (normal forms, and so this verdict, depend on the rewriting strategy)",
    ]
    if report.missing:
        lines.append("missing: " + ", ".join(" ".join(w) for w in report.missing))
    if report.neutral is not None:
        lines.append(
            f"identity-grade phase: {report.neutral.verdict} "
            f"(rank products {report.neutral.rank_products}, "
            f"rank joint {report.neutral.rank_joint})"
        )
    _emit(report_to_json(report), lines, args.format)
    if report.verdict == WITNESSED:
        return EXIT_OK
    if report.verdict == NOT_WITNESSED:
        return EXIT_NOT_WITNESSED
    return EXIT_INTERNAL


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _wire.fields(_load_payload(args, empty={}), "bench payload",
                       optional=("group", "n", "trials", "seed"))
    cfg = _fold(cfg, args, n=1_000_000, trials=3, seed=0)
    group_json = cfg.get("group", {"cyclic": 17})
    n = _wire.integer(cfg["n"], 'bench "n"', 0, BENCH_MAX_N)
    trials = _wire.integer(cfg["trials"], 'bench "trials"', 1, BENCH_MAX_TRIALS)
    seed = _wire.integer(cfg["seed"], 'bench "seed"', 0)
    group = build_group(spec_from_json(group_json))
    m = group.order
    # Warm up the Cayley array, allocator and dispatch outside the timed region.
    prefix_products(GradeSequence(group, np.zeros(8192, dtype=np.int64)))
    rng = np.random.default_rng(seed)
    results = []
    for t in range(trials):
        seq = GradeSequence(group, rng.integers(0, m, size=n))
        t0 = time.perf_counter()
        dec = decompose_optimal(seq)
        dt = time.perf_counter() - t0
        results.append(
            {
                "trial": t,
                "seconds": dt,
                "ns_per_elem": (dt / n * 1e9) if n else 0.0,
                "coverage": dec.coverage,
                "bound_ok": dec.coverage >= lemma_bound(n, m),
            }
        )
    doc = {
        "group": spec_to_json(group.spec),
        "n": n,
        "trials": trials,
        "seed": seed,
        "results": results,
    }
    lines = [f"group order {m}, n {n}, {trials} trials, seed {seed}"] + [
        f"trial {r['trial']}: {r['seconds']:.4f} s, {r['ns_per_elem']:.1f} ns/elem, "
        f"coverage {r['coverage']} (bound {'ok' if r['bound_ok'] else 'VIOLATED'})"
        for r in results
    ]
    _emit(doc, lines, args.format)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shirshov",
        description="Identity-product interval decompositions, graded word "
        "factorizations, and spanning checks for finitely presented algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", metavar="FILE", help="read the JSON payload from a file")
        p.add_argument("--json", metavar="STRING", help="take the JSON payload inline")
        p.add_argument("--format", choices=("json", "human"), default="json")

    p = sub.add_parser("decompose", help="optimal identity-product interval decomposition")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("factorize", help="Y/A-segment factorization of a graded word")
    common(p)
    p.add_argument("--h", type=int, default=None, help="height for the power count")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("verify-base", help="witnessed-spanning check for a base set")
    common(p)
    p.add_argument("--h", type=int, default=None, help="height of the powered products")
    p.add_argument("--d", type=int, default=None, help="degree cap for target monomials")
    p.add_argument("--D", type=int, default=None, help="expansion-length cap (default 2*d)")
    p.add_argument("--graded", action="store_true", help="run the two-phase graded check")
    p.add_argument("--steps", type=int, default=None, help="rewrite step budget per word")
    p.set_defaults(func=_cmd_verify_base)

    p = sub.add_parser("bench", help="time decompose_optimal on seeded random sequences")
    common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # The one place an exception becomes an exit code.  Every check of the
    # input raises ValueError; a payload nested past the recursion limit (a
    # deep "product" group spec) raises RecursionError.
    try:
        return args.func(args)
    except (ValueError, RecursionError) as exc:
        code = EXIT_BAD_INPUT
        message = "input nested too deeply." if isinstance(exc, RecursionError) else str(exc)
    except StepBudgetExceeded as exc:
        code, message = EXIT_BUDGET, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
