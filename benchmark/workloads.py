"""The benchmark's workloads: seeded inputs, one timed pass, and output checks.

Each workload is one caller making one call after another (a closed loop).
``setup(seed)`` builds every input from the seed alone; ``run_pass(inputs)``
makes each operation once, times it, and checks its output.  The library
sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import io
import json
import random
import string
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import shirshov as sh
from shirshov import cli
from tracing import Tracer


class Op(NamedTuple):
    """One timed operation: ok is False when it raised or its output was wrong."""

    name: str
    seconds: float
    ok: bool
    output: object


class Workload(NamedTuple):
    name: str
    why: str
    params: dict
    setup: Callable[[int], dict]
    run_pass: Callable[[dict], list]
    cross_check: Callable[[dict, dict, list], list]


def _timed(name: str, call: Callable[[], tuple[bool, object]]) -> Op:
    t0 = perf_counter()
    try:
        ok, output = call()
    except Exception as exc:  # a failed operation is counted, never a crash
        return Op(name, perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    return Op(name, perf_counter() - t0, ok, output)


def _letters(seed: int) -> tuple[str, str]:
    # Two distinct one-letter generator names in alphabetical order, so the
    # deglex order, and with it every count and rank, is the same for all
    # seeds.
    first, second = sorted(random.Random(seed).sample(string.ascii_lowercase, 2))
    return first, second


# -- spanning checks -----------------------------------------------------

def _summary(doc: dict) -> dict:
    """The parts of a report_to_json document that a check pins."""
    out = {k: doc[k] for k in ("verdict", "height", "rank_products", "rank_joint", "missing")}
    out["neutral"] = None if doc["neutral"] is None else _summary(doc["neutral"])
    return out


def _expect(rank: int, height: int, neutral: dict | None = None) -> dict:
    return {
        "verdict": sh.WITNESSED,
        "height": height,
        "rank_products": rank,
        "rank_joint": rank,
        "missing": [],
        "neutral": neutral,
    }


# Reports of the library as first benchmarked, for every seed: the seeded
# relabelling of the generators keeps their order, so it changes no rank.
FIXTURE_EXPECT = {
    "base_check": _expect(261, 2),
    "graded_check": _expect(3414, 5, _expect(133, 2)),
}
BRANCHING_EXPECT = {
    "base_check": _expect(65, 2),
    "graded_check": _expect(65, 5, _expect(35, 2)),
}


def _targets(d: int, even_only: bool = False) -> int:
    # Both algebras have one rule whose lhs is a two-letter word on two
    # letters, so the irreducible words are u^a v^b: one per (a, b) with
    # 1 <= a+b <= d.  The odd generator x is the one counted by a, so the
    # identity-grade words are those with a even.
    return sum(
        1
        for length in range(1, d + 1)
        for a in range(length + 1)
        if not even_only or a % 2 == 0
    )


def _spanning_cross_check(params: dict, counts: dict, outputs: list) -> list[str]:
    """Traced counts of one pass against the untraced pass's reports."""
    reports = {op.name: op.output for op in outputs}
    base, graded = reports["base_check"], reports["graded_check"]
    rank = base["rank_joint"] + graded["neutral"]["rank_joint"] + graded["rank_joint"]
    d = params["d"]
    targets = 2 * _targets(d) + _targets(d, even_only=True)
    problems = []
    if counts["echelon_rank"] != rank:
        problems.append(f"echelon rank gains {counts['echelon_rank']} != report ranks {rank}.")
    if counts["normalize_calls"] != counts["unique_expansions"] + targets:
        problems.append(
            f"normalize calls {counts['normalize_calls']} != unique expansions "
            f"{counts['unique_expansions']} + targets {targets}."
        )
    if counts["echelon_reduces"] != counts["echelon_adds"] + targets:
        problems.append(
            f"echelon rows {counts['echelon_reduces']} != adds "
            f"{counts['echelon_adds']} + targets {targets}."
        )
    return problems


FIXTURE_PARAMS = {"field": {"prime": sh.DEFAULT_PRIME}, "h": 2, "d": 8, "D": 16,
                  "base": "{x,y}", "graded_base": "{y,xx}", "rule": "x y -> y y x"}


def fixture_setup(seed: int) -> dict:
    x, y = _letters(seed)
    algebra = {
        "alphabet": {
            "group": {"cyclic": 2},
            "generators": [{"sym": x, "grade": 1}, {"sym": y, "grade": 0}],
        },
        "rules": [{"lhs": [x, y], "rhs": [{"coef": "1", "word": [y, y, x]}]}],
        "field": FIXTURE_PARAMS["field"],
    }
    hdD = {k: FIXTURE_PARAMS[k] for k in ("h", "d", "D")}
    base = json.dumps({"algebra": algebra, "base": [[x], [y]], **hdD})
    graded = json.dumps({"algebra": algebra, "base": [[y], [x, x]], **hdD})
    return {
        "letters": (x, y),
        "spec": sh.algebra_from_json(algebra),
        "argv": {
            "base_check": ["verify-base", "--json", base],
            "graded_check": ["verify-base", "--graded", "--json", graded],
        },
    }


def _run_cli(argv: list[str], expect: dict) -> tuple[bool, object]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return False, f"exit {code}: {err.getvalue().strip()}"
    summary = _summary(json.loads(out.getvalue()))
    return summary == expect, summary


def fixture_pass(inputs: dict) -> list[Op]:
    return [
        _timed(name, lambda argv=argv, name=name: _run_cli(argv, FIXTURE_EXPECT[name]))
        for name, argv in inputs["argv"].items()
    ]


def nf_closed_form_problems(spec: sh.AlgebraSpec, letters: tuple[str, str],
                            top: int = 6) -> list[str]:
    """Check the tracer's nf_* counters on the fixture algebra in closed form.

    Under x y -> y y x, nf(x^a y^b) = y^(b*2^a) x^a: one term of b*2^a + a
    letters.
    """
    x, y = letters
    pairs = [(a, b) for a in range(top + 1) for b in range(top + 1) if a + b]
    with Tracer() as tr:
        forms = [sh.spanning.normalize(spec, (x,) * a + (y,) * b) for a, b in pairs]
    problems = [
        f"nf(x^{a} y^{b}) is wrong."
        for (a, b), nf in zip(pairs, forms)
        if nf != {(y,) * (b << a) + (x,) * a: spec.field.one}
    ]
    expect = {
        "nf_terms": len(pairs),
        "nf_letters": sum((b << a) + a for a, b in pairs),
        "nf_max_len": max((b << a) + a for a, b in pairs),
        "normalize_calls": len(pairs),
    }
    problems += [
        f"closed form: {key} counted {tr.counts[key]}, expected {value}."
        for key, value in expect.items()
        if tr.counts[key] != value
    ]
    return problems


BRANCHING_PARAMS = {"field": "rationals", "h": 2, "d": 5, "D": 10,
                    "base": "{x,y}", "graded_base": "{y,xx}", "rule": "y x -> 2 x y + 1/3 x"}


def branching_setup(seed: int) -> dict:
    x, y = _letters(seed)
    group = sh.build_group(sh.cyclic(2))
    alphabet = sh.GradedAlphabet(group, [(x, 1), (y, 0)])
    rule = sh.RewriteRule(lhs=(y, x), rhs=(((x, y), Fraction(2)), ((x,), Fraction(1, 3))))
    return {
        "letters": (x, y),
        "spec": sh.AlgebraSpec(alphabet, [rule], sh.RationalField()),
        "base": [(x,), (y,)],
        "graded_base": [(y,), (x, x)],
    }


def _run_library(check, spec, base, expect: dict) -> tuple[bool, object]:
    p = BRANCHING_PARAMS
    summary = _summary(sh.report_to_json(check(spec, base, p["h"], p["d"], p["D"])))
    return summary == expect, summary


def branching_pass(inputs: dict) -> list[Op]:
    spec = inputs["spec"]
    return [
        _timed("base_check", lambda: _run_library(
            sh.is_shirshov_base, spec, inputs["base"], BRANCHING_EXPECT["base_check"])),
        _timed("graded_check", lambda: _run_library(
            sh.check_graded_theorem, spec, inputs["graded_base"], BRANCHING_EXPECT["graded_check"])),
    ]


# -- sequences -----------------------------------------------------------

SEQUENCE_GROUPS = {
    "c17": sh.cyclic(17),
    "c4xc4": sh.product(sh.cyclic(4), sh.cyclic(4)),
    "s5": sh.symmetric(5),
    "s6": sh.symmetric(6),
}
WORD_GROUPS = {"s3": sh.symmetric(3), "c17": sh.cyclic(17)}
SEQUENCE_PARAMS = {"elems": 1_000_000, "letters": 200_000,
                   "groups": list(SEQUENCE_GROUPS), "alphabets": list(WORD_GROUPS)}


def sequences_setup(seed: int, elems: int = SEQUENCE_PARAMS["elems"],
                    letters: int = SEQUENCE_PARAMS["letters"]) -> dict:
    rng = np.random.default_rng(seed)
    seqs = {}
    for name, spec in SEQUENCE_GROUPS.items():
        group = sh.build_group(spec)
        seqs[name] = sh.GradeSequence(group, rng.integers(0, group.order, size=elems))
    texts = {}
    for name, spec in WORD_GROUPS.items():
        group = sh.build_group(spec)
        # One letter per group element, graded by that element.
        alphabet = sh.GradedAlphabet(group, [(f"a{k}", k) for k in range(group.order)])
        symbols = alphabet.symbols
        word = tuple(symbols[k] for k in rng.integers(0, group.order, size=letters).tolist())
        texts[name] = (alphabet, word)
    return {"seqs": seqs, "words": texts}


def _certify(seq: sh.GradeSequence) -> tuple[bool, object]:
    dec = sh.decompose_optimal(seq)
    report = sh.verify_decomposition(seq, dec)
    return report.ok and report.bound_ok, len(dec.uncovered)


def _factor(alphabet: sh.GradedAlphabet, word: tuple) -> tuple[bool, object]:
    fact = sh.factorize(alphabet, word)
    return sh.verify_factorization(alphabet, word, fact).ok, fact.y_total


def sequences_pass(inputs: dict) -> list[Op]:
    ops = [
        _timed(f"certified.{name}", lambda seq=seq: _certify(seq))
        for name, seq in inputs["seqs"].items()
    ]
    ops += [
        _timed(f"factorize.{name}", lambda a=alphabet, w=word: _factor(a, w))
        for name, (alphabet, word) in inputs["words"].items()
    ]
    return ops


def _sequences_cross_check(inputs: dict, counts: dict, outputs: list) -> list[str]:
    elems = sum(len(seq) for seq in inputs["seqs"].values())
    letters = sum(len(word) for _, word in inputs["words"].values())
    uncovered = max(op.output for op in outputs if op.name.startswith("certified."))
    problems = []
    if counts["decompose_elems"] != elems + letters:
        problems.append(f"decomposed {counts['decompose_elems']} elements, expected {elems + letters}.")
    if counts["letters"] != letters:
        problems.append(f"factorized {counts['letters']} letters, expected {letters}.")
    if counts["uncovered_max"] != uncovered:
        problems.append(f"uncovered max {counts['uncovered_max']} != untraced {uncovered}.")
    bound = max(seq.group.order - 1 for seq in inputs["seqs"].values())
    if counts["uncovered_max"] > bound:
        problems.append(f"uncovered max {counts['uncovered_max']} exceeds |G|-1 = {bound}.")
    return problems


def _fixture_cross_check(inputs: dict, counts: dict, outputs: list) -> list[str]:
    payload = sum(len(argv[-1].encode()) for argv in inputs["argv"].values())
    problems = _spanning_cross_check(FIXTURE_PARAMS, counts, outputs)
    problems += nf_closed_form_problems(inputs["spec"], inputs["letters"])
    if counts["payload_bytes"] != payload:
        problems.append(f"cli payload {counts['payload_bytes']} bytes, expected {payload}.")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixture-fp",
            "the acceptance fixture over F_1000003 through the CLI; normalize on the "
            "single-term splice path dominates",
            FIXTURE_PARAMS, fixture_setup, fixture_pass, _fixture_cross_check,
        ),
        Workload(
            "branching-q",
            "a two-term rule over Q through the library; normalize forks and "
            "echelon rows have several terms",
            BRANCHING_PARAMS, branching_setup, branching_pass,
            lambda inputs, counts, outputs: _spanning_cross_check(BRANCHING_PARAMS, counts, outputs),
        ),
        Workload(
            "sequences",
            "seeded group sequences and graded words; groups, intervals and words "
            "do all the work, rewriting none",
            SEQUENCE_PARAMS, sequences_setup, sequences_pass, _sequences_cross_check,
        ),
    )
}
