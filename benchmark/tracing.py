"""Spans around the library's public functions, and per-layer metrics from them.

A Tracer wraps each traced function wherever a module of the package binds
it, so calls the library makes internally (``cli`` calling
``check_graded_theorem``, ``_span_check`` calling ``normalize``) are seen as
well as the benchmark's own calls.  Every call becomes a span: name, start,
end and the span that was open when it began.  Counting work done after a
call (input and output sizes) is recorded as a ``trace.bookkeeping`` span
under the caller, so it never lands in any layer's self time.  Nothing in the
library changes; the wrappers are removed when the tracer is closed.
"""

from __future__ import annotations

import functools
from time import perf_counter

import shirshov
from shirshov import cli, groups, intervals, rewriting, spanning, words

_MODULES = (shirshov, groups, intervals, words, rewriting, spanning, cli)

BOOKKEEPING = "trace.bookkeeping"

# (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "rewriting.normalize.self_s": ("s", "lower"),
    "rewriting.normalize.calls": ("count", "lower"),
    "rewriting.normalize.unique_ratio": ("ratio", "higher"),
    "rewriting.nf_terms": ("count", "lower"),
    "rewriting.nf_letters": ("count", "lower"),
    "rewriting.nf_max_len": ("count", "lower"),
    "rewriting.suffix_reuse": ("ratio", "higher"),
    "spanning.enumerate.self_s": ("s", "lower"),
    "spanning.products": ("count", "lower"),
    "spanning.unique_expansions": ("count", "lower"),
    "spanning.echelon.self_s": ("s", "lower"),
    "spanning.echelon.rows": ("count", "lower"),
    "spanning.echelon.useful_ratio": ("ratio", "higher"),
    "spanning.check.self_s": ("s", "lower"),
    "intervals.decompose.self_s": ("s", "lower"),
    "intervals.decompose.elems": ("count", "lower"),
    "intervals.verify.self_s": ("s", "lower"),
    "intervals.verify_per_decompose": ("ratio", "lower"),
    "intervals.uncovered_max": ("count", "lower"),
    "words.factorize.self_s": ("s", "lower"),
    "words.letters": ("count", "lower"),
    "words.verify.self_s": ("s", "lower"),
    "groups.build_s": ("s", "lower"),
    "groups.table_entries": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.payload_bytes": ("bytes", "lower"),
}

# Exact counts: they must repeat on every pass over the same inputs.
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counts while installed (``with Tracer() as tr:``)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(
            (
                "normalize_calls", "nf_terms", "nf_letters", "nf_max_len",
                "suffix_total", "products", "unique_expansions", "echelon_adds",
                "echelon_rank", "echelon_reduces", "decompose_elems",
                "uncovered_max", "letters", "table_entries", "payload_bytes",
            ),
            0,
        )
        self._inputs: set[tuple] = set()
        self._suffixes: set[tuple] = set()

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._patch_function(groups.build_group, "groups.build", self._after_build)
        self._patch_function(intervals.decompose_optimal, "intervals.decompose", self._after_decompose)
        self._patch_function(intervals.verify_decomposition, "intervals.verify")
        self._patch_function(words.factorize, "words.factorize", self._after_factorize)
        self._patch_function(words.verify_factorization, "words.verify")
        self._patch_function(rewriting.normalize, "rewriting.normalize", self._after_normalize)
        self._patch_function(spanning.enumerate_products, "spanning.enumerate", self._after_enumerate)
        self._patch_function(spanning.is_shirshov_base, "spanning.check")
        self._patch_function(spanning.check_graded_theorem, "spanning.check")
        self._patch_function(cli.main, "cli", self._after_cli)
        echelon = spanning.RowEchelon
        self._patch(echelon, "add", self._wrap("spanning.echelon.add", echelon.add, self._after_add))
        self._patch(echelon, "reduce", self._wrap("spanning.echelon.reduce", echelon.reduce, self._after_reduce))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name: str, after=None) -> None:
        traced = self._wrap(name, fn, after)
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, traced)

    def _wrap(self, name: str, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                t0 = perf_counter()
                after(args, result)
                names.append(BOOKKEEPING)
                parents.append(stack[-1] if stack else -1)
                starts.append(t0)
                ends.append(perf_counter())
            return result

        return traced

    # -- counters --------------------------------------------------------

    def _after_build(self, args, group) -> None:
        self.counts["table_entries"] += group.order * group.order

    def _after_decompose(self, args, dec) -> None:
        c = self.counts
        c["decompose_elems"] += len(args[0])
        c["uncovered_max"] = max(c["uncovered_max"], len(dec.uncovered))

    def _after_factorize(self, args, fact) -> None:
        self.counts["letters"] += len(args[1])

    def _after_normalize(self, args, nf) -> None:
        c = self.counts
        word = tuple(args[1])
        c["normalize_calls"] += 1
        self._inputs.add(word)
        c["suffix_total"] += len(word)
        self._suffixes.update(word[k:] for k in range(len(word)))
        c["nf_terms"] += len(nf)
        for mono in nf:
            c["nf_letters"] += len(mono)
            if len(mono) > c["nf_max_len"]:
                c["nf_max_len"] = len(mono)

    def _after_enumerate(self, args, products) -> None:
        c = self.counts
        c["products"] += len(products)
        c["unique_expansions"] += len({p.expansion() for p in products})

    def _after_add(self, args, raised) -> None:
        self.counts["echelon_adds"] += 1
        self.counts["echelon_rank"] += bool(raised)

    def _after_reduce(self, args, residual) -> None:
        self.counts["echelon_reduces"] += 1

    def _after_cli(self, args, code) -> None:
        argv = list(args[0])
        if "--json" in argv:
            self.counts["payload_bytes"] += len(argv[argv.index("--json") + 1].encode())

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded, keyed as LAYER_METRICS."""
        c = self.counts
        own: dict[str, float] = {}
        certified_decompose = 0.0  # decompositions not made inside factorize
        for name, parent, t in zip(self.names, self.parents, self.self_times()):
            own[name] = own.get(name, 0.0) + t
            if name == "intervals.decompose" and (
                parent < 0 or self.names[parent] != "words.factorize"
            ):
                certified_decompose += t

        def s(name: str) -> float:
            return own.get(name, 0.0)

        return {
            "rewriting.normalize.self_s": s("rewriting.normalize"),
            "rewriting.normalize.calls": c["normalize_calls"],
            "rewriting.normalize.unique_ratio": _ratio(len(self._inputs), c["normalize_calls"]),
            "rewriting.nf_terms": c["nf_terms"],
            "rewriting.nf_letters": c["nf_letters"],
            "rewriting.nf_max_len": c["nf_max_len"],
            "rewriting.suffix_reuse": (
                1.0 - _ratio(len(self._suffixes), c["suffix_total"]) if c["suffix_total"] else 0.0
            ),
            "spanning.enumerate.self_s": s("spanning.enumerate"),
            "spanning.products": c["products"],
            "spanning.unique_expansions": c["unique_expansions"],
            "spanning.echelon.self_s": s("spanning.echelon.add") + s("spanning.echelon.reduce"),
            "spanning.echelon.rows": c["echelon_reduces"],
            "spanning.echelon.useful_ratio": _ratio(c["echelon_rank"], c["echelon_adds"]),
            "spanning.check.self_s": s("spanning.check"),
            "intervals.decompose.self_s": s("intervals.decompose"),
            "intervals.decompose.elems": c["decompose_elems"],
            "intervals.verify.self_s": s("intervals.verify"),
            "intervals.verify_per_decompose": _ratio(s("intervals.verify"), certified_decompose),
            "intervals.uncovered_max": c["uncovered_max"],
            "words.factorize.self_s": s("words.factorize"),
            "words.letters": c["letters"],
            "words.verify.self_s": s("words.verify"),
            "groups.build_s": s("groups.build"),
            "groups.table_entries": c["table_entries"],
            "cli.self_s": s("cli"),
            "cli.payload_bytes": c["payload_bytes"],
        }

    def span_problems(self, tolerance: float = 1e-9) -> list[str]:
        """Spans that end before they start, or children that leave their parent."""
        out = []
        child_total = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            start, end = self.starts[idx], self.ends[idx]
            if end < start:
                out.append(f"span {idx} ({self.names[idx]}) ends before it starts.")
            if parent >= 0:
                child_total[parent] += end - start
                if start < self.starts[parent] or end > self.ends[parent]:
                    out.append(f"span {idx} ({self.names[idx]}) leaves its parent {parent}.")
        for idx, total in enumerate(child_total):
            if total > self.ends[idx] - self.starts[idx] + tolerance:
                out.append(f"children of span {idx} ({self.names[idx]}) exceed it.")
        return out
