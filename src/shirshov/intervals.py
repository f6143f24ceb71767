"""Maximum-coverage decomposition of group sequences into identity-product intervals.

A sequence g_1, ..., g_n over a finite group G is decomposed into
non-overlapping intervals [a, b] (1-based, inclusive) whose element product
g_a * ... * g_b is the identity, maximizing the number of covered positions.
An interval [j+1, i] has identity product exactly when the prefix products
f(j) and f(i) coincide, so a single left-to-right pass that remembers, for
every group value v, the best decomposition ending at an earlier prefix with
f = v finds an optimal decomposition in linear time.  The optimum always
covers at least n - |G| + 1 positions: the prefix map is injective on the
uncovered positions' prefixes together with f(0), so at most |G| - 1
positions stay uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _wire
from .groups import FiniteGroup, build_group, spec_from_json, spec_to_json

__all__ = [
    "Interval",
    "GradeSequence",
    "Decomposition",
    "DecompositionReport",
    "prefix_products",
    "decompose_optimal",
    "decompose_bruteforce",
    "verify_decomposition",
    "lemma_bound",
    "sequence_from_json",
    "sequence_to_json",
    "decomposition_from_json",
    "decomposition_to_json",
]

ORACLE_LIMIT = 16
# decompose_optimal takes the vectorized core from n >= _VECTOR_RATIO * |G|.
_VECTOR_RATIO = 1000


class Interval(NamedTuple):
    """1-based inclusive interval of sequence positions."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class GradeSequence:
    """A finite-group-valued sequence; positions are 1-based."""

    def __init__(self, group: FiniteGroup, elems: Sequence[int] | np.ndarray):
        m = group.order
        if isinstance(elems, np.ndarray):
            if elems.ndim != 1 or not np.issubdtype(elems.dtype, np.integer):
                raise ValueError("elems array must be one-dimensional and integral.")
            if elems.size and (bad := np.flatnonzero((elems < 0) | (elems >= m))).size:
                pos = int(bad[0])
                raise ValueError(
                    f"element {int(elems[pos])} at position {pos + 1} "
                    f"out of range [0,{m - 1}]."
                )
            self.elems: Sequence[int] | np.ndarray = elems
        else:
            vals = tuple(elems)
            for pos, g in enumerate(vals):
                if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < m:
                    raise ValueError(
                        f"element {g!r} at position {pos + 1} out of range [0,{m - 1}]."
                    )
            self.elems = vals
        self.group = group

    def __len__(self) -> int:
        return len(self.elems)


@dataclass(frozen=True)
class Decomposition:
    """Chosen identity-product intervals plus the uncovered positions."""

    intervals: tuple[Interval, ...]
    uncovered: tuple[int, ...]
    coverage: int


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of verify_decomposition; bound_ok flags coverage >= n - |G| + 1."""

    violations: tuple[str, ...]
    bound_ok: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def lemma_bound(n: int, m: int) -> int:
    """Guaranteed coverage max(0, n - m + 1) for length n over a group of order m."""
    if n < 0:
        raise ValueError(f"sequence length must be >= 0, got {n}.")
    if m < 1:
        raise ValueError(f"group order must be >= 1, got {m}.")
    return max(0, n - m + 1)


def prefix_products(seq: GradeSequence) -> np.ndarray:
    """All prefix products f(0) = e, f(k) = g_1 * ... * g_k, as one numpy array."""
    # The table's dtype is wide enough for the flat index a*m + b.
    cayley = seq.group.cayley
    out = np.empty(len(seq.elems) + 1, dtype=cayley.dtype)
    out[0] = 0
    out[1:] = seq.elems
    _scan_pairs(cayley.ravel(), len(cayley), out[1:])
    return out


def _scan_pairs(flat: np.ndarray, m: int, x: np.ndarray) -> None:
    # Inclusive scan of x in place, pairwise (Blelloch): multiply neighbouring
    # pairs, scan the half-length array of pair products, which gives every
    # odd slot, then fill each even slot from the odd slot before it.  About
    # 2n table gathers in all.
    n = len(x)
    if n < 2:
        return
    pairs = flat[x[0 : n - 1 : 2] * m + x[1::2]]
    _scan_pairs(flat, m, pairs)
    x[1::2] = pairs
    x[2::2] = flat[pairs[: (n - 1) // 2] * m + x[2::2]]


def decompose_optimal(seq: GradeSequence) -> Decomposition:
    """Maximum-coverage decomposition into identity-product intervals.

    Runs in time linear in the sequence length and is deterministic: when
    skipping position i and closing an interval at i tie, the interval wins,
    and among equally good interval starts the earliest (longest interval)
    wins.  Sequences of at least _VECTOR_RATIO * |G| elements take a
    vectorized path over prefix_products with identical output.

    No two returned intervals are adjacent: [j+1, i] starts after the first
    prefix j with (f(j), phi(j)) = (f(i), phi(i)), phi(j) being the best
    coverage of the first j positions minus j, and such a j >= 1 is skipped.
    """
    n, m = len(seq), seq.group.order
    if n >= _VECTOR_RATIO * m:
        intervals, coverage = _optimal_core_vector(prefix_products(seq), m)
    else:
        intervals, coverage = _optimal_core_reference(seq.group.cayley, seq.elems)
    return Decomposition(
        intervals=tuple(intervals),
        uncovered=tuple(_complement(intervals, n)),
        coverage=coverage,
    )


def _optimal_core_reference(
    cayley: np.ndarray, elems: Sequence[int] | np.ndarray
) -> tuple[list[Interval], int]:
    # phi(i) = (best coverage of the first i positions) - i, a value in
    # [-(|G|-1), 0]; best_val[v] = max phi(j) over prefixes j with f(j) = v,
    # best_j[v] the earliest j attaining it.
    # A flat view of the table, indexed a*m + b, is zero-copy and cheaper to
    # index than the 2-D view.
    m = len(cayley)
    flat = memoryview(cayley.ravel())
    neg = -(1 << 60)
    best_val = [neg] * m
    best_j = [0] * m
    best_val[0] = 0
    elems = elems.tolist() if isinstance(elems, np.ndarray) else list(elems)
    n = len(elems)
    choice = [0] * (n + 1)  # 0 = position skipped, else j + 1
    f = 0
    prev_phi = 0
    for i in range(1, n + 1):
        f = flat[f * m + elems[i - 1]]
        cand = best_val[f]
        skip = prev_phi - 1
        if cand >= skip:
            cur = cand
            choice[i] = best_j[f] + 1
        else:
            cur = skip
        if cur > best_val[f]:
            best_val[f] = cur
            best_j[f] = i
        prev_phi = cur
    intervals: list[Interval] = []
    i = n
    while i > 0:
        c = choice[i]
        if c:
            j = c - 1
            intervals.append(Interval(j + 1, i))
            i = j
        else:
            i -= 1
    intervals.reverse()
    return intervals, prev_phi + n


def _optimal_core_vector(f: np.ndarray, m: int) -> tuple[list[Interval], int]:
    # Same recurrence as the reference over the prefix products f, evaluated
    # in chunks: with the best[] map frozen, phi[i] = max_t<=i (best[f(t)] + t)
    # - i is a running maximum, so each chunk is one vectorized scan.  A chunk
    # stays valid up to the first position whose phi would raise its own
    # best[] entry; that update is applied and the scan resumes.  best[]
    # entries only ever increase within [-(m-1), 0], so there are at most
    # m*(m+1) such events in total.
    # The traceback needs only first[(v, phi)], the first prefix with that
    # pair, which is an event: prefix i ends the interval [j+1, i] when
    # j = first[(f(i), phi(i))] < i, else i is skipped and phi(i-1) = phi(i)+1.
    n = len(f) - 1
    neg = -(1 << 30)
    best_val = np.full(m, neg, dtype=np.int32)
    best_val[0] = 0
    first = {(0, 0): 0}

    phi = 0  # phi(start - 1)
    start = 1
    chunk = 1 << 12
    while start <= n:
        end = min(n, start + chunk - 1)
        fb = f[start : end + 1]
        b = best_val[fb]
        t = np.arange(start, end + 1, dtype=np.int32)
        scan = np.maximum.accumulate(b + t)
        np.maximum(scan, np.int32(phi + start - 1), out=scan)
        pb = scan - t
        upd = np.flatnonzero(pb > b)
        if upd.size:
            k = int(upd[0])
            i_star = start + k
            v = int(f[i_star])
            phi = int(pb[k])
            best_val[v] = phi
            first[(v, phi)] = i_star
            start = i_star + 1
            # Events come in bursts: restart at about twice the gap just
            # scanned, so a burst costs chunks of its own size.
            chunk = max(64, 2 * (k + 1))
        else:
            phi = int(pb[-1])
            start = end + 1
            chunk = min(chunk << 1, 1 << 22)

    coverage = phi + n
    intervals: list[Interval] = []
    i = n
    while i > 0:
        j = first[(int(f[i]), phi)]
        if j < i:
            intervals.append(Interval(j + 1, i))
            i = j
        else:
            i -= 1
            phi += 1
    intervals.reverse()
    return intervals, coverage


def _complement(intervals: Sequence[Interval], n: int) -> list[int]:
    out: list[int] = []
    nxt = 1
    for iv in intervals:
        out.extend(range(nxt, iv.start))
        nxt = max(nxt, iv.end + 1)
    out.extend(range(nxt, n + 1))
    return out


def decompose_bruteforce(seq: GradeSequence) -> Decomposition:
    """Exhaustive-search oracle over all non-overlapping interval sets (n <= 16)."""
    n = len(seq)
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle limit exceeded: n={n} > {ORACLE_LIMIT}.")
    m = seq.group.order
    flat = memoryview(seq.group.cayley.ravel())
    elems = tuple(seq.elems)
    memo: dict[int, int] = {n + 1: 0}

    def rec(i: int) -> int:
        got = memo.get(i)
        if got is not None:
            return got
        out = rec(i + 1)
        acc = 0
        for j in range(i, n + 1):
            acc = flat[acc * m + elems[j - 1]]
            if acc == 0:
                cand = (j - i + 1) + rec(j + 1)
                if cand > out:
                    out = cand
        memo[i] = out
        return out

    rec(1)
    intervals: list[Interval] = []
    i = 1
    while i <= n:
        target = rec(i)
        if target == rec(i + 1):
            i += 1
            continue
        acc = 0
        for j in range(i, n + 1):
            acc = flat[acc * m + elems[j - 1]]
            if acc == 0 and (j - i + 1) + rec(j + 1) == target:
                intervals.append(Interval(i, j))
                i = j + 1
                break
    coverage = sum(iv.length for iv in intervals)
    return Decomposition(
        intervals=tuple(intervals),
        uncovered=tuple(_complement(intervals, n)),
        coverage=coverage,
    )


def verify_decomposition(seq: GradeSequence, dec: Decomposition) -> DecompositionReport:
    """Check a claimed decomposition against the sequence it describes."""
    n = len(seq)
    violations: list[str] = []

    # Plain ints only, as _wire reads them: a bool, float or numpy integer fails.
    shaped: list[Interval] = []
    for iv in dec.intervals:
        a, b = iv
        if type(a) is not int or type(b) is not int or a > b or a < 1 or b > n:
            violations.append(f"interval [{a!r},{b!r}] out of range for n={n}.")
        else:
            shaped.append(Interval(a, b))

    if any(shaped[k].start < shaped[k - 1].start for k in range(1, len(shaped))):
        violations.append("intervals not sorted by start.")
    in_order = sorted(shaped)
    for prev, cur in zip(in_order, in_order[1:]):
        if cur.start <= prev.end:
            violations.append(f"intervals [{prev.start},{prev.end}] and "
                              f"[{cur.start},{cur.end}] overlap.")

    # [a, b] has identity product iff f(a-1) = f(b).
    f = prefix_products(seq)
    ends = np.array(shaped, dtype=np.int64).reshape(-1, 2)
    for k in np.flatnonzero(f[ends[:, 0] - 1] != f[ends[:, 1]]):
        violations.append(f"interval [{shaped[k].start},{shaped[k].end}] product != identity.")

    total = int((ends[:, 1] - ends[:, 0] + 1).sum())
    coverage_ok = type(dec.coverage) is int
    if not coverage_ok or dec.coverage != total:
        violations.append(
            f"coverage miscount: stated {dec.coverage!r}, intervals cover {total}."
        )

    if (any(type(p) is not int for p in dec.uncovered)
            or list(dec.uncovered) != _complement(in_order, n)):
        violations.append("uncovered positions do not match the complement.")

    bound_ok = coverage_ok and dec.coverage >= lemma_bound(n, seq.group.order)
    return DecompositionReport(violations=tuple(violations), bound_ok=bound_ok)


def sequence_from_json(obj: object) -> GradeSequence:
    """Parse {"group": spec, "elems": [...]} into a validated GradeSequence."""
    obj = _wire.fields(obj, "sequence", required=("group", "elems"))
    group = build_group(spec_from_json(obj["group"]))
    return GradeSequence(group, _wire.array(obj["elems"], '"elems"'))


def sequence_to_json(seq: GradeSequence) -> dict:
    if seq.group.spec is None:
        raise ValueError("sequence group has no serializable spec.")
    return {
        "group": spec_to_json(seq.group.spec),
        "elems": [int(g) for g in seq.elems],
    }


def decomposition_from_json(obj: object) -> Decomposition:
    """Parse decomposition_to_json's output; decompose's "bound_ok" is allowed."""
    obj = _wire.fields(obj, "decomposition", required=("intervals", "uncovered", "coverage"),
                       optional=("bound_ok",))
    _wire.boolean(obj.get("bound_ok", False), '"bound_ok"')
    return Decomposition(
        intervals=tuple(Interval(*_wire.array(p, "interval", _wire.integer, 2))
                        for p in _wire.array(obj["intervals"], '"intervals"')),
        uncovered=tuple(_wire.array(obj["uncovered"], '"uncovered"', _wire.integer)),
        coverage=_wire.integer(obj["coverage"], '"coverage"'),
    )


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "intervals": [[iv.start, iv.end] for iv in dec.intervals],
        "uncovered": [int(p) for p in dec.uncovered],
        "coverage": int(dec.coverage),
    }
