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
from .groups import FiniteGroup, _elements, build_group, spec_from_json, spec_to_json

__all__ = [
    "Interval",
    "GradeSequence",
    "Decomposition",
    "DecompositionReport",
    "prefix_products",
    "decompose_optimal",
    "verify_decomposition",
    "lemma_bound",
    "sequence_from_json",
    "sequence_to_json",
    "decomposition_from_json",
    "decomposition_to_json",
]

# Elements per block of the interval kernels: prefix_products scans one block
# at a time, and no phi-core chunk is longer, so their working memory beside
# f is bounded by it.
_BLOCK = 1 << 16


class Interval(NamedTuple):
    """1-based inclusive interval of sequence positions."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class GradeSequence:
    """A finite-group-valued sequence; positions are 1-based.

    elems is the sequence's own read-only copy of the given elements, in the
    Cayley table's dtype (int16, 2 bytes per element), as groups._elements
    reads them from an integer array or a list of ints.  The sequence also
    keeps its prefix products once prefix_products has computed them, so a
    decomposed or verified sequence holds 4 bytes per element.  elems and
    group are read-only: the kept prefix products are a function of both.
    """

    def __init__(self, group: FiniteGroup, elems: Sequence[int] | np.ndarray):
        self._elems = _elements(elems, "sequence elements", group.order)
        self._group = group
        self._prefix: np.ndarray | None = None

    @property
    def elems(self) -> np.ndarray:
        return self._elems

    @property
    def group(self) -> FiniteGroup:
        return self._group

    def __len__(self) -> int:
        return len(self._elems)


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
    return max(0, _wire.integer(n, "sequence length", 0) - _wire.integer(m, "group order", 1) + 1)


def prefix_products(seq: GradeSequence) -> np.ndarray:
    """All prefix products f(0) = e, f(k) = g_1 * ... * g_k, as one numpy array.

    The array is the sequence's own and read-only: the first call computes
    it and keeps it on the sequence, and later calls return the same array.
    """
    # f is a pure function of the read-only elems and cayley, so it is
    # computed once per sequence.  It is in the table's dtype, int16.  Each
    # block of _BLOCK elements is scanned on its own, so the scan's
    # temporaries are bounded by the block, not by n.  The prefix before a
    # block is folded into its first element, one scalar lookup, and the
    # scan carries it through the rest of the block.
    if seq._prefix is not None:
        return seq._prefix
    cayley = seq.group.cayley
    flat = cayley.ravel()
    out = np.empty(len(seq.elems) + 1, dtype=cayley.dtype)
    out[0] = 0
    out[1:] = seq.elems
    for lo in range(1, len(out), _BLOCK):
        blk = out[lo : lo + _BLOCK]
        blk[0] = cayley[out[lo - 1], blk[0]]
        _scan_pairs(flat, len(cayley), blk)
    out.flags.writeable = False
    seq._prefix = out
    return out


def _scan_pairs(flat: np.ndarray, m: int, x: np.ndarray) -> None:
    # Inclusive scan of x in place, pairwise (Blelloch): multiply neighbouring
    # pairs, scan the half-length array of pair products, which gives every
    # odd slot, then fill each even slot from the odd slot before it.  About
    # 2n table gathers in all.  The flat index a*m + b reaches m^2 - 1, past
    # int16, so it is formed in int32: a plain x * m would stay int16 and wrap.
    # Below 16 elements a round costs more in numpy calls than it saves, so
    # the recursion ends in a left fold over Python ints, whose products
    # never wrap.
    n = len(x)
    if n < 16:
        acc = x.tolist()
        for k in range(1, n):
            acc[k] = flat.item(acc[k - 1] * m + acc[k])
        x[:] = acc
        return
    idx = np.multiply(x[0 : n - 1 : 2], m, dtype=np.int32)
    idx += x[1::2]
    pairs = flat.take(idx)
    _scan_pairs(flat, m, pairs)
    x[1::2] = pairs
    idx = np.multiply(pairs[: (n - 1) // 2], m, dtype=np.int32)
    idx += x[2::2]
    x[2::2] = flat.take(idx)


def decompose_optimal(seq: GradeSequence) -> Decomposition:
    """Maximum-coverage decomposition into identity-product intervals.

    Runs in time linear in the sequence length and is deterministic: when
    skipping position i and closing an interval at i tie, the interval wins,
    and among equally good interval starts the earliest (longest interval)
    wins.  One pass settles phi over the prefix products in chunks.

    No two returned intervals are adjacent: [j+1, i] starts after the first
    prefix j with (f(j), phi(j)) = (f(i), phi(i)), phi(j) being the best
    coverage of the first j positions minus j, and such a j >= 1 is skipped.
    """
    intervals, coverage = _optimal_core(prefix_products(seq), seq.group.order)
    return Decomposition(
        intervals=tuple(intervals),
        uncovered=tuple(_complement(intervals, len(seq))),
        coverage=coverage,
    )


def _settle(values: list[int], start: int, phi: int, best: list[int],
            best_arr: np.ndarray, first: dict[int, int]) -> int:
    # phi(i) = max(best[f(i)], phi(i-1) - 1) over values = f(start), ...,
    # from phi = phi(start - 1); best[v] is the largest phi(j) with f(j) = v.
    # At an event, a position whose phi raises its own best[] entry, the
    # entry is written to both copies of best[], and first records the
    # position as the first prefix with (f, phi) = (v, phi), under the key
    # v - phi*|G|, one per pair since phi <= 0.  No other code writes them.
    m = len(best)
    for i, v in enumerate(values, start):
        b = best[v]
        if b < phi - 1:
            phi -= 1
            best[v] = best_arr[v] = phi
            first[v - phi * m] = i
        else:
            phi = b
    return phi


def _traceback(f: np.ndarray, m: int, phi: int, first: dict[int, int]) -> list[Interval]:
    # Walk back from n with phi = phi(n).  Prefix i ends the interval
    # [j+1, i] when first's j for (f(i), phi) is below i, and the walk jumps
    # to j; otherwise i is skipped and phi(i-1) = phi(i) + 1.
    intervals: list[Interval] = []
    i = len(f) - 1
    while i > 0:
        j = first[int(f[i]) - phi * m]
        if j < i:
            intervals.append(Interval(j + 1, i))
            i = j
        else:
            i -= 1
            phi += 1
    intervals.reverse()
    return intervals


def _optimal_core(f: np.ndarray, m: int) -> tuple[list[Interval], int]:
    # _settle over the prefix products f in chunks.  best[] entries only
    # increase within [-(m-1), 0], so there are at most m*(m+1) events, but in
    # bursts.  A chunk of at most 256 positions goes to _settle; a longer one
    # is one vectorized test for its first event, which it hands to _settle;
    # the next chunk starts after it.  No chunk is longer than _BLOCK.
    # best[] is kept as a list for _settle and as an array for the gather,
    # and _settle writes both at each event.
    n = len(f) - 1
    best = [-(1 << 30)] * m
    best[0] = 0
    best_arr = np.full(m, -(1 << 30), dtype=np.int32)
    best_arr[0] = 0
    first = {0: 0}
    offsets = np.arange(min(n, _BLOCK), dtype=np.int32)

    phi = 0  # phi(start - 1)
    start = 1
    # f(1) = g_1 is an event unless g_1 = e, so the first chunk is settled.
    chunk = 256
    while start <= n:
        end = min(n, start + chunk - 1)
        if end - start < 256:
            seen = len(first)
            phi = _settle(f[start : end + 1].tolist(), start, phi, best, best_arr, first)
            start = end + 1
            # A burst keeps the chunk short; a quiet chunk doubles it.
            if len(first) == seen:
                chunk <<= 1
            continue
        # With best[] frozen, b[k] = best[f(start + k)] + k.  Up to the first
        # event phi(start + k) = b[k] - k, so an event at k > 0 is
        # b[k] - k < phi(start + k - 1) - 1, a descent b[k] < b[k - 1]; at
        # k = 0 it is b[0] < phi(start - 1) - 1.
        b = best_arr.take(f[start : end + 1])
        b += offsets[: end - start + 1]
        if b[0] < phi - 1:
            k = 0
        else:
            drop = b[1:] < b[:-1]
            k = int(drop.argmax()) + 1
            if not drop[k - 1]:
                phi = int(b[-1]) - (end - start)
                start = end + 1
                chunk = min(chunk << 1, _BLOCK)
                continue
            phi = int(b[k - 1]) - k + 1  # phi(start + k - 1)
        phi = _settle([int(f[start + k])], start + k, phi, best, best_arr, first)
        start += k + 1
        # Restart at about twice the gap just scanned, so a burst costs
        # chunks of its own size.
        chunk = min(max(64, 2 * (k + 1)), _BLOCK)

    return _traceback(f, m, phi, first), phi + n


def _complement(intervals: Sequence[Interval], n: int) -> list[int]:
    out: list[int] = []
    nxt = 1
    for iv in intervals:
        out.extend(range(nxt, iv.start))
        nxt = max(nxt, iv.end + 1)
    out.extend(range(nxt, n + 1))
    return out


def verify_decomposition(seq: GradeSequence, dec: Decomposition) -> DecompositionReport:
    """Check a claimed decomposition against the sequence it describes."""
    n = len(seq)
    violations: list[str] = []

    # A list of pairs of ints only, as _wire reads them: a bool, float or
    # numpy integer fails, and so does an entry that is not a pair.
    listed = isinstance(dec.intervals, (list, tuple))
    if not listed:
        violations.append(f"intervals must be a list, got {dec.intervals!r}.")
    shaped: list[Interval] = []
    for iv in dec.intervals if listed else ():
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2):
            violations.append(f"interval {iv!r} is not a pair of endpoints.")
            continue
        a, b = iv
        if not (_wire.is_int(a) and _wire.is_int(b)) or a > b or a < 1 or b > n:
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

    # A rejected interval is one fault: the count and the complement are only
    # checked against a set of intervals that are all well formed, and the
    # complement only against a list of positions.
    coverage_ok = _wire.is_int(dec.coverage)
    positions = isinstance(dec.uncovered, (list, tuple))
    if not positions:
        violations.append(f"uncovered positions must be a list, got {dec.uncovered!r}.")
    if listed and len(shaped) == len(dec.intervals):
        total = int((ends[:, 1] - ends[:, 0] + 1).sum())
        if not coverage_ok or dec.coverage != total:
            violations.append(
                f"coverage miscount: stated {dec.coverage!r}, intervals cover {total}."
            )
        if positions and (not all(map(_wire.is_int, dec.uncovered))
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
        "elems": seq.elems.tolist(),
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
