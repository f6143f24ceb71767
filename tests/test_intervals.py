"""Maximum-coverage identity-product interval decompositions."""

import dataclasses
import itertools
import random
import re
import tracemalloc
from typing import Sequence

import numpy as np
import pytest

import shirshov as sh
from shirshov.intervals import (_BLOCK, Decomposition, Interval, _complement, _optimal_core,
                                _settle)


def _seq(spec, elems):
    return sh.GradeSequence(sh.build_group(spec), elems)


# An exponential oracle for decompose_optimal at small sizes: the best
# coverage of positions i..n, by exhaustive search over the first interval.
ORACLE_LIMIT = 16


def decompose_bruteforce(seq: sh.GradeSequence) -> Decomposition:
    """Exhaustive-search oracle over all non-overlapping interval sets (n <= 16)."""
    n = len(seq)
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle limit exceeded: n={n} > {ORACLE_LIMIT}.")
    m = seq.group.order
    flat = memoryview(seq.group.cayley.ravel())
    elems = seq.elems.tolist()
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


# An independent oracle for decompose_optimal's core: the same phi
# recurrence with its own traceback, through choice[i], the interval start
# chosen at each position, instead of the first prefix of each (f, phi).
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


def test_prefix_products_examples():
    assert sh.prefix_products(_seq(sh.cyclic(2), [1, 1, 1, 0])).tolist() == [0, 1, 0, 1, 1]
    assert sh.prefix_products(_seq(sh.cyclic(2), [])).tolist() == [0]
    assert sh.prefix_products(_seq(sh.cyclic(3), [1, 1, 1])).tolist() == [0, 1, 2, 0]


def test_prefix_products_match_left_fold():
    # Odd and even lengths take different last steps in the pairwise scan.
    rng = random.Random(3)
    specs = (
        sh.cyclic(17), sh.dihedral(4), sh.symmetric(4),
        sh.product(sh.symmetric(3), sh.cyclic(4)),
        sh.table(sh.build_group(sh.symmetric(3)).cayley.tolist()),
    )
    for spec in specs:
        group = sh.build_group(spec)
        for n in (0, 1, 63, 64, 65, 4100):
            elems = [rng.randrange(group.order) for _ in range(n)]
            fold = list(itertools.accumulate(elems, group.mul, initial=0))
            got = sh.prefix_products(sh.GradeSequence(group, elems))
            assert got.tolist() == fold
            arr = sh.prefix_products(sh.GradeSequence(group, np.array(elems, dtype=np.int64)))
            assert arr.tolist() == fold


def test_scan_matches_scalar_fold():
    # Every length class of the pairwise scan: odd and even, and 2^k - 1, 2^k,
    # 2^k + 1, where the recursion's depth steps up.  Every length up to 40
    # ends in the scalar fold below 16 elements, directly or after one or two
    # pairwise rounds.  Elements of cyclic(4096) near m - 1 reach the largest
    # flat index a*m + b = m^2 - 1.
    rng = random.Random(13)
    lengths = sorted({*range(41), 4100,
                      *(2 ** k + d for k in range(1, 14) for d in (-1, 0, 1))})
    specs = (
        sh.cyclic(17), sh.dihedral(4), sh.symmetric(4),
        sh.product(sh.symmetric(3), sh.cyclic(4)),
        sh.table(sh.build_group(sh.symmetric(3)).cayley.tolist()),
        sh.symmetric(6), sh.cyclic(4096),
    )
    for spec in specs:
        group = sh.build_group(spec)
        m = group.order
        low = m - 8 if m == 4096 else 0
        for n in lengths:
            elems = [rng.randrange(low, m) for _ in range(n)]
            fold = list(itertools.accumulate(elems, group.mul, initial=0))
            for given in (tuple(elems), np.array(elems, dtype=np.int64),
                          np.array(elems, dtype=np.int32)):
                got = sh.prefix_products(sh.GradeSequence(group, given))
                assert got.dtype == group.cayley.dtype == np.int16
                assert got.tolist() == fold, (m, n, type(given))


def test_scan_matches_scalar_fold_at_block_boundaries():
    # prefix_products scans each block of _BLOCK elements on its own and
    # left-multiplies it by the prefix before it: lengths one short of, at
    # and one past k blocks end the last block at every parity.  The fold is
    # independent of the scan, so a carry applied on the wrong side fails
    # here even where f(a-1) = f(b) checks would agree with decompose.
    rng = random.Random(41)
    specs = (
        sh.product(sh.symmetric(3), sh.cyclic(4)), sh.symmetric(6),
        sh.table(sh.build_group(sh.symmetric(3)).cayley.tolist()), sh.cyclic(4096),
    )
    for spec in specs:
        group = sh.build_group(spec)
        m = group.order
        low = m - 8 if m == 4096 else 0
        elems = [rng.randrange(low, m) for _ in range(3 * _BLOCK + 1)]
        fold = list(itertools.accumulate(elems, group.mul, initial=0))
        for n in (k * _BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)):
            for given in (tuple(elems[:n]), np.array(elems[:n], dtype=np.int64),
                          np.array(elems[:n], dtype=np.int32)):
                got = sh.prefix_products(sh.GradeSequence(group, given))
                assert got.tolist() == fold[: n + 1], (m, n, type(given))


def test_prefix_products_are_kept_on_the_sequence():
    # The first call computes f and keeps it; later calls return the same
    # read-only array.
    seq = _seq(sh.symmetric(3), [1, 2, 3, 4, 5, 0] * 50)
    f = sh.prefix_products(seq)
    assert sh.prefix_products(seq) is f
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[1] = 0


def test_elements_and_group_cannot_be_rebound():
    # The kept f is a function of elems and group, so neither can be
    # rebound past the element reader: over C3, [1, 2, 0] rebound to
    # [1, 1, 1] would keep f = [0, 1, 0, 0], where [1, 1, 1] has [0, 1, 2, 0].
    c3 = sh.build_group(sh.cyclic(3))
    seq = sh.GradeSequence(c3, [1, 2, 0])
    sh.decompose_optimal(seq)
    with pytest.raises(AttributeError):
        seq.elems = np.array([1, 1, 1], dtype=np.int16)
    with pytest.raises(AttributeError):
        seq.group = sh.build_group(sh.cyclic(3))
    assert seq.elems.tolist() == [1, 2, 0] and seq.group is c3
    assert sh.prefix_products(seq).tolist() == [0, 1, 0, 0]


def test_verify_reads_the_prefix_products_decompose_kept(monkeypatch):
    rng = np.random.default_rng(53)
    group = sh.build_group(sh.symmetric(5))
    seq = sh.GradeSequence(group, rng.integers(0, group.order, size=3 * _BLOCK + 7))
    dec = sh.decompose_optimal(seq)
    report = sh.verify_decomposition(sh.GradeSequence(group, seq.elems), dec)
    assert report.ok and report.bound_ok

    def no_scan(*args):
        raise AssertionError("the pairwise scan ran again")

    monkeypatch.setattr("shirshov.intervals._scan_pairs", no_scan)
    assert sh.verify_decomposition(seq, dec) == report


def _mutated(seq, dec):
    # Each changes one field of an optimal decomposition.  No two intervals
    # are adjacent, so the position after an interval is uncovered, and it
    # is not the identity, or the interval would take it.
    first, rest = dec.intervals[0], dec.intervals[1:]
    assert first.end < len(seq) and seq.elems[first.end] != 0
    u = dec.uncovered
    return {
        "endpoint moved": dataclasses.replace(
            dec, intervals=(Interval(first.start, first.end - 1), *rest)),
        "interval dropped": dataclasses.replace(dec, intervals=rest),
        "coverage off by one": dataclasses.replace(dec, coverage=dec.coverage + 1),
        "uncovered position changed": dataclasses.replace(dec, uncovered=(u[0] + 1, *u[1:])),
        "product not the identity": dataclasses.replace(
            dec, intervals=(Interval(first.start, first.end + 1), *rest)),
    }


def test_verify_on_a_decomposed_sequence_matches_a_fresh_one():
    rng = np.random.default_rng(57)
    for spec in (sh.cyclic(17), sh.symmetric(5)):
        group = sh.build_group(spec)
        seq = sh.GradeSequence(group, rng.integers(0, group.order, size=5000))
        dec = sh.decompose_optimal(seq)
        assert dec.uncovered
        mutated = _mutated(seq, dec)
        for kind, bad in mutated.items():
            kept = sh.verify_decomposition(seq, bad)
            fresh = sh.verify_decomposition(sh.GradeSequence(group, seq.elems), bad)
            assert (kept.violations, kept.bound_ok) == (fresh.violations, fresh.bound_ok)
            assert not kept.ok, (group.order, kind)
        report = sh.verify_decomposition(seq, mutated["product not the identity"])
        assert any("product != identity" in v for v in report.violations)


@pytest.mark.parametrize("spec", [sh.cyclic(17), sh.symmetric(5), sh.symmetric(6)],
                         ids=["C17", "S5", "S6"])
def test_outputs_match_reference_before_and_after_f_is_kept(spec):
    rng = np.random.default_rng(61)
    group = sh.build_group(spec)
    for n in (0, 1, 1000, _BLOCK + 1, 150_000):
        elems = rng.integers(0, group.order, size=n)
        expected = _optimal_core_reference(group.cayley, elems)
        by_decompose = sh.GradeSequence(group, elems)
        by_verify = sh.GradeSequence(group, elems)
        assert by_decompose._prefix is None and by_verify._prefix is None
        dec = sh.decompose_optimal(by_decompose)
        assert (list(dec.intervals), dec.coverage) == expected, (group.order, n)
        report = sh.verify_decomposition(by_verify, dec)
        assert report.ok and report.bound_ok
        for seq in (by_decompose, by_verify):
            assert seq._prefix is not None
            assert sh.decompose_optimal(seq) == dec
            assert sh.verify_decomposition(seq, dec) == report


def test_lemma_bound_examples():
    assert sh.lemma_bound(100, 17) == 84
    assert sh.lemma_bound(0, 5) == 0
    assert sh.lemma_bound(4, 2) == 3
    assert sh.lemma_bound(1, 8) == 0
    with pytest.raises(ValueError, match="sequence length must be an integer >= 0, got -1"):
        sh.lemma_bound(-1, 2)
    with pytest.raises(ValueError, match="group order must be an integer >= 1, got 0"):
        sh.lemma_bound(1, 0)


def test_decompose_optimal_examples():
    dec = sh.decompose_optimal(_seq(sh.cyclic(2), [1, 1, 1, 0]))
    assert dec.intervals == (sh.Interval(2, 4),)
    assert dec.coverage == 3
    assert dec.uncovered == (1,)

    dec = sh.decompose_optimal(_seq(sh.cyclic(3), [1, 1]))
    assert dec.intervals == ()
    assert dec.coverage == 0
    assert dec.uncovered == (1, 2)

    for n in (1, 5, 12):
        dec = sh.decompose_optimal(_seq(sh.cyclic(4), [0] * n))
        assert dec.intervals == (sh.Interval(1, n),)
        assert dec.coverage == n
        assert dec.uncovered == ()


def test_decompose_optimal_empty():
    dec = sh.decompose_optimal(_seq(sh.cyclic(2), []))
    assert dec.intervals == () and dec.uncovered == () and dec.coverage == 0


def test_decompose_bruteforce_examples():
    assert decompose_bruteforce(_seq(sh.cyclic(2), [1, 1, 1, 0])).coverage == 3
    assert decompose_bruteforce(_seq(sh.cyclic(2), [1])).coverage == 0
    dec = decompose_bruteforce(_seq(sh.cyclic(3), [1, 2, 1, 2]))
    assert dec.coverage == 4
    assert dec.intervals == (sh.Interval(1, 2), sh.Interval(3, 4))


def test_bruteforce_rejects_large_input():
    with pytest.raises(ValueError, match="oracle limit exceeded"):
        decompose_bruteforce(_seq(sh.cyclic(2), [0] * 17))


def test_sequence_validates_elements():
    message = "sequence elements must be integers in [0,2], got 3 at position 2."
    with pytest.raises(ValueError, match=re.escape(message)):
        _seq(sh.cyclic(3), [0, 3])
    z2 = sh.build_group(sh.cyclic(2))
    for elems in (np.zeros((2, 2), dtype=np.int64), np.zeros(3)):
        with pytest.raises(ValueError, match="one-dimensional and integral"):
            sh.GradeSequence(z2, elems)
    message = "sequence elements must be integers in [0,1], got 5 at position 2."
    with pytest.raises(ValueError, match=re.escape(message)):
        sh.GradeSequence(z2, np.array([1, 5]))
    c17 = sh.build_group(sh.cyclic(17))
    for given, message in ((np.array([3, -2, 20], dtype=np.int8), "got -2 at position 2."),
                           (np.array([1, 2, 2 ** 64 - 1], dtype=np.uint64),
                            f"got {2 ** 64 - 1} at position 3.")):
        with pytest.raises(ValueError, match=re.escape(f"integers in [0,16], {message}")):
            sh.GradeSequence(c17, given)
    with pytest.raises(ValueError, match="no serializable spec"):
        sh.sequence_to_json(sh.GradeSequence(sh.FiniteGroup([[0]]), [0]))


@pytest.mark.parametrize("kind", ["int64", "int8", "uint64", "list"])
def test_sequence_keeps_a_read_only_int16_copy(kind):
    group = sh.build_group(sh.cyclic(17))
    n = 1000
    values = np.random.default_rng(5).integers(0, group.order, size=n)
    given = values.tolist() if kind == "list" else values.astype(kind)
    seq = sh.GradeSequence(group, given)
    assert seq.elems.dtype == group.cayley.dtype == np.int16
    assert not seq.elems.flags.writeable
    assert not np.shares_memory(seq.elems, given)
    assert seq.elems.nbytes == 2 * n
    assert seq.elems.tolist() == values.tolist()


def test_writes_to_the_given_array_do_not_reach_the_sequence():
    # The sequence is checked once, when it is built: a later write to the
    # caller's array must not change what decompose, verify or the JSON see.
    group = sh.build_group(sh.cyclic(17))
    a = np.array([1, 16, 0, 5])
    seq = sh.GradeSequence(group, a)
    dec = sh.decompose_optimal(seq)
    report = sh.verify_decomposition(seq, dec)
    doc = sh.sequence_to_json(seq)
    assert doc == {"group": {"cyclic": 17}, "elems": [1, 16, 0, 5]}
    a[1] = 20
    assert sh.decompose_optimal(seq) == dec
    assert sh.verify_decomposition(seq, dec) == report
    assert sh.sequence_to_json(seq) == doc


def test_oracle_equivalence_small_exhaustive():
    group = sh.build_group(sh.cyclic(2))
    for n in range(7):
        for elems in itertools.product(range(2), repeat=n):
            seq = sh.GradeSequence(group, list(elems))
            coverage = decompose_bruteforce(seq).coverage
            assert sh.decompose_optimal(seq).coverage == coverage
            assert _optimal_core(sh.prefix_products(seq), 2)[1] == coverage


def test_oracle_equivalence_random_nonabelian():
    group = sh.build_group(sh.symmetric(3))
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(0, ORACLE_LIMIT + 1)
        seq = sh.GradeSequence(group, [rng.randrange(6) for _ in range(n)])
        coverage = decompose_bruteforce(seq).coverage
        assert sh.decompose_optimal(seq).coverage == coverage
        assert _optimal_core(sh.prefix_products(seq), 6)[1] == coverage


def test_optimal_output_always_verifies():
    rng = random.Random(7)
    for spec in (sh.cyclic(4), sh.dihedral(3), sh.symmetric(3)):
        group = sh.build_group(spec)
        for _ in range(50):
            n = rng.randrange(0, 40)
            seq = sh.GradeSequence(group, [rng.randrange(group.order) for _ in range(n)])
            dec = sh.decompose_optimal(seq)
            rep = sh.verify_decomposition(seq, dec)
            assert rep.violations == ()
            assert rep.bound_ok


def test_verify_flags_bad_product():
    seq = _seq(sh.cyclic(2), [1, 0])
    dec = sh.Decomposition(intervals=(sh.Interval(1, 2),), uncovered=(), coverage=2)
    rep = sh.verify_decomposition(seq, dec)
    assert any("product != identity" in v for v in rep.violations)


def test_verify_flags_overlap():
    seq = _seq(sh.cyclic(2), [1, 1, 1, 1])
    dec = sh.Decomposition(
        intervals=(sh.Interval(1, 2), sh.Interval(2, 3)),
        uncovered=(4,),
        coverage=4,
    )
    rep = sh.verify_decomposition(seq, dec)
    assert any("overlap" in v for v in rep.violations)
    # A nested interval overlaps too; the complement is still that of the union.
    seq = _seq(sh.cyclic(2), [1, 1, 1, 1, 0, 0])
    dec = sh.Decomposition(
        intervals=(sh.Interval(1, 5), sh.Interval(2, 3)),
        uncovered=(6,),
        coverage=7,
    )
    rep = sh.verify_decomposition(seq, dec)
    assert rep.violations == ("intervals [1,5] and [2,3] overlap.",)


@pytest.mark.parametrize("intervals, n", [
    ((sh.Interval(3, 4), sh.Interval(1, 2)), 4),
    ((sh.Interval(1, 2), sh.Interval(5, 6), sh.Interval(3, 4)), 6),
], ids=["reversed", "middle"])
def test_verify_flags_unsorted_intervals(intervals, n):
    seq = _seq(sh.cyclic(2), [1] * n)
    rep = sh.verify_decomposition(seq, sh.Decomposition(intervals, (), n))
    assert rep.violations == ("intervals not sorted by start.",)


def test_verify_flags_out_of_range_and_miscount():
    seq = _seq(sh.cyclic(2), [0, 0])
    dec = sh.Decomposition(intervals=(sh.Interval(1, 5),), uncovered=(), coverage=3)
    rep = sh.verify_decomposition(seq, dec)
    assert any("out of range" in v for v in rep.violations)
    dec = sh.Decomposition(intervals=(sh.Interval(1, 2),), uncovered=(), coverage=1)
    rep = sh.verify_decomposition(seq, dec)
    assert any("coverage miscount" in v for v in rep.violations)


@pytest.mark.parametrize("intervals, uncovered, coverage", [
    ((sh.Interval(True, 2),), (3,), 2),
    ((sh.Interval(1.0, 2),), (3,), 2),
    ((sh.Interval(1, np.int64(2)),), (3,), 2),
    ((sh.Interval(1, 2),), (3,), 2.0),
    ((sh.Interval(1, 2),), (3,), np.int64(2)),
    ((sh.Interval(1, 2),), (3.0,), 2),
    ((sh.Interval(1, 2),), (np.int64(3),), 2),
], ids=["bool-start", "float-start", "numpy-end", "float-coverage", "numpy-coverage",
        "float-uncovered", "numpy-uncovered"])
def test_verify_flags_non_int_values(intervals, uncovered, coverage):
    # Each value equals the right int, but decomposition_from_json would
    # reject its type, and so does the check.
    seq = _seq(sh.cyclic(2), [1, 1, 0])
    rep = sh.verify_decomposition(seq, sh.Decomposition(intervals, uncovered, coverage))
    assert not rep.ok
    good = sh.Decomposition((sh.Interval(1, 2),), (3,), 2)
    assert sh.verify_decomposition(seq, good).violations == ()


@pytest.mark.parametrize("interval, message", [
    (sh.Interval(True, 2), "interval [True,2] out of range for n=3."),
    (sh.Interval(1, 5), "interval [1,5] out of range for n=3."),
])
def test_verify_reports_a_rejected_interval_once(interval, message):
    # The coverage and complement checks would only echo the same fault.
    seq = _seq(sh.cyclic(2), [1, 1, 0])
    rep = sh.verify_decomposition(seq, sh.Decomposition((interval,), (3,), 2))
    assert rep.violations == (message,)
    assert rep.bound_ok


@pytest.mark.parametrize("intervals, uncovered, message", [
    (((1, 2, 3),), (3,), "interval (1, 2, 3) is not a pair of endpoints."),
    (((2,),), (3,), "interval (2,) is not a pair of endpoints."),
    ((None,), (3,), "interval None is not a pair of endpoints."),
    ((sh.Interval(1, 2),), None, "uncovered positions must be a list, got None."),
    ((sh.Interval(1, 2),), 5, "uncovered positions must be a list, got 5."),
    (None, (3,), "intervals must be a list, got None."),
], ids=["triple", "single", "none", "uncovered-none", "uncovered-int", "intervals-none"])
def test_verify_reports_a_malformed_entry_once(intervals, uncovered, message):
    # Not a pair, or positions that are not a list: one violation, which the
    # coverage and complement checks skip, as for a non-int endpoint.
    seq = _seq(sh.cyclic(2), [1, 1, 0])
    rep = sh.verify_decomposition(seq, sh.Decomposition(intervals, uncovered, 2))
    assert rep.violations == (message,)
    assert rep.bound_ok


def test_decompose_returns_plain_ints():
    # Numpy elements, prefix products and scans must not leak into the result.
    group = sh.build_group(sh.symmetric(3))
    rng = np.random.default_rng(5)
    for n in (300 * group.order - 1, 300 * group.order):
        seq = sh.GradeSequence(group, rng.integers(0, 6, size=n))
        dec = sh.decompose_optimal(seq)
        values = [dec.coverage, *dec.uncovered, *(p for iv in dec.intervals for p in iv)]
        assert dec.intervals and all(type(v) is int for v in values)
        assert (list(dec.intervals), dec.coverage) == \
            _optimal_core_reference(group.cayley, seq.elems), n


def test_verify_flags_wrong_complement():
    seq = _seq(sh.cyclic(2), [0, 1])
    dec = sh.Decomposition(intervals=(sh.Interval(1, 1),), uncovered=(), coverage=1)
    rep = sh.verify_decomposition(seq, dec)
    assert any("complement" in v for v in rep.violations)


def test_coverage_superadditive_under_concatenation():
    group = sh.build_group(sh.cyclic(4))
    rng = random.Random(11)
    for _ in range(60):
        s1 = [rng.randrange(4) for _ in range(rng.randrange(0, 25))]
        s2 = [rng.randrange(4) for _ in range(rng.randrange(0, 25))]
        c1 = sh.decompose_optimal(sh.GradeSequence(group, s1)).coverage
        c2 = sh.decompose_optimal(sh.GradeSequence(group, s2)).coverage
        c12 = sh.decompose_optimal(sh.GradeSequence(group, s1 + s2)).coverage
        assert c12 >= c1 + c2


def test_deterministic_tie_breaking():
    # A tie between skipping and closing an interval is resolved toward the
    # interval, and among equal interval starts the earliest wins.
    seq = _seq(sh.cyclic(2), [0, 0, 1, 1, 0])
    dec = sh.decompose_optimal(seq)
    assert dec == sh.decompose_optimal(seq)
    assert dec.intervals == (sh.Interval(1, 5),)
    # All-identity runs come back as one interval, not many.
    seq = _seq(sh.cyclic(3), [0, 0, 0])
    assert sh.decompose_optimal(seq).intervals == (sh.Interval(1, 3),)


def test_vectorized_path_matches_reference_exactly():
    # Short inputs, whose first chunks go to the settle loop.
    rng = random.Random(5)
    specs = (
        sh.cyclic(17), sh.symmetric(3), sh.dihedral(4),
        sh.product(sh.cyclic(4), sh.cyclic(4)), sh.symmetric(5),
    )
    for spec in specs:
        group = sh.build_group(spec)
        for _ in range(40):
            n = rng.randrange(0, 600)
            seq = sh.GradeSequence(group, [rng.randrange(group.order) for _ in range(n)])
            expected = _optimal_core_reference(group.cayley, seq.elems)
            assert _optimal_core(sh.prefix_products(seq), group.order) == expected
            dec = sh.decompose_optimal(seq)
            assert (list(dec.intervals), dec.coverage) == expected


def _structured_sequences(group, rng, n):
    # Inputs whose events come in bursts, runs and long quiet stretches.
    m = group.order
    g = rng.randrange(1, m)
    g_inv = group.inverse(g)
    rand = [rng.randrange(m) for _ in range(n)]
    runs = []
    while len(runs) < n:
        runs += [0] * int(10 ** rng.uniform(0, 3.7))  # up to about 5000
        runs += [rng.randrange(m) for _ in range(rng.randrange(1, 50))]
    cut = rng.randrange(n + 1)
    return {
        "random": rand,
        "identity runs": runs[:n],
        "one generator": [g] * n,
        "random then constant": rand[:cut] + [g] * (n - cut),
        "g, g^-1": [g, g_inv] * (n // 2) + [g] * (n % 2),
    }


def test_vectorized_core_restarts_match_reference():
    rng = random.Random(17)
    for spec in (sh.symmetric(5), sh.symmetric(6)):
        group = sh.build_group(spec)
        for n in (1, 64, 65, 255, 256, 257, 4097, 20_000, 200_000,
                  rng.randrange(600, 20_000)):
            for kind, elems in _structured_sequences(group, rng, n).items():
                seq = sh.GradeSequence(group, elems)
                expected = _optimal_core_reference(group.cayley, elems)
                assert _optimal_core(sh.prefix_products(seq), group.order) == \
                    expected, (group.order, n, kind)
                dec = sh.decompose_optimal(seq)
                assert (list(dec.intervals), dec.coverage) == expected, \
                    (group.order, n, kind)


def test_vectorized_core_matches_reference_as_events_thin_out():
    # Over S6 and C4096 a random sequence raises best[] entries densely at
    # first, in bursts the short chunks settle, and sparsely later, where
    # long vector scans run.
    rng = np.random.default_rng(23)
    for spec in (sh.symmetric(6), sh.cyclic(4096)):
        group = sh.build_group(spec)
        for n in (3000, 50_000, 200_000):
            seq = sh.GradeSequence(group, rng.integers(0, group.order, size=n))
            assert _optimal_core(sh.prefix_products(seq), group.order) == \
                _optimal_core_reference(group.cayley, seq.elems), (group.order, n)


def test_vector_scan_carries_most_positions(monkeypatch):
    # A gather array that falls behind best[] gives the right intervals but
    # makes every stale entry look like an event, so the scan hands nearly
    # every position to the settle loop.  Random C17 and S6 sequences of 10^6
    # elements settle about 0.1 % and 8 % of their positions.
    settled = 0

    def counting_settle(values, *args):
        nonlocal settled
        settled += len(values)
        return _settle(values, *args)

    monkeypatch.setattr("shirshov.intervals._settle", counting_settle)
    rng = np.random.default_rng(47)
    n = 10 ** 6
    for spec, share in ((sh.cyclic(17), 0.01), (sh.symmetric(6), 0.15)):
        group = sh.build_group(spec)
        seq = sh.GradeSequence(group, rng.integers(0, group.order, size=n))
        settled = 0
        sh.decompose_optimal(seq)
        assert settled <= share * n, (group.order, settled)


def test_core_restarts_after_an_event_late_in_a_full_chunk():
    # Over C3, g_1 = 1 and g_e = 1 are the only events.  Quiet chunks double
    # from 256 until a chunk of _BLOCK positions starts at _BLOCK + 1; the
    # event at e lies past its middle, so twice the scanned gap is longer
    # than _BLOCK, and the restart chunk must still be capped there.
    group = sh.build_group(sh.cyclic(3))
    e = _BLOCK + 1 + _BLOCK // 2 + 10
    n = e + _BLOCK + 100
    elems = np.zeros(n, dtype=np.int64)
    elems[0] = elems[e - 1] = 1
    seq = sh.GradeSequence(group, elems)
    expected = ([Interval(2, e - 1), Interval(e + 1, n)], n - 2)
    assert _optimal_core_reference(group.cayley, elems) == expected
    assert _optimal_core(sh.prefix_products(seq), 3) == expected
    dec = sh.decompose_optimal(seq)
    assert (list(dec.intervals), dec.coverage) == expected


# Over C5, g_1 = 1 raises best[1] to -1 and g_2 = 4 brings f back to e; every
# other element is e unless placed.  The first chunk [1, 256] has an event and
# the second, [257, 512], is quiet, so the first vector chunk is [513, 1024]
# and, if that one is quiet too, the next is [1025, 2048].
@pytest.mark.parametrize("placed, n, scanned, singles", [
    # An event at offset 0 of a vector chunk, b[0] < phi(start - 1) - 1.
    ({513: 2}, 3000, range(513, 513), [513]),
    ({1025: 2}, 3000, range(513, 1025), [1025]),
    # f(i) = 1 with best[1] = phi(i - 1) - 1 ties skipping i with closing
    # [2, i], so b[k] = b[k - 1] (or b[0] = phi(start - 1) - 1): not an event.
    ({513: 1, 514: 4}, 3000, range(513, 3001), []),
    ({600: 1, 601: 4}, 3000, range(513, 3001), []),
    # An event at the chunk's last position, b[511] < b[510].
    ({1024: 2}, 3000, range(513, 1024), [1024]),
    # The sequence ends inside the vector chunk [513, 900]: quiet, with an
    # event at n, and with an event before it.
    ({}, 900, range(513, 901), []),
    ({900: 2}, 900, range(513, 900), [900]),
    ({700: 2}, 900, range(513, 700), [700]),
], ids=["event-at-offset-0", "event-at-offset-0-after-a-quiet-chunk", "tie-at-offset-0",
        "tie-inside", "event-at-last-position", "ends-inside-quiet", "ends-inside-event-at-n",
        "ends-inside-event-before-n"])
def test_descent_test_at_chunk_edges(monkeypatch, placed, n, scanned, singles):
    # The vector branch hands each event to _settle alone; a scalar chunk
    # before n is at least 64 positions long.  So a one-value call before n
    # is an event the descent test found, and a position no call settles was
    # scanned by the vector branch.
    calls = []

    def recording_settle(values, start, *args):
        calls.append((start, len(values)))
        return _settle(values, start, *args)

    monkeypatch.setattr("shirshov.intervals._settle", recording_settle)
    group = sh.build_group(sh.cyclic(5))
    elems = np.zeros(n, dtype=np.int64)
    elems[0], elems[1] = 1, 4
    for pos, g in placed.items():
        elems[pos - 1] = g
    seq = sh.GradeSequence(group, elems)
    got = _optimal_core(sh.prefix_products(seq), 5)
    assert got == _optimal_core_reference(group.cayley, elems)
    assert calls[:2] == [(1, 256), (257, 256)]
    settled = {p for start, k in calls for p in range(start, start + k)}
    assert settled.isdisjoint(scanned)
    assert [start for start, k in calls if k == 1] == singles


def test_interval_kernels_working_memory_is_bounded():
    # Beside the n + 1 int16 prefix products, decompose and verify allocate
    # only per-block temporaries, not arrays in proportion to n.  Each call
    # gets a fresh sequence, built outside the traced region, so it computes
    # f itself instead of reading the one the sequence keeps.
    rng = np.random.default_rng(43)
    n = 10 ** 6
    limit = (n + 1) * 2 + (2 << 20)
    for spec in (sh.cyclic(17), sh.symmetric(6)):
        group = sh.build_group(spec)
        elems = rng.integers(0, group.order, size=n)
        dec = sh.decompose_optimal(sh.GradeSequence(group, elems))
        for call in (sh.decompose_optimal, lambda seq: sh.verify_decomposition(seq, dec)):
            seq = sh.GradeSequence(group, elems)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call(seq)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert seq._prefix is not None
            assert peak <= limit, (group.order, peak, limit)


def test_decompose_matches_reference_at_300_times_the_order():
    rng = np.random.default_rng(19)
    for spec in (sh.symmetric(3), sh.cyclic(17), sh.symmetric(5), sh.symmetric(6)):
        group = sh.build_group(spec)
        for n in (300 * group.order - 1, 300 * group.order, 299 * group.order):
            seq = sh.GradeSequence(group, rng.integers(0, group.order, size=n))
            ivs, cov = _optimal_core_reference(group.cayley, seq.elems)
            assert _optimal_core(sh.prefix_products(seq), group.order) == (ivs, cov)
            dec = sh.decompose_optimal(seq)
            assert (list(dec.intervals), dec.coverage) == (ivs, cov), (group.order, n)


def test_decompose_matches_reference_on_numpy_input():
    rng = np.random.default_rng(2)
    for spec, n in ((sh.cyclic(5), 6000), (sh.symmetric(3), 7000)):
        group = sh.build_group(spec)
        elems = rng.integers(0, group.order, size=n)
        seq = sh.GradeSequence(group, elems)
        dec = sh.decompose_optimal(seq)
        ivs, cov = _optimal_core_reference(group.cayley, [int(x) for x in elems])
        assert dec.coverage == cov
        assert list(dec.intervals) == ivs
        assert sh.verify_decomposition(seq, dec).violations == ()


def test_decompose_never_returns_adjacent_intervals():
    rng = random.Random(29)
    for spec in (sh.symmetric(5), sh.symmetric(6)):
        group = sh.build_group(spec)
        for n in (rng.randrange(600, 20_000), 300 * group.order + rng.randrange(1000)):
            for kind, elems in _structured_sequences(group, rng, n).items():
                dec = sh.decompose_optimal(sh.GradeSequence(group, elems))
                ivs = dec.intervals
                assert all(cur.start > prev.end + 1 for prev, cur in zip(ivs, ivs[1:])), \
                    (group.order, n, kind)
                assert (list(ivs), dec.coverage) == \
                    _optimal_core_reference(group.cayley, elems), (group.order, n, kind)


def test_numpy_inputs_accepted():
    group = sh.build_group(sh.cyclic(3))
    seq = sh.GradeSequence(group, np.array([1, 1, 1], dtype=np.int64))
    assert sh.decompose_optimal(seq).coverage == 3


def test_sequence_json_round_trip():
    doc = {"group": {"cyclic": 3}, "elems": [1, 2, 0, 1]}
    seq = sh.sequence_from_json(doc)
    assert sh.sequence_to_json(seq) == doc
    with pytest.raises(ValueError):
        sh.sequence_from_json({"group": {"cyclic": 3}})
    with pytest.raises(ValueError):
        sh.sequence_from_json({"group": {"cyclic": 3}, "elems": "nope"})


def test_decomposition_json_round_trip():
    dec = sh.decompose_optimal(_seq(sh.cyclic(2), [1, 1, 1, 0]))
    doc = sh.decomposition_to_json(dec)
    assert doc == {"intervals": [[2, 4]], "uncovered": [1], "coverage": 3}
    assert sh.decomposition_from_json(doc) == dec
    with pytest.raises(ValueError):
        sh.decomposition_from_json({"intervals": [[1]], "uncovered": [], "coverage": 0})


@pytest.mark.parametrize("doc", [
    {"intervals": [[True, 2]], "uncovered": [], "coverage": 2},
    {"intervals": [[1, 2]], "uncovered": [False], "coverage": 2},
    {"intervals": [], "uncovered": [], "coverage": False},
], ids=["interval-bool", "uncovered-bool", "coverage-bool"])
def test_decomposition_json_rejects_booleans(doc):
    with pytest.raises(ValueError):
        sh.decomposition_from_json(doc)
