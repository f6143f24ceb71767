"""Factorization of graded words into identity-grade and leftover segments."""

import copy
import dataclasses
import random
import re

import numpy as np
import pytest

import shirshov as sh
from shirshov import intervals, words
from shirshov.words import _grade_sequence

from fixture_algebras import z2_alphabet


def test_alphabet_validation():
    group = sh.build_group(sh.cyclic(2))
    with pytest.raises(ValueError, match="at least one generator"):
        sh.GradedAlphabet(group, [])
    with pytest.raises(ValueError, match="duplicate generator"):
        sh.GradedAlphabet(group, [("x", 0), ("x", 1)])
    with pytest.raises(ValueError, match=r"grade of 'x' must be an integer in \[0,1\], got 2"):
        sh.GradedAlphabet(group, [("x", 2)])
    with pytest.raises(ValueError, match="symbols must be nonempty"):
        sh.GradedAlphabet(group, [("x", 0), ("", 1)])
    alpha = z2_alphabet()
    assert alpha.symbols == ("x", "y")
    with pytest.raises(ValueError, match="unknown symbol"):
        alpha.grade("z")
    with pytest.raises(ValueError, match="unknown symbol 'z'"):
        sh.grade_of(alpha, ("x", "z"))
    with pytest.raises(ValueError, match="no serializable spec"):
        sh.alphabet_to_json(sh.GradedAlphabet(sh.FiniteGroup([[0]]), [("x", 0)]))



def test_alphabet_reads_each_generator_as_a_pair():
    group = sh.build_group(sh.cyclic(2))
    for generators, message in ((None, "generators must be a list of pairs, got None."),
                                ("xy", "generators must be a list of pairs, got 'xy'."),
                                ([5], "generator must be a (symbol, grade) pair, got 5."),
                                ([("x",)], "generator must be a (symbol, grade) pair, got ('x',)."),
                                ([("x", 0), ("y", 1, 2)],
                                 "generator must be a (symbol, grade) pair, got ('y', 1, 2).")):
        with pytest.raises(ValueError, match=re.escape(message)):
            sh.GradedAlphabet(group, generators)
    assert sh.GradedAlphabet(group, (["x", 1], ("y", 0))).generators == (("x", 1), ("y", 0))


def test_grade_of_examples():
    alpha = z2_alphabet()
    assert sh.grade_of(alpha, ("x", "x", "y")) == 0
    assert sh.grade_of(alpha, ()) == 0
    assert sh.grade_of(alpha, ("x", "y")) == 1


def test_grade_sequence_is_int16():
    # A word's grades are filled in the table's dtype, 2 bytes per letter.
    seq = _grade_sequence(z2_alphabet(), ("x", "y", "x", "x"))
    assert seq.elems.dtype == np.int16 and seq.elems.tolist() == [1, 0, 1, 1]
    f = sh.prefix_products(seq)
    assert f.dtype == np.int16 and f.tolist() == [0, 1, 1, 0, 1]


def test_factorize_main_example():
    fact = sh.factorize(z2_alphabet(), ("x", "x", "x", "y"))
    assert [(s.tag, s.start, s.end) for s in fact.segments] == \
        [("Y", 1, 1), ("A", 2, 4)]
    assert fact.k == 1
    assert fact.y_total == 1


def test_factorize_all_identity_grades():
    alpha = z2_alphabet()
    fact = sh.factorize(alpha, ("y",) * 6)
    assert [(s.tag, s.start, s.end) for s in fact.segments] == [("A", 1, 6)]
    assert fact.k == 1 and fact.y_total == 0
    assert sh.power_count(fact, 5) == 5


def test_factorize_all_leftover():
    group = sh.build_group(sh.cyclic(3))
    alpha = sh.GradedAlphabet(group, [("u", 1)])
    fact = sh.factorize(alpha, ("u", "u"))
    assert [(s.tag, s.start, s.end) for s in fact.segments] == [("Y", 1, 2)]
    assert fact.k == 0 and fact.y_total == 2
    assert sh.power_count(fact, 2) == 2


def test_factorize_empty_word():
    fact = sh.factorize(z2_alphabet(), ())
    assert fact.segments == ()
    assert fact.k == 0 and fact.y_total == 0


def test_factorize_inputs_and_unknown_symbol():
    # 10^5 letters over S3 take the vectorized core.  A list and a tuple give
    # the same factorization, and an unknown symbol, even the last of 10^5
    # letters, raises the same error as alphabet.grade.
    rng = random.Random(29)
    alpha = sh.GradedAlphabet(sh.build_group(sh.symmetric(3)),
                              [(f"a{k}", k) for k in range(6)])
    for n in (0, 7, 100_000):
        word = [f"a{rng.randrange(6)}" for _ in range(n)]
        fact = sh.factorize(alpha, tuple(word))
        assert sh.factorize(alpha, word) == fact
        assert sh.verify_factorization(alpha, word, fact).ok
        assert (fact.segments == ()) == (n == 0)
        with pytest.raises(ValueError) as expected:
            alpha.grade("zz")
        with pytest.raises(ValueError) as got:
            sh.factorize(alpha, word + ["zz"])
        assert str(got.value) == str(expected.value)


def test_factorize_merges_adjacent_intervals():
    # Grades 0,0,1,1 have adjacent identity-product intervals; the optimal
    # decomposition takes the whole word, so one A-segment comes back.
    fact = sh.factorize(z2_alphabet(), ("y", "y", "x", "x"))
    assert [(s.tag, s.start, s.end) for s in fact.segments] == [("A", 1, 4)]
    assert fact.k == 1


def test_factorize_a_segments_are_the_decomposition_intervals():
    # Short words, settled in one chunk, and long ones that reach the numpy scans.
    rng = random.Random(41)
    for spec, sizes in ((sh.symmetric(3), (60, 7000)), (sh.cyclic(5), (40, 6000))):
        group = sh.build_group(spec)
        alpha = sh.GradedAlphabet(group, [(f"g{k}", k) for k in range(group.order)])
        for _ in range(20):
            grades = [rng.randrange(group.order) for _ in range(rng.choice(sizes))]
            fact = sh.factorize(alpha, [f"g{k}" for k in grades])
            dec = sh.decompose_optimal(sh.GradeSequence(group, grades))
            assert [(s.start, s.end) for s in fact.segments if s.tag == "A"] == \
                [tuple(iv) for iv in dec.intervals]


def test_power_count_examples():
    fact = sh.factorize(z2_alphabet(), ("x", "x", "x", "y"))
    assert sh.power_count(fact, 2) == 3
    with pytest.raises(ValueError):
        sh.power_count(fact, 0)


def test_height_bound_examples():
    assert sh.height_bound(2, 2) == 5
    for h in (1, 3, 9):
        assert sh.height_bound(h, 1) == h
    assert sh.height_bound(1, 6) == 11
    with pytest.raises(ValueError):
        sh.height_bound(0, 3)
    with pytest.raises(ValueError):
        sh.height_bound(1, 0)


def test_verify_factorization_clean_on_factorize_output():
    rng = random.Random(23)
    group = sh.build_group(sh.dihedral(3))
    alpha = sh.GradedAlphabet(
        group, [(f"s{k}", rng.randrange(group.order)) for k in range(4)]
    )
    for _ in range(100):
        word = tuple(f"s{rng.randrange(4)}" for _ in range(rng.randrange(0, 60)))
        fact = sh.factorize(alpha, word)
        rep = sh.verify_factorization(alpha, word, fact)
        assert rep.ok, rep.violations


def _count_reads(monkeypatch) -> dict:
    # Grade reads of a word, and prefix scans that compute f (a call that
    # returns a sequence's kept f is not a scan).
    counts = {"reads": 0, "scans": 0}
    read, scan = words._grade_sequence, intervals.prefix_products

    def counted_read(*args):
        counts["reads"] += 1
        return read(*args)

    def counted_scan(seq):
        counts["scans"] += seq._prefix is None
        return scan(seq)

    monkeypatch.setattr(words, "_grade_sequence", counted_read)
    monkeypatch.setattr(words, "prefix_products", counted_scan)
    monkeypatch.setattr(intervals, "prefix_products", counted_scan)
    return counts


def _s3_word(n, seed):
    group = sh.build_group(sh.symmetric(3))
    alpha = sh.GradedAlphabet(group, [(f"g{k}", k) for k in range(group.order)])
    rng = random.Random(seed)
    return alpha, tuple(f"g{rng.randrange(group.order)}" for _ in range(n))


def test_verify_reuses_the_grades_factorize_read(monkeypatch):
    alpha, word = _s3_word(500, 61)
    fresh = sh.verify_factorization(alpha, list(word), sh.factorize(alpha, list(word)))
    counts = _count_reads(monkeypatch)
    fact = sh.factorize(alpha, word)
    assert sh.verify_factorization(alpha, word, fact) == fresh
    assert counts == {"reads": 1, "scans": 1}
    assert sh.verify_factorization(alpha, word, fact) == fresh
    assert counts == {"reads": 1, "scans": 1}
    # The held f leaves equality, hashing, repr and JSON as they were.
    plain = sh.Factorization(fact.segments)
    assert fact == plain and hash(fact) == hash(plain) and repr(fact) == repr(plain)
    assert sh.factorization_to_json(fact) == sh.factorization_to_json(plain)


def _regraded(alpha):
    # alpha with its group rebound to an equal group that is another object.
    alpha.group = sh.build_group(alpha.group.spec)
    return alpha


@pytest.mark.parametrize("case", ["list", "equal-tuple", "other-alphabet", "rebound-group",
                                  "json", "replace", "constructor", "factorize-twice"])
def test_verify_reads_afresh_unless_given_what_factorize_read(monkeypatch, case):
    alpha, word = _s3_word(500, 67)
    given = list(word) if case == "list" else word
    fresh = sh.verify_factorization(alpha, list(word), sh.factorize(alpha, list(word)))
    counts = _count_reads(monkeypatch)
    fact = sh.factorize(alpha, given)
    assert (fact._read is None) == (case == "list")
    fact = {"json": lambda: sh.factorization_from_json(sh.factorization_to_json(fact)),
            "replace": lambda: dataclasses.replace(fact),
            "constructor": lambda: sh.Factorization(fact.segments),
            "factorize-twice": lambda: sh.factorize(alpha, word)}.get(case, lambda: fact)()
    checked_word = tuple(list(word)) if case == "equal-tuple" else given
    checked_alpha = {"other-alphabet": lambda: sh.GradedAlphabet(alpha.group, alpha.generators),
                     "rebound-group": lambda: _regraded(alpha)}.get(case, lambda: alpha)()
    assert sh.verify_factorization(checked_alpha, checked_word, fact) == fresh
    assert counts == {"reads": 2, "scans": 2}


def _forged(fact, segments):
    # fact's segments replaced, keeping the f that factorize attached, as a
    # certificate altered after factorize returned it would be.
    out = copy.copy(fact)
    object.__setattr__(out, "segments", tuple(segments))
    return out


def test_reused_and_fresh_reports_agree_on_genuine_and_mutated_certificates(monkeypatch):
    rng = random.Random(71)
    counts = _count_reads(monkeypatch)
    flagged = mutated = 0
    for spec in (sh.symmetric(3), sh.cyclic(17), sh.dihedral(4)):
        group = sh.build_group(spec)
        alpha = sh.GradedAlphabet(group, [(f"a{k}", rng.randrange(group.order))
                                          for k in range(rng.randrange(1, 6))])
        for _ in range(40):
            word = tuple(rng.choice(alpha.symbols) for _ in range(rng.randrange(0, 301)))
            fact = sh.factorize(alpha, word)
            segs = list(fact.segments)
            mutants = [segs]
            a_at = [i for i, s in enumerate(segs) if s.tag == "A"]
            if a_at:
                i = rng.choice(a_at)
                tag, a, b = segs[i]
                steps = [d for d in (-1, 1) if a <= b + d <= len(word)]
                if steps:
                    moved = sh.Segment(tag, a, b + rng.choice(steps))
                    mutants.append(segs[:i] + [moved] + segs[i + 1:])
                if b > a:
                    c = rng.randrange(a, b)
                    mutants.append(segs[:i] + [sh.Segment("A", a, c), sh.Segment("A", c + 1, b)]
                                   + segs[i + 1:])
            if segs:
                i = rng.randrange(len(segs))
                flip = segs[i]._replace(tag="Y" if segs[i].tag == "A" else "A")
                mutants.append(segs[:i] + [flip] + segs[i + 1:])
            for mutant in mutants:
                reads = counts["reads"]
                reused = sh.verify_factorization(alpha, word, _forged(fact, mutant))
                assert counts["reads"] == reads
                fresh = sh.verify_factorization(alpha, list(word), sh.Factorization(tuple(mutant)))
                assert counts["reads"] == reads + 1
                assert reused == fresh
                if mutant is segs:
                    assert reused.ok, reused.violations
                else:
                    mutated += 1
                    flagged += not reused.ok
    # Every mutant drawn here breaks an invariant, so the reused f is shown
    # to find violations, not only to pass genuine certificates.
    assert flagged == mutated > 300


def test_verify_flags_bad_a_segment_grade():
    alpha = z2_alphabet()
    word = ("x", "y")
    fact = sh.Factorization(segments=(sh.Segment("A", 1, 2),))
    rep = sh.verify_factorization(alpha, word, fact)
    assert any("not the identity" in v for v in rep.violations)


def test_verify_names_the_grade_of_a_bad_a_segment():
    group = sh.build_group(sh.symmetric(3))
    alpha = sh.GradedAlphabet(group, [(f"g{k}", k) for k in range(group.order)])
    rng = random.Random(3)
    for _ in range(50):
        word = tuple(f"g{rng.randrange(group.order)}" for _ in range(rng.randrange(2, 12)))
        a = rng.randrange(1, len(word) + 1)
        segments = [sh.Segment("A", a, len(word))]
        if a > 1:
            segments.insert(0, sh.Segment("Y", 1, a - 1))
        rep = sh.verify_factorization(alpha, word, sh.Factorization(tuple(segments)))
        g = sh.grade_of(alpha, word[a - 1 :])
        bad = [v for v in rep.violations if v.startswith("A-segment")]
        if g == 0:
            assert bad == []
        else:
            assert bad == [f"A-segment [{a},{len(word)}] has grade "
                           f"{group.name_of(g)}, not the identity."]


def test_verify_rejects_unknown_symbols_like_factorize():
    # The unknown letter sits in a Y-segment, which no grade check reads.
    alpha = z2_alphabet()
    word = ("w", "y")
    fact = sh.Factorization(segments=(sh.Segment("Y", 1, 1), sh.Segment("A", 2, 2)))
    with pytest.raises(ValueError) as expected:
        sh.factorize(alpha, word)
    with pytest.raises(ValueError) as got:
        sh.verify_factorization(alpha, word, fact)
    assert str(got.value) == str(expected.value) == "unknown symbol 'w'."


def test_verify_flags_unmerged_a_segments():
    alpha = z2_alphabet()
    word = ("y", "y")
    fact = sh.Factorization(segments=(sh.Segment("A", 1, 1), sh.Segment("A", 2, 2)))
    rep = sh.verify_factorization(alpha, word, fact)
    assert any("not merged" in v for v in rep.violations)


@pytest.mark.parametrize("segments, violations", [
    ((sh.Segment("B", 1, 2),), ('segment tag \'B\' is not "A" or "Y".',)),
    ((sh.Segment("Y", 1, 1), sh.Segment("A", 3, 3)),
     ("segment [3,3] breaks the partition of [1,3].",)),
    ((sh.Segment("A", 1, 1), sh.Segment("A", 2, 2), sh.Segment("A", 3, 3)),
     ("adjacent A-segments [1,1] and [2,2] are not merged.",
      "adjacent A-segments [2,2] and [3,3] are not merged.",
      "3 A-segments, more than |G|=2.")),
], ids=["bad-tag", "gap", "too-many-a"])
def test_verify_factorization_violations(segments, violations):
    rep = sh.verify_factorization(z2_alphabet(), ("y", "y", "y"), sh.Factorization(segments))
    assert rep.violations == violations


def test_verify_adjacent_segment_messages():
    alpha = z2_alphabet()
    word = ("y", "y", "x", "y")
    fact = sh.Factorization(segments=(
        sh.Segment("A", 1, 1), sh.Segment("A", 2, 2),
        sh.Segment("Y", 3, 3), sh.Segment("Y", 4, 4),
    ))
    rep = sh.verify_factorization(alpha, word, fact)
    assert [v for v in rep.violations if "not merged" in v] == [
        "adjacent A-segments [1,1] and [2,2] are not merged.",
        "adjacent Y-segments [3,3] and [4,4] are not merged.",
    ]


@pytest.mark.parametrize("segments, bad", [
    ((sh.Segment("A", True, 3),), "[True,3]"),
    ((sh.Segment("A", 1.0, 3.0),), "[1.0,3.0]"),
    ((sh.Segment("A", np.int64(1), 3),), f"[{np.int64(1)!r},3]"),
    ((sh.Segment("A", "a", 3),), "['a',3]"),
    ((sh.Segment("A", 1, None),), "[1,None]"),
    ((sh.Segment("Y", 1, 1), sh.Segment("A", 2.0, 3)), "[2.0,3]"),
], ids=["bool-start", "float-span", "numpy-start", "str-start", "none-end", "float-after-y"])
def test_verify_reports_a_non_int_endpoint_once(segments, bad):
    # factorization_from_json would reject each of these; the verifier
    # reports the segment once and runs no other check on it.
    alpha = z2_alphabet()
    word = ("x", "x", "y")
    rep = sh.verify_factorization(alpha, word, sh.Factorization(segments))
    assert rep.violations == (f"segment {bad} has an endpoint that is not an int.",)
    good = sh.Factorization((sh.Segment("A", 1, 3),))
    assert sh.verify_factorization(alpha, word, good).violations == ()


@pytest.mark.parametrize("segments, bad", [
    ((("A", 1, 2, 3),), "('A', 1, 2, 3)"),
    ((None,), "None"),
    ((sh.Segment("A", 1, 3), None), "None"),
    ((sh.Segment("Y", 1, 1), ("A", 2)), "('A', 2)"),
], ids=["four-entries", "none", "none-after-a", "pair-after-y"])
def test_verify_reports_a_malformed_segment_once(segments, bad):
    # A segment that is not a (tag, start, end) triple is one violation, as
    # a non-int endpoint is, and no other check reads it.
    alpha = z2_alphabet()
    word = ("x", "x", "y")
    rep = sh.verify_factorization(alpha, word, sh.Factorization(segments))
    assert rep.violations == (f"segment {bad} is not a (tag, start, end) triple.",)


def test_verify_reports_segments_that_are_not_a_list():
    rep = sh.verify_factorization(z2_alphabet(), ("x", "x"), sh.Factorization(None))
    assert rep.violations == ("segments must be a list, got None.",)


def test_verify_flags_partition_gap():
    alpha = z2_alphabet()
    word = ("y", "y", "y")
    fact = sh.Factorization(segments=(sh.Segment("A", 1, 2),))
    rep = sh.verify_factorization(alpha, word, fact)
    assert not rep.ok


def test_segments_partition_word_in_order():
    rng = random.Random(5)
    group = sh.build_group(sh.product(sh.cyclic(2), sh.cyclic(4)))
    alpha = sh.GradedAlphabet(
        group, [(f"t{k}", rng.randrange(group.order)) for k in range(3)]
    )
    for _ in range(80):
        word = tuple(f"t{rng.randrange(3)}" for _ in range(rng.randrange(0, 80)))
        fact = sh.factorize(alpha, word)
        spans = [(s.start, s.end) for s in fact.segments]
        pos = 1
        for a, b in spans:
            assert a == pos and b >= a
            pos = b + 1
        assert pos == len(word) + 1
        tags = [s.tag for s in fact.segments]
        for t1, t2 in zip(tags, tags[1:]):
            assert t1 != t2  # strict alternation


def test_structure_depends_only_on_grades():
    group = sh.build_group(sh.cyclic(3))
    a1 = sh.GradedAlphabet(group, [("x", 1), ("y", 2)])
    a2 = sh.GradedAlphabet(group, [("p", 1), ("q", 2)])
    w1 = ("x", "y", "x", "x", "y")
    w2 = ("p", "q", "p", "p", "q")
    f1 = sh.factorize(a1, w1)
    f2 = sh.factorize(a2, w2)
    assert f1.segments == f2.segments


def test_invariants_random_small_groups():
    rng = random.Random(97)
    specs = [sh.cyclic(k) for k in range(1, 9)] + [sh.dihedral(3), sh.symmetric(3)]
    groups = [sh.build_group(s) for s in specs]
    for _ in range(300):
        group = rng.choice(groups)
        m = group.order
        nsym = rng.randrange(1, 5)
        alpha = sh.GradedAlphabet(
            group, [(f"a{k}", rng.randrange(m)) for k in range(nsym)]
        )
        word = tuple(f"a{rng.randrange(nsym)}" for _ in range(rng.randrange(0, 100)))
        fact = sh.factorize(alpha, word)
        assert sh.verify_factorization(alpha, word, fact).ok
        assert fact.y_total <= m - 1
        assert fact.k <= m
        for h in (1, 2, 3):
            assert sh.power_count(fact, h) <= sh.height_bound(h, m)


def test_alphabet_json_round_trip():
    doc = {
        "group": {"cyclic": 2},
        "generators": [{"sym": "x", "grade": 1}, {"sym": "y", "grade": 0}],
    }
    alpha = sh.alphabet_from_json(doc)
    assert sh.alphabet_to_json(alpha) == doc
    assert alpha.grade("x") == 1
    with pytest.raises(ValueError):
        sh.alphabet_from_json({"group": {"cyclic": 2}})
    with pytest.raises(ValueError):
        sh.alphabet_from_json({"group": {"cyclic": 2}, "generators": [["x", 1]]})


def test_word_json():
    assert sh.word_from_json(["x", "x", "y"]) == ("x", "x", "y")
    assert sh.word_from_json([]) == ()
    with pytest.raises(ValueError):
        sh.word_from_json("xy")
    with pytest.raises(ValueError):
        sh.word_from_json([1, 2])


def test_factorization_json_round_trip():
    fact = sh.factorize(z2_alphabet(), ("x", "x", "x", "y"))
    doc = sh.factorization_to_json(fact)
    assert doc == [{"tag": "Y", "span": [1, 1]}, {"tag": "A", "span": [2, 4]}]
    assert sh.factorization_from_json(doc) == fact
    with pytest.raises(ValueError):
        sh.factorization_from_json([{"tag": "B", "span": [1, 1]}])


def test_factorization_json_rejects_booleans():
    for span in ([True, 2], [1, False]):
        with pytest.raises(ValueError, match="span"):
            sh.factorization_from_json([{"tag": "A", "span": span}])
