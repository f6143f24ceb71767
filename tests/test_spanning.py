"""Powered-product enumeration and witnessed-spanning verdicts."""

import copy
import gc
import itertools
import pickle
import random
import re
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import shirshov as sh
from shirshov.spanning import _count_products, _primitive_bases

from fixture_algebras import branching_algebra, fixture_algebra, z2_alphabet


def _free_algebra(field=None):
    return sh.AlgebraSpec(alphabet=z2_alphabet(), rules=[], field=field)


# ---------------------------------------------------------- powered products


def test_powered_product_validation():
    with pytest.raises(ValueError, match="at least one factor"):
        sh.PoweredProduct(())
    with pytest.raises(ValueError, match="nonempty"):
        sh.PoweredProduct((((), 1),))
    with pytest.raises(ValueError, match="exponent"):
        sh.PoweredProduct(((("x",), 0),))
    with pytest.raises(ValueError, match="exponent"):
        sh.PoweredProduct(((("x",), 1.5),))
    with pytest.raises(ValueError, match="exponent"):
        sh.PoweredProduct(((("x",), True),))
    with pytest.raises(ValueError, match="consecutive factors"):
        sh.PoweredProduct(((("x",), 1), (("x",), 2)))


def test_powered_product_expansion():
    p = sh.PoweredProduct(((("x",), 2), (("y", "x"), 2)))
    assert p.count == 2
    assert p.expansion_length == 6
    assert p.expansion() == ("x", "x", "y", "x", "y", "x")


def test_enumerate_products_two_letters_height_two():
    prods = sh.enumerate_products([("x",), ("y",)], 2, 2)
    assert {p.expansion() for p in prods} == {
        ("x",), ("y",), ("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"),
    }
    keys = [(p.count, p.factors) for p in prods]
    assert keys == sorted(keys)


def test_enumerate_products_single_base():
    prods = sh.enumerate_products([("x",)], 1, 4)
    assert [p.expansion() for p in prods] == [
        ("x",), ("x", "x"), ("x", "x", "x"), ("x", "x", "x", "x"),
    ]


def test_enumerate_products_height_one():
    prods = sh.enumerate_products([("x",), ("y",)], 1, 3)
    assert {p.expansion() for p in prods} == {
        ("x",), ("x", "x"), ("x", "x", "x"),
        ("y",), ("y", "y"), ("y", "y", "y"),
    }


def test_enumerate_products_word_base_merges_repeats():
    # With the single base "x y", repeated factors merge into exponents, so
    # only (xy)^e with 2e <= 6 appear.
    prods = sh.enumerate_products([("x", "y")], 3, 6)
    assert [p.expansion() for p in prods] == [
        ("x", "y"), ("x", "y", "x", "y"), ("x", "y", "x", "y", "x", "y"),
    ]


def test_enumerate_products_respects_caps():
    prods = sh.enumerate_products([("x",), ("y",)], 3, 5)
    assert all(p.count <= 3 and p.expansion_length <= 5 for p in prods)
    assert all(
        a != b for p in prods for (a, _), (b, _) in zip(p.factors, p.factors[1:])
    )


def test_enumerate_products_deduplicates_bases():
    assert len(sh.enumerate_products([("x",), ("x",)], 1, 3)) == 3
    # A string base is its tuple of one-letter symbols.
    many = [("y",), "x", ("x", "y"), ("x",), ("y",), "xy"] * 30
    assert sh.enumerate_products(many, 2, 4) == sh.enumerate_products([("x",), ("y",), ("x", "y")], 2, 4)
    with pytest.raises(ValueError, match="nonempty"):
        sh.enumerate_products([("x",), ("x",), ()], 1, 3)


def _naive_products(bases, h, D):
    # The depth-first enumerator with a final sort, kept as the oracle for the
    # level-by-level walk.
    uniq = list(dict.fromkeys(tuple(b) for b in bases))
    out = []
    stack = [((), 0, None)]
    while stack:
        prefix, used, last = stack.pop()
        for base in uniq:
            if base == last:
                continue
            for exp in range(1, (D - used) // len(base) + 1):
                factors = prefix + ((base, exp),)
                out.append(sh.PoweredProduct(factors))
                if len(factors) < h:
                    stack.append((factors, used + len(base) * exp, base))
    out.sort(key=lambda p: (p.count, p.factors))
    return out


def test_enumerate_products_walk_matches_naive_enumerator():
    rng = random.Random(23)
    for _ in range(400):
        bases = [tuple(rng.choice("xyz") for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 5))]
        bases += rng.sample(bases, rng.randint(0, len(bases)))  # repeated bases
        rng.shuffle(bases)
        h, D = rng.randint(1, 4), rng.randint(1, 12)
        prods = sh.enumerate_products(bases, h, D)
        assert [p.factors for p in prods] == \
            [p.factors for p in _naive_products(bases, h, D)], (bases, h, D)
        assert all(sh.PoweredProduct(p.factors) == p for p in prods)


def test_powered_products_copy_and_pickle():
    for p in sh.enumerate_products([("x", "y"), ("y",)], 3, 5):
        assert copy.copy(p) == p == pickle.loads(pickle.dumps(p))
        assert copy.deepcopy(p).factors == p.factors


def test_enumerate_products_frees_products_without_cyclic_gc():
    # The product list must hold no reference cycle: dropping it frees every
    # product at once, with the cyclic collector off.
    gc.disable()
    try:
        prods = sh.enumerate_products([("x",), ("y",)], 3, 6)
        ref = weakref.ref(prods[-1])
        del prods
        assert ref() is None
    finally:
        gc.enable()


def test_enumerate_products_stops_past_the_cap(monkeypatch):
    total = len(sh.enumerate_products([("x",), ("y",)], 3, 6))
    monkeypatch.setattr(sh.spanning, "ENUM_CAP", total)
    assert len(sh.enumerate_products([("x",), ("y",)], 3, 6)) == total
    monkeypatch.setattr(sh.spanning, "ENUM_CAP", total - 1)
    with pytest.raises(ValueError, match="expansion cap too large"):
        sh.enumerate_products([("x",), ("y",)], 3, 6)


def test_product_count_matches_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        bases = [tuple(rng.choice("xyz") for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        h, D = rng.randint(1, 4), rng.randint(1, 12)
        lengths = [len(w) for w in dict.fromkeys(bases)]
        assert _count_products(lengths, h, D) == len(sh.enumerate_products(bases, h, D)), \
            (bases, h, D)
    assert _count_products([], 3, 5) == len(sh.enumerate_products([], 3, 5)) == 0
    # Past D factors no product fits, so a huge height costs nothing extra.
    assert _count_products([1, 1], 10 ** 9, 5) == \
        len(sh.enumerate_products([("x",), ("y",)], 10 ** 9, 5))


@pytest.mark.parametrize("bases, h, D", [
    ([("x",), ("y",)], 3, 6),
    ([("x",), ("y", "z"), ("x", "y", "z")], 4, 9),
    ([("x", "y")], 1, 11),
], ids=["two-letters", "mixed-lengths", "one-base"])
def test_enumerate_products_stops_past_the_letter_cap(monkeypatch, bases, h, D):
    letters = sum(p.expansion_length for p in sh.enumerate_products(bases, h, D))
    monkeypatch.setattr(sh.spanning, "LETTER_CAP", letters)
    assert sum(p.expansion_length for p in sh.enumerate_products(bases, h, D)) == letters
    monkeypatch.setattr(sh.spanning, "LETTER_CAP", letters - 1)
    with pytest.raises(ValueError, match=f"more than {letters - 1} letters"):
        sh.enumerate_products(bases, h, D)


def test_target_words_read_both_caps_at_call_time(monkeypatch):
    free = sh.algebra_from_json({"alphabet": {"group": {"cyclic": 1}, "generators": [
        {"sym": "x", "grade": 0}, {"sym": "y", "grade": 0}]}, "rules": []})
    # Six words of length <= 2 hold ten letters.
    monkeypatch.setattr(sh.spanning, "ENUM_CAP", 5)
    with pytest.raises(ValueError, match="degree cap too large: more than 5 words"):
        sh.is_shirshov_base(free, [("x",)], 1, 2, 2)
    monkeypatch.setattr(sh.spanning, "ENUM_CAP", 6)
    monkeypatch.setattr(sh.spanning, "LETTER_CAP", 9)
    with pytest.raises(ValueError, match="degree cap too large: more than 9 letters"):
        sh.is_shirshov_base(free, [("x",)], 1, 2, 2)
    monkeypatch.setattr(sh.spanning, "LETTER_CAP", 10)
    assert sh.is_shirshov_base(free, [("x",)], 1, 2, 2).rank_joint == 6


def test_enumerate_products_builds_nothing_past_the_cap(monkeypatch):
    built = []
    monkeypatch.setattr(sh.spanning, "PoweredProduct", built.append)
    monkeypatch.setattr(sh.spanning, "ENUM_CAP", 10)
    with pytest.raises(ValueError, match="expansion cap too large"):
        sh.enumerate_products([("x",), ("y",)], 3, 6)
    assert built == []
    # The default cap decides the large case from the counts alone.
    monkeypatch.undo()
    with pytest.raises(ValueError, match="expansion cap too large"):
        sh.enumerate_products([("x",), ("y",)], 3, 100_000)


def test_enumerate_products_validation():
    with pytest.raises(ValueError):
        sh.enumerate_products([("x",)], 0, 3)
    with pytest.raises(ValueError):
        sh.enumerate_products([("x",)], 1, 0)
    with pytest.raises(ValueError, match="nonempty"):
        sh.enumerate_products([()], 1, 3)


# ---------------------------------------------------------------- RowEchelon


def test_echelon_checks_its_field_as_algebra_spec_does():
    # Anything but a PrimeField or a RationalField is refused, not ranked as Q.
    for bad in ("banana", 0, sh.PrimeField):
        message = f"field must be a PrimeField or a RationalField, got {bad!r}."
        for make in (sh.RowEchelon, lambda f: sh.AlgebraSpec(z2_alphabet(), [], f)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(bad)


def _echelon_rank(alg, words):
    ech = sh.RowEchelon(alg.field)
    for w in words:
        ech.add(sh.normalize(alg, w))
    return ech.rank


def test_row_echelon_ranks_normal_forms():
    alg = fixture_algebra()
    assert _echelon_rank(alg, [("x",), ("y",), ("x", "y")]) == 3
    assert _echelon_rank(alg, []) == 0
    assert _echelon_rank(alg, [("x",), ("x",)]) == 1


def test_row_echelon_detects_linear_relation():
    # NF(x y) = y y x, so x y and y y x span one line; y x is irreducible and
    # differs from y y x, so x y and y x span two.
    alg = fixture_algebra()
    assert _echelon_rank(alg, [("x", "y"), ("y", "y", "x")]) == 1
    assert _echelon_rank(alg, [("x", "y"), ("y", "x")]) == 2


def test_row_echelon_rank_is_order_invariant():
    alg = fixture_algebra()
    words = [("x",), ("y",), ("x", "y"), ("y", "x"), ("x", "x", "y"), ("y", "y")]
    expect = _echelon_rank(alg, words)
    rng = random.Random(13)
    for _ in range(10):
        shuffled = words[:]
        rng.shuffle(shuffled)
        assert _echelon_rank(alg, shuffled) == expect


def test_row_echelon_agrees_across_fields():
    # The second row is 6 times the first, so both fields must report rank 2.
    Q = sh.RationalField()
    F = sh.PrimeField()
    from fractions import Fraction

    rows = [
        {("a",): Fraction(1, 2), ("b",): Fraction(1, 3)},
        {("a",): Fraction(3), ("b",): Fraction(2)},
        {("a",): Fraction(1), ("c",): Fraction(1)},
    ]
    eq = sh.RowEchelon(Q)
    for r in rows:
        eq.add(r)
    ef = sh.RowEchelon(F)
    for r in rows:
        ef.add({k: v.numerator * pow(v.denominator, -1, F.p) % F.p for k, v in r.items()})
    assert eq.rank == ef.rank == 2


def _fraction_rank(rows, columns):
    """Rank by plain Gauss-Jordan elimination over Fraction."""
    matrix = [[Fraction(row.get(c, 0)) for c in columns] for row in rows]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        matrix[rank] = [v / lead for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [v - factor * p for v, p in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def test_row_echelon_over_q_matches_fraction_elimination():
    # Rows of 2-4 rational terms, some of them all zero, some with negative
    # leading coefficients, and enough of them to fall into each other's span.
    Q = sh.RationalField()
    rng = random.Random(11)
    words = [("a",), ("b",), ("c",), ("a", "b"), ("b", "a"), ("a", "a")]
    for _ in range(80):
        rows = []
        for _ in range(rng.randint(1, 7)):
            rows.append({w: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                         for w in rng.sample(words, rng.randint(2, 4))})
        ech = sh.RowEchelon(Q)
        grew = [ech.add(r) for r in rows]
        assert ech.rank == sum(grew) == _fraction_rank(rows, words)
        assert all(ech.reduce(r) == {} for r in rows)
        probe = {w: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for w in words[:3]}
        inside = _fraction_rank(rows + [probe], words) == ech.rank
        assert (ech.reduce(probe) == {}) == inside


def _modp_rank(rows, columns, p):
    """Rank by plain Gauss-Jordan elimination over F_p."""
    matrix = [[row.get(c, 0) % p for c in columns] for row in rows]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        matrix[rank] = [v * inv % p for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [(v - factor * q) % p for v, q in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 7, 1_000_003])
def test_row_echelon_over_fp_matches_modp_elimination(p):
    # Rows of 2-4 terms with coefficients >= p, negative ones and multiples
    # of p, some rows zero mod p, and enough rows to fall into each other's
    # span.
    F = sh.PrimeField(p)
    rng = random.Random(17 + p)
    words = [("a",), ("b",), ("c",), ("a", "b"), ("b", "a"), ("a", "a")]
    small = [0, 1, 2, 3, p - 1]

    def coef():
        return rng.choice(small) + p * rng.randint(-3, 3)

    for _ in range(80):
        rows = []
        for _ in range(rng.randint(1, 7)):
            terms = rng.sample(words, rng.randint(2, 4))
            if rng.random() < 0.15:
                rows.append({w: p * rng.randint(-3, 3) for w in terms})
            else:
                rows.append({w: coef() for w in terms})
        ech = sh.RowEchelon(F)
        grew = [ech.add(r) for r in rows]
        assert grew == [_modp_rank(rows[: i + 1], words, p) > _modp_rank(rows[:i], words, p)
                        for i in range(len(rows))]
        assert ech.rank == _modp_rank(rows, words, p)
        assert all(ech.reduce(r) == {} for r in rows)
        for _ in range(3):
            probe = {w: coef() for w in rng.sample(words, rng.randint(2, 4))}
            inside = _modp_rank(rows + [probe], words, p) == ech.rank
            assert (ech.reduce(probe) == {}) == inside


def test_row_echelon_refused_row_leaves_the_letter_cap(monkeypatch):
    # A row past the cap is not stored, and its letters do not count against
    # the rows that come after it.
    monkeypatch.setattr(sh.rewriting, "NF_LETTER_CAP", 10)
    for field in (sh.PrimeField(7), sh.RationalField()):
        ech = sh.RowEchelon(field)
        with pytest.raises(ValueError, match="more than 10 letters"):
            ech.add({("a",) * 11: field.one})
        assert ech.rank == 0
        assert ech.add({("a",): field.one})
        assert ech.rank == 1


def test_row_echelon_over_fp_takes_unreduced_rows():
    # Coefficients >= p, negative ones and multiples of p reduce to the same
    # rows as their residues.
    F = sh.PrimeField(7)
    rng = random.Random(5)
    words = [("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "a")]
    for _ in range(60):
        reduced, raw = [], []
        for _ in range(rng.randint(1, 6)):
            row = {w: rng.randrange(7) for w in rng.sample(words, rng.randint(1, 4))}
            reduced.append({w: c for w, c in row.items() if c})
            raw.append({w: c + 7 * rng.randint(-3, 3) for w, c in row.items()})
        probe_reduced = {w: rng.randrange(1, 7) for w in words}
        probe_raw = {w: c - 7 * rng.randint(0, 2) for w, c in probe_reduced.items()}
        e1, e2 = sh.RowEchelon(F), sh.RowEchelon(F)
        assert [e1.add(r) for r in reduced] == [e2.add(r) for r in raw]
        assert e1.rank == e2.rank
        assert e1.reduce(probe_reduced) == e2.reduce(probe_raw)
        assert e1.reduce({}) == e2.reduce({w: 7 * k for k, w in enumerate(words)}) == {}


def test_missing_unchanged_by_unreduced_rows(monkeypatch):
    # The same check with every normal form scaled by 8, -6 and 15, all 1
    # mod 7: ranks and missing monomials must not move.
    alg = _free_algebra(sh.PrimeField(7))
    expect = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=3)
    normalize = sh.spanning.normalize
    for scale in (8, -6, 15):
        monkeypatch.setattr(sh.spanning, "normalize", lambda *args, k=scale, **kw: {
            w: k * c for w, c in normalize(*args, **kw).items()})
        got = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=3)
        assert got == expect
        assert got.missing == (("x", "y", "x"), ("y", "x", "y"))


# ----------------------------------------------------------- is_shirshov_base


def test_fixture_base_witnessed():
    rep = sh.is_shirshov_base(fixture_algebra(), [("x",), ("y",)], h=2, d=6, D=12)
    assert rep.verdict == sh.WITNESSED
    assert rep.witnessed
    assert rep.missing == ()
    assert rep.rank_products == rep.rank_joint
    assert rep.height == 2 and rep.degree_cap == 6 and rep.expansion_cap == 12


def test_free_algebra_not_witnessed():
    rep = sh.is_shirshov_base(_free_algebra(), [("x",), ("y",)], h=2, d=3, D=6)
    assert rep.verdict == sh.NOT_WITNESSED
    assert not rep.witnessed
    assert ("x", "y", "x") in rep.missing
    assert rep.rank_joint > rep.rank_products


def test_every_short_word_base_is_trivially_witnessed():
    # When S contains every irreducible word of length <= d, the targets are
    # literally among the products.
    alg = fixture_algebra()
    S = [("x",), ("y",), ("x", "x"), ("y", "x"), ("y", "y")]
    rep = sh.is_shirshov_base(alg, S, h=1, d=2, D=2)
    assert rep.verdict == sh.WITNESSED


def test_default_expansion_cap_is_twice_degree():
    rep = sh.is_shirshov_base(_free_algebra(), [("x",), ("y",)], h=2, d=3)
    assert rep.expansion_cap == 6


def test_monotone_in_height():
    alg = fixture_algebra()
    r1 = sh.is_shirshov_base(alg, [("x",), ("y",)], h=1, d=4, D=8)
    r2 = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=4, D=8)
    assert r1.verdict == sh.NOT_WITNESSED
    assert r2.verdict == sh.WITNESSED
    assert ("y", "x") in r1.missing


def test_monotone_in_base_set():
    alg = fixture_algebra()
    r1 = sh.is_shirshov_base(alg, [("x",)], h=2, d=2, D=4)
    r2 = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=2, D=4)
    assert r1.verdict == sh.NOT_WITNESSED
    assert r2.verdict == sh.WITNESSED


# ---------------------------------------------------------- primitive bases


def _random_presentation(rng, field):
    # Graded by C1..C3 on up to three letters; each rule rewrites its lhs to
    # deglex-smaller words of the same grade, so the presentation terminates.
    m = rng.randint(1, 3)
    alpha = sh.GradedAlphabet(sh.build_group(sh.cyclic(m)),
                              [(s, rng.randrange(m)) for s in "xyz"[: rng.randint(1, 3)]])
    syms = alpha.symbols
    rules = {}
    for _ in range(rng.randint(0, 2)):
        lhs = tuple(rng.choice(syms) for _ in range(rng.randint(2, 3)))
        grade = sh.grade_of(alpha, lhs)
        smaller = [w for n in range(1, len(lhs) + 1) for w in itertools.product(syms, repeat=n)
                   if (len(w), w) < (len(lhs), lhs) and sh.grade_of(alpha, w) == grade]
        words = rng.sample(smaller, min(len(smaller), rng.randint(0, 2)))
        if isinstance(field, sh.PrimeField):
            coefs = [rng.randrange(1, field.p) for _ in words]
        else:
            coefs = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                     for _ in words]
        rules[lhs] = tuple(zip(words, coefs))
    return sh.AlgebraSpec(alpha, [sh.RewriteRule(lhs=l, rhs=r) for l, r in rules.items()],
                          field)


def test_primitive_bases_match_the_pairwise_rule():
    # Symbols of different lengths, so "a b" and "ab" must stay apart.
    rng = random.Random(37)
    for _ in range(2000):
        roots = [tuple(rng.choice(("a", "ab", "b")) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        bases = [r * rng.randint(1, 6) for r in roots for _ in range(rng.randint(1, 4))]
        rng.shuffle(bases)
        naive = [b for b in dict.fromkeys(bases)
                 if not any(c != b and len(b) % len(c) == 0 and c * (len(b) // len(c)) == b
                            for c in bases)]
        assert _primitive_bases(bases) == naive, bases


def test_proper_powers_change_no_report(monkeypatch):
    # A factor (c^k)^e is c^(ke), so squares and cubes of base words add no
    # expansion: neither adding them nor enumerating them changes a report.
    rng = random.Random(41)
    for trial in range(60):
        spec = _random_presentation(rng, (sh.PrimeField(3), sh.PrimeField(),
                                          sh.RationalField())[trial % 3])
        alpha, syms = spec.alphabet, spec.alphabet.symbols
        h, d = rng.randint(1, 3), rng.randint(1, 4)
        D = d + rng.randint(0, 3)
        words = [w for n in (1, 2, 3) for w in itertools.product(syms, repeat=n)]
        neutral = [w for w in words if sh.grade_of(alpha, w) == 0]
        for check, pool in ((sh.is_shirshov_base, words), (sh.check_graded_theorem, neutral)):
            S = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            powered = S + [w * k for w in S for k in (2, 3)]
            rng.shuffle(powered)
            expect = check(spec, S, h, d, D)
            assert check(spec, powered, h, d, D) == expect, (trial, check, S)
            with monkeypatch.context() as m:
                m.setattr(sh.spanning, "_primitive_bases", lambda b: list(dict.fromkeys(b)))
                assert check(spec, powered, h, d, D) == expect, (trial, check, S)


def test_caps_count_the_primitive_bases():
    # Every product over x .. x^6 is a power of x, so only the 60 powers of x
    # are built; all products over the six bases hold too many letters.
    alg = sh.AlgebraSpec(sh.GradedAlphabet(sh.build_group(sh.cyclic(1)), [("x", 0)]), [])
    S = [("x",) * k for k in range(1, 7)]
    rep = sh.is_shirshov_base(alg, S, h=6, d=20, D=60)
    assert rep.verdict == sh.WITNESSED
    assert (rep.rank_products, rep.rank_joint) == (60, 60)
    with pytest.raises(ValueError, match=f"more than {sh.spanning.LETTER_CAP} letters"):
        sh.enumerate_products(S, 6, 60)


def test_argument_validation():
    alg = fixture_algebra()
    S = [("x",), ("y",)]
    with pytest.raises(ValueError):
        sh.is_shirshov_base(alg, S, h=0, d=3)
    with pytest.raises(ValueError):
        sh.is_shirshov_base(alg, S, h=1, d=0)
    with pytest.raises(ValueError, match="expansion cap"):
        sh.is_shirshov_base(alg, S, h=1, d=4, D=3)
    with pytest.raises(ValueError, match="nonempty"):
        sh.is_shirshov_base(alg, [()], h=1, d=2)
    with pytest.raises(ValueError, match="unknown symbol"):
        sh.is_shirshov_base(alg, [("z",)], h=1, d=2)
    # A bad budget is rejected before the targets are enumerated, which at
    # d = 20 over the free algebra would trip the degree cap's guard.
    for check in (sh.is_shirshov_base, sh.check_graded_theorem):
        with pytest.raises(ValueError, match="step budget must be an integer >= 1, got 0"):
            check(_free_algebra(), [("y",)], 1, 20, step_budget=0)


def test_degree_cap_guard():
    with pytest.raises(ValueError, match="degree cap too large"):
        sh.is_shirshov_base(_free_algebra(), [("x",)], h=1, d=21, D=42)


def test_step_budget_propagates():
    alpha = z2_alphabet()
    pingpong = sh.AlgebraSpec(
        alphabet=sh.GradedAlphabet(alpha.group, [("x", 1), ("y", 1)]),
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("y", "x"), 1),)),
            sh.RewriteRule(lhs=("y", "x"), rhs=((("x", "y"), 1),)),
        ],
    )
    with pytest.raises(sh.StepBudgetExceeded):
        sh.is_shirshov_base(pingpong, [("x",), ("y",)], h=2, d=3, step_budget=50)


# ------------------------------------------------------ interned normal forms


def _wide_algebra(field):
    # 140 symbols listed against name order; all but the last four in name
    # order rewrite to 0, so the targets are words in those four, whose codes
    # (positions in name order) are 136 to 139.  The two rules
    # have two-term right-hand sides, so residuals have several terms and
    # their leading monomials depend on the monomial order.
    names = sorted((f"g{i}" for i in range(140)), reverse=True)
    p, q, r, t = active = names[3::-1]
    grades = {p: 1, q: 0, r: 0, t: 1}
    alpha = sh.GradedAlphabet(sh.build_group(sh.cyclic(2)),
                              [(s, grades.get(s, 0)) for s in names])
    c = field.parse
    rules = [sh.RewriteRule((s,), ()) for s in names if s not in active]
    rules += [
        sh.RewriteRule((r, q), (((q, r), c("1")), ((q, q), c("2")))),
        sh.RewriteRule((t, p), (((p, t), c("3")), ((q,), c("-1")))),
    ]
    return sh.AlgebraSpec(alpha, rules, field), active


def _reference_check(spec, bases, h, d, D, targets):
    """Ranks and missing monomials from tuple-keyed normal forms (no chain)."""
    echelon = sh.RowEchelon(spec.field)
    for w in {p.expansion() for p in sh.enumerate_products(bases, h, D)}:
        nf = sh.normalize(spec, w)
        if nf:
            echelon.add(nf)
    rank_products = echelon.rank
    missing, outside = set(), []
    for t in targets:
        nf = sh.normalize(spec, t)
        residual = echelon.reduce(nf)
        if residual:
            missing.add(max(residual, key=lambda w: (len(w), w)))
            outside.append(nf)
    for nf in outside:
        echelon.add(nf)
    return rank_products, echelon.rank, missing


def _deglex_sorted(words):
    return tuple(sorted(words, key=lambda w: (len(w), w)))


@pytest.mark.parametrize("field", [sh.PrimeField(7), sh.RationalField()], ids=["F7", "Q"])
def test_wide_alphabet_out_of_name_order_matches_tuple_reference(field):
    spec, active = _wide_algebra(field)
    p, q, r, t = active
    alpha = spec.alphabet
    assert sh.check_confluence(spec).confluent
    lhss = [rule.lhs for rule in spec.rules]
    d = 3
    targets = [w for n in range(1, d + 1) for w in itertools.product(active, repeat=n)
               if not any(w[i : i + 2] in lhss for i in range(n - 1))]

    bases = [(p,), (q, r), (t,)]
    report = sh.is_shirshov_base(spec, bases, 2, d, 4)
    ranks = _reference_check(spec, bases, 2, d, 4, targets)
    assert (report.rank_products, report.rank_joint) == ranks[:2]
    assert report.missing == _deglex_sorted(ranks[2])
    assert report.verdict == sh.NOT_WITNESSED

    # Phase (ii) adds every generator as a base, so keep d = D = 2 there.
    d = 2
    targets = [w for w in targets if len(w) <= d]
    identity = [w for w in targets if sh.grade_of(alpha, w) == 0]
    S_e = [(q,), (p, p)]
    report = sh.check_graded_theorem(spec, S_e, 1, d, d)
    neutral = _reference_check(spec, S_e, 1, d, d, identity)
    full = S_e + [(s,) for s in alpha.symbols]
    total = _reference_check(spec, full, sh.height_bound(1, 2), d, d, targets)
    assert (report.neutral.rank_products, report.neutral.rank_joint) == neutral[:2]
    assert report.neutral.missing == _deglex_sorted(neutral[2])
    assert (report.rank_products, report.rank_joint) == total[:2]
    assert report.missing == _deglex_sorted(neutral[2] | total[2])
    assert report.missing


@pytest.mark.parametrize("field", [sh.PrimeField(7), sh.RationalField()], ids=["F7", "Q"])
def test_zero_bases_are_not_enumerated(monkeypatch, field):
    # 136 of the wide algebra's letters rewrite to 0, and phase (ii) takes
    # every letter as a base, so nearly all of its products are 0; at one
    # time the graded check below made 19,768 normalize calls.  On a
    # confluent presentation a product with a zero base is 0, so only the
    # live bases are enumerated, and no report changes.
    spec, (p, q, r, t) = _wide_algebra(field)
    calls = []
    normalize = sh.spanning.normalize
    monkeypatch.setattr(sh.spanning, "normalize",
                        lambda *args: calls.append(args[1]) or normalize(*args))
    # Phase (i) normalizes the powers of S_e up to D = 2 letters and the 8
    # identity-grade targets.  Phase (ii) takes the products of p, q, r and
    # t of at most 2 letters (20 expansions; pp is a power of p) and the 18
    # targets.
    for S_e, products in (([(q,)], 2), ([(q,), (p, p)], 3)):
        calls.clear()
        report = sh.check_graded_theorem(spec, S_e, 1, 2, 2)
        assert len(calls) == products + 8 + 20 + 18
        with monkeypatch.context() as m:
            m.setattr(sh.spanning, "_primitive_bases", lambda b: list(dict.fromkeys(b)))
            m.setattr(sh.spanning, "_live_bases", lambda spec, b, D, budget: b)
            assert sh.check_graded_theorem(spec, S_e, 1, 2, 2) == report
        assert len(calls) > 19_000


def test_zero_bases_stay_on_unconfluent_presentations():
    # y -> 0 and x y -> u do not resolve x y, so y's normal form being 0
    # says nothing of the products holding it: x . y normalizes to u.
    alg = sh.AlgebraSpec(
        sh.GradedAlphabet(sh.build_group(sh.cyclic(1)), [("x", 0), ("y", 0), ("u", 0)]),
        [sh.RewriteRule(("y",), ()), sh.RewriteRule(("x", "y"), ((("u",), 1),))],
    )
    assert sh.normalize(alg, ("y",)) == {}
    report = sh.is_shirshov_base(alg, [("x",), ("y",)], h=2, d=1, D=2)
    assert report.confluent is False
    assert report.witnessed and report.rank_joint == 3  # x, x x and u


def test_base_exhausting_the_budget_is_kept():
    # x y^20 takes 20 steps under x y -> y y x, so its test exhausts a budget
    # of 10 and the base stays: its product then exhausts it too.
    alg = fixture_algebra()
    with pytest.raises(sh.StepBudgetExceeded):
        sh.is_shirshov_base(alg, [("x",) + ("y",) * 20], h=1, d=1, D=21, step_budget=10)


def test_witnessed_graded_check_decodes_no_monomial(monkeypatch):
    # Normal forms stay interned from the rewriting engine to the echelon;
    # only reported missing monomials are decoded, one call each.
    calls = []
    for name in ("_decode", "_word"):
        method = getattr(sh.AlgebraSpec, name)

        def counted(self, *args, method=method, name=name):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(sh.AlgebraSpec, name, counted)
    report = sh.check_graded_theorem(fixture_algebra(), [("y",), ("x", "x")], h=2, d=8, D=16)
    assert report.witnessed and report.rank_joint == 3414
    assert calls == []
    report = sh.is_shirshov_base(_free_algebra(), [("y",), ("x", "x")], h=2, d=3)
    assert not report.witnessed
    assert calls == ["_word"] * len(report.missing)


@pytest.mark.parametrize("check, letters, ranks", [
    # Phase (ii)'s pivots hold the most letters of the two phases.
    pytest.param(sh.check_graded_theorem, 4_041_462, (3414, 3414), id="graded"),
    pytest.param(sh.is_shirshov_base, 127_288, (133, 153), id="base"),
])
def test_echelon_letter_cap_pinned_on_the_fixture(monkeypatch, check, letters, ranks):
    # At d = 8 the pivots of the fixture's check on {y, xx} hold exactly
    # these letters: a cap of that many passes, one less raises.
    args = (fixture_algebra(), [("y",), ("x", "x")])
    monkeypatch.setattr(sh.rewriting, "NF_LETTER_CAP", letters)
    report = check(*args, h=2, d=8, D=16)
    assert (report.rank_products, report.rank_joint) == ranks
    monkeypatch.setattr(sh.rewriting, "NF_LETTER_CAP", letters - 1)
    with pytest.raises(ValueError, match=f"more than {letters - 1} letters in the echelon's rows"):
        check(*args, h=2, d=8, D=16)


@pytest.mark.parametrize("algebra, check, base, hdD, work", [
    pytest.param(fixture_algebra, sh.is_shirshov_base, [("x",), ("y",)], (2, 8, 16),
                 (130_918, 116, 130_678), id="fixture-base"),
    pytest.param(fixture_algebra, sh.check_graded_theorem, [("y",), ("x", "x")], (2, 8, 16),
                 (2_712_807, 6_907, 2_698_836), id="fixture-graded"),
    pytest.param(branching_algebra, sh.is_shirshov_base, [("x",), ("y",)], (2, 5, 10),
                 (495, 0, 0), id="branching-base"),
    pytest.param(branching_algebra, sh.check_graded_theorem, [("y",), ("x", "x")], (2, 5, 10),
                 (8_391, 0, 0), id="branching-graded"),
])
def test_engine_work_pinned_on_the_workloads(monkeypatch, algebra, check, base, hdD, work):
    # The rule applications the engine makes on the benchmark's four checks,
    # and the periodic runs of more than one step it splices, with their
    # steps: a change of strategy or gate that keeps every rank shows here.
    applied, runs = [], []
    rewrite, splice_run = sh.rewriting._rewrite, sh.rewriting._splice_run

    def counted_rewrite(spec, pending, steps, budget):
        form, out = rewrite(spec, pending, steps, budget)
        applied.append(out - steps)
        return form, out

    def counted_run(*args):
        n, state = splice_run(*args)
        if n > 1:
            runs.append(n)
        return n, state

    monkeypatch.setattr(sh.rewriting, "_rewrite", counted_rewrite)
    monkeypatch.setattr(sh.spanning, "_rewrite", counted_rewrite)
    monkeypatch.setattr(sh.rewriting, "_splice_run", counted_run)
    assert check(algebra(), base, *hdD).witnessed
    assert (sum(applied), len(runs), sum(runs)) == work


# ------------------------------------------------------- check_graded_theorem


def test_graded_fixture_witnessed_with_height_five():
    rep = sh.check_graded_theorem(
        fixture_algebra(), [("y",), ("x", "x")], h=2, d=6, D=12
    )
    assert rep.verdict == sh.WITNESSED
    assert rep.height == sh.height_bound(2, 2) == 5
    assert rep.missing == ()
    assert rep.neutral is not None
    assert rep.neutral.verdict == sh.WITNESSED
    assert rep.neutral.height == 2


def test_graded_insufficient_neutral_base():
    rep = sh.check_graded_theorem(fixture_algebra(), [("y",)], h=2, d=4, D=8)
    assert rep.verdict == sh.NOT_WITNESSED
    assert ("x", "x") in rep.neutral.missing
    assert ("x", "x") in rep.missing


@pytest.mark.parametrize("phase", [0, 1], ids=["neutral", "total"])
def test_a_violated_phase_makes_the_graded_verdict_violated(monkeypatch, phase):
    # Ranks and membership always agree, so no input reaches the defensive
    # verdict; a phase made to report it must carry it to the graded one.
    reports = []
    span_check = sh.spanning._span_check

    def violating(*args):
        reports.append(span_check(*args))
        if len(reports) == phase + 1:
            return replace(reports[-1], verdict=sh.VIOLATED)
        return reports[-1]

    monkeypatch.setattr(sh.spanning, "_span_check", violating)
    rep = sh.check_graded_theorem(fixture_algebra(), [("y",), ("x", "x")], h=2, d=4, D=8)
    assert [r.verdict for r in reports] == [sh.WITNESSED, sh.WITNESSED]
    assert rep.verdict == sh.VIOLATED
    assert rep.neutral.verdict == (sh.VIOLATED if phase == 0 else sh.WITNESSED)
    assert (rep.rank_products, rep.rank_joint) == (reports[1].rank_products,
                                                    reports[1].rank_joint)


def test_graded_rejects_non_identity_grade_base():
    with pytest.raises(ValueError, match="not the identity"):
        sh.check_graded_theorem(fixture_algebra(), [("x",)], h=2, d=4)


def test_graded_trivial_group_reduces_to_plain_check():
    group = sh.build_group(sh.cyclic(1))
    alpha = sh.GradedAlphabet(group, [("a", 0), ("b", 0)])
    alg = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[sh.RewriteRule(lhs=("a", "b"), rhs=((("b", "a"), 1),))],
    )
    S = [("a",), ("b",)]
    graded = sh.check_graded_theorem(alg, S, h=2, d=4, D=8)
    plain = sh.is_shirshov_base(alg, S, h=2, d=4, D=8)
    assert graded == plain
    assert graded.height == 2


def test_graded_phase_one_restricts_to_identity_grade_words():
    # Phase (i) must ignore grade-1 words entirely: with S_e = {y, xx} and
    # d=3 the only identity-grade irreducible words are y-, yx²-like; the
    # grade-1 word x³ may only be charged to phase (ii).
    rep = sh.check_graded_theorem(
        fixture_algebra(), [("y",), ("x", "x")], h=2, d=3, D=12
    )
    assert rep.neutral.verdict == sh.WITNESSED
    assert rep.verdict == sh.WITNESSED


def test_report_json_shape():
    rep = sh.check_graded_theorem(
        fixture_algebra(), [("y",), ("x", "x")], h=2, d=4, D=8
    )
    doc = sh.report_to_json(rep)
    assert doc["verdict"] == "witnessed-spanning"
    assert doc["d"] == 4 and doc["D"] == 8 and doc["height"] == 5
    assert doc["rank_products"] == doc["rank_joint"]
    assert doc["missing"] == []
    assert doc["neutral"]["verdict"] == "witnessed-spanning"
    flat = sh.report_to_json(
        sh.is_shirshov_base(_free_algebra(), [("x",), ("y",)], h=2, d=3)
    )
    assert flat["neutral"] is None
    assert ["x", "y", "x"] in flat["missing"]
    assert doc["confluent"] is True and flat["confluent"] is True


def test_report_flags_unconfluent_presentation():
    alpha = sh.build_group(sh.cyclic(1))
    alg = sh.AlgebraSpec(
        alphabet=sh.GradedAlphabet(alpha, [("x", 0), ("y", 0), ("z", 0), ("u", 0), ("v", 0)]),
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("u",), 1),)),
            sh.RewriteRule(lhs=("y", "z"), rhs=((("v",), 1),)),
        ],
    )
    rep = sh.is_shirshov_base(alg, [("x",), ("y",), ("z",)], h=3, d=3)
    assert rep.confluent is False
    assert sh.report_to_json(rep)["confluent"] is False
    assert sh.is_shirshov_base(fixture_algebra(), [("x",), ("y",)], h=2, d=3).confluent


def test_field_agreement_on_fixture():
    for make, S, kwargs in (
        (fixture_algebra, [("x",), ("y",)], dict(h=2, d=6, D=12)),
        (_free_algebra, [("x",), ("y",)], dict(h=2, d=3, D=6)),
    ):
        rp = sh.is_shirshov_base(make(sh.PrimeField()), S, **kwargs)
        rq = sh.is_shirshov_base(make(sh.RationalField()), S, **kwargs)
        assert rp.verdict == rq.verdict
        assert rp.missing == rq.missing
        assert rp.rank_products == rq.rank_products
        assert rp.rank_joint == rq.rank_joint


def test_factorization_consistency_with_graded_check():
    # Every short word over the graded fixture factorizes within the height
    # bound certified by the graded check, and its A-segments have grade e.
    import itertools

    alg = fixture_algebra()
    alpha = alg.alphabet
    h = 2
    bound = sh.height_bound(h, alpha.group.order)
    for n in range(5):
        for letters in itertools.product("xy", repeat=n):
            fact = sh.factorize(alpha, letters)
            assert sh.power_count(fact, h) <= bound
            for seg in fact.segments:
                if seg.tag == "A":
                    assert sh.grade_of(alpha, letters[seg.start - 1 : seg.end]) == 0
