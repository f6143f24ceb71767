"""String rewriting to normal forms over exact coefficient fields."""

import functools
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import shirshov as sh
from shirshov import rewriting
from shirshov.rewriting import _is_prime

from fixture_algebras import branching_algebra, fixture_algebra, z2_alphabet


def _trivial_alphabet(*syms):
    group = sh.build_group(sh.cyclic(1))
    return sh.GradedAlphabet(group, [(s, 0) for s in syms])


# ---------------------------------------------------------------- fields


def test_prime_field_arithmetic():
    F = sh.PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.parse("-1") == 6
    assert F.show(9) == "2"
    assert F.is_zero(0) and not F.is_zero(3)
    with pytest.raises(ValueError, match="bad F_1000003 coefficient '1.5'"):
        sh.PrimeField().parse("1.5")


def test_default_prime():
    assert sh.DEFAULT_PRIME == 1000003
    assert sh.PrimeField().p == 1000003


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError, match="prime"):
        sh.PrimeField(10)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert [p for p in range(10_000) if _is_prime(p)] == \
        [p for p in range(10_000) if by_trial_division(p)]


def test_prime_field_rejects_pseudoprimes():
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2, and
    # 3825123056546413051 one to every prime base up to 23.
    for p in (561, 2047, 2**61 + 1, 3825123056546413051):
        with pytest.raises(ValueError, match="prime"):
            sh.PrimeField(p)


def test_prime_field_large_moduli_decided_quickly():
    # In a child with a timeout, since trial division on these takes minutes.
    # 2^61 - 1 is prime; 2^64 + 13 and 2^89 - 1 are primes at or above 2^64.
    script = (
        "import shirshov as sh\n"
        "assert sh.PrimeField(2**61 - 1).p == 2**61 - 1\n"
        "for p in (2**64 + 13, 2**89 - 1):\n"
        "    try:\n"
        "        sh.PrimeField(p)\n"
        "    except ValueError as exc:\n"
        "        assert 'below 2^64' in str(exc)\n"
        "    else:\n"
        "        raise SystemExit(f'accepted {p}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_rational_field():
    Q = sh.RationalField()
    assert Q.parse("2/4") == Fraction(1, 2)
    assert Q.show(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(ValueError):
        Q.parse("1/0")


@pytest.mark.parametrize("field", [
    pytest.param(sh.RationalField(), id="Q"),
    pytest.param(sh.PrimeField(2), id="F2"),
    pytest.param(sh.PrimeField(7), id="F7"),
    pytest.param(sh.PrimeField(1_000_003), id="F1000003"),
    pytest.param(sh.PrimeField(2**61 - 1), id="F2^61-1"),
])
def test_working_ring_is_canonical(field):
    # Over Q the engine's pairs (n, d), d > 0 and coprime, are Fraction's own
    # numerator and denominator after every operation.  Over F_p the field is
    # its own ring, and every result is plain % p arithmetic's, in [0, p),
    # whatever ints go in, negative ones and ones >= p included.
    ring = field._ring
    rng = random.Random(5)
    if isinstance(field, sh.RationalField):
        values = [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(300)]
        pair = ring.lift
        for a, b in zip(values, values[1:]):
            assert ring.add(pair(a), pair(b)) == pair(a + b)
            assert ring.mul(pair(a), pair(b)) == pair(a * b)
            assert ring.pow(pair(a), 3) == pair(a**3)
            assert ring.is_zero(pair(a)) == (a == 0)
            assert ring.value(pair(a)) == a and type(ring.value(pair(a))) is Fraction
        assert (ring.zero, ring.one) == (pair(Fraction(0)), pair(1))
        return
    p = field.p
    values = [rng.randint(-3 * p, 3 * p) for _ in range(300)] + [0, p, -p, p - 1, 2 * p + 1]
    for a, b in zip(values, values[1:]):
        k = rng.randrange(300)
        for got, want in ((ring.add(a, b), (a + b) % p), (ring.mul(a, b), a * b % p),
                          (ring.pow(a, 0), 1), (ring.pow(a, 3), a**3 % p),
                          (ring.pow(a, k), a**k % p)):
            assert got == want and type(got) is int and 0 <= got < p
        assert ring.is_zero(a) == (a % p == 0)
    assert (ring.zero, ring.one) == (0, 1)


def test_field_json():
    assert sh.field_from_json({"prime": 7}) == sh.PrimeField(7)
    assert sh.field_from_json({"rationals": True}) == sh.RationalField()
    for doc in ({}, {"prime": 8}, {"rationals": False}, "Q"):
        with pytest.raises(ValueError):
            sh.field_from_json(doc)


# ---------------------------------------------------------------- rules


def test_rule_rejects_self_loop():
    with pytest.raises(ValueError, match="cannot terminate"):
        sh.RewriteRule(lhs=("x",), rhs=((("y", "x"), 1),))


def test_rule_rejects_empty_lhs():
    with pytest.raises(ValueError, match="nonempty"):
        sh.RewriteRule(lhs=(), rhs=((("x",), 1),))


def test_algebra_rejects_zero_coefficient():
    for alphabet, rule, field in [
        (z2_alphabet(), sh.RewriteRule(lhs=("x", "y"), rhs=((("y", "x"), 0),)), None),
        # 7 is zero in F_7, though not as an int.
        (_trivial_alphabet("x", "y", "z"),
         sh.RewriteRule(lhs=("x",), rhs=((("y",), 7), (("z",), 1))), sh.PrimeField(7)),
    ]:
        with pytest.raises(ValueError, match="zero coefficient"):
            sh.AlgebraSpec(alphabet=alphabet, rules=[rule], field=field)


def test_algebra_rejects_duplicate_rhs_monomial():
    with pytest.raises(ValueError, match="duplicate monomial"):
        sh.AlgebraSpec(
            alphabet=z2_alphabet(),
            rules=[sh.RewriteRule(
                lhs=("x", "y"), rhs=((("y", "x"), 1), (("y", "x"), 2))
            )],
        )


def test_algebra_rejects_inhomogeneous_rule():
    with pytest.raises(ValueError, match="grade-homogeneous"):
        sh.AlgebraSpec(
            alphabet=z2_alphabet(),
            rules=[sh.RewriteRule(lhs=("x",), rhs=((("y",), 1),))],
        )


@pytest.mark.parametrize("field, coef", [
    pytest.param(sh.RationalField(), 0.5, id="float-Q"),
    pytest.param(sh.PrimeField(7), 2.5, id="float-F7"),
    pytest.param(sh.PrimeField(7), Fraction(1, 2), id="fraction-F7"),
    pytest.param(sh.RationalField(), "3", id="str-Q"),
    pytest.param(sh.RationalField(), True, id="bool-Q"),
    pytest.param(sh.PrimeField(7), True, id="bool-F7"),
])
def test_algebra_rejects_coefficients_outside_the_field(field, coef):
    # Accepted once: 0.5 over Q gave the normal form {x y y: 0.25}, 2.5 over
    # F_7 gave 6.25 and Fraction(1, 2) over F_7 gave Fraction(1, 4), while
    # "3" over Q raised TypeError.
    rule = sh.RewriteRule(lhs=("y", "x"), rhs=((("x", "y"), coef),))
    with pytest.raises(ValueError, match="coefficient .* on 'x y' .* not an element"):
        sh.AlgebraSpec(z2_alphabet(), [rule], field)


def test_algebra_accepts_ints_and_fractions_over_q_and_ints_over_fp():
    # y x -> c x y gives nf(y y x) = c^2 x y y, as a field value.
    for field, coef, square in [
        (sh.RationalField(), 2, Fraction(4)),
        (sh.RationalField(), Fraction(-1, 2), Fraction(1, 4)),
        (sh.PrimeField(7), 3, 2),
        (sh.PrimeField(7), -1, 1),
    ]:
        rule = sh.RewriteRule(lhs=("y", "x"), rhs=((("x", "y"), coef),))
        alg = sh.AlgebraSpec(z2_alphabet(), [rule], field)
        nf = sh.normalize(alg, ("y", "y", "x"))
        assert nf == {("x", "y", "y"): square}
        assert type(nf["x", "y", "y"]) is type(field.one)


def test_algebra_rejects_an_unknown_field():
    with pytest.raises(ValueError, match="field must be"):
        sh.AlgebraSpec(z2_alphabet(), [], "Q")


# ---------------------------------------------------------------- normalize


def test_normalize_fixture_examples():
    alg = fixture_algebra()
    assert sh.normalize(alg, ("x", "y")) == {("y", "y", "x"): 1}
    assert sh.normalize(alg, ("x", "x", "y")) == {("y", "y", "y", "y", "x", "x"): 1}


def test_normalize_free_algebra_is_identity():
    free = sh.AlgebraSpec(alphabet=z2_alphabet(), rules=[])
    for w in ((), ("x",), ("x", "y", "x")):
        assert sh.normalize(free, w) == {w: 1}


def test_normalize_empty_word():
    assert sh.normalize(fixture_algebra(), ()) == {(): 1}


def test_normalize_closed_form():
    # Under xy -> y^2 x the normal form of x^m y^k is y^(k 2^m) x^m.
    alg = fixture_algebra()
    for m, k in ((1, 3), (2, 2), (3, 1), (6, 2), (10, 1)):
        word = ("x",) * m + ("y",) * k
        expect = ("y",) * (k * 2**m) + ("x",) * m
        assert sh.normalize(alg, word, step_budget=10**6) == {expect: 1}


def test_normalize_rejects_unknown_symbol():
    with pytest.raises(ValueError, match="unknown symbol"):
        sh.normalize(fixture_algebra(), ("x", "z"))


def test_normalize_leftmost_position_wins():
    # With u <- "x y" and v <- "y z" on input "x y z" the leftmost match
    # must fire, leaving "u z" rather than "x v".
    alpha = _trivial_alphabet("x", "y", "z", "u", "v")
    alg = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("u",), 1),)),
            sh.RewriteRule(lhs=("y", "z"), rhs=((("v",), 1),)),
        ],
    )
    assert sh.normalize(alg, ("x", "y", "z")) == {("u", "z"): 1}


def test_normalize_longest_match_wins():
    # At the same position the longer lhs fires even when listed second.
    alpha = _trivial_alphabet("a", "b", "c")
    alg = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[
            sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), 1),)),
            sh.RewriteRule(lhs=("a", "a", "a"), rhs=((("c",), 1),)),
        ],
    )
    assert sh.normalize(alg, ("a", "a", "a")) == {("c",): 1}


def test_normalize_equal_length_rules_use_listing_order():
    alpha = _trivial_alphabet("a", "b", "c")
    alg = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[
            sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), 1),)),
            sh.RewriteRule(lhs=("a", "a"), rhs=((("c",), 1),)),
        ],
    )
    assert sh.normalize(alg, ("a", "a")) == {("b",): 1}


def test_normalize_distributes_and_merges():
    Q = sh.RationalField()
    alpha = _trivial_alphabet("a", "b", "c")
    alg = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), Q.one), (("c",), Q.one)))],
        field=Q,
    )
    nf = sh.normalize(alg, ("a",) * 4)
    assert nf == {
        ("b", "b"): Fraction(1),
        ("b", "c"): Fraction(1),
        ("c", "b"): Fraction(1),
        ("c", "c"): Fraction(1),
    }


def test_normalize_cancellation_drops_zero_terms():
    # b - c with c -> b cancels to zero in the result map.
    Q = sh.RationalField()
    alpha = _trivial_alphabet("a", "b", "c")
    alg = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[
            sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), Q.one), (("c",), -Q.one))),
            sh.RewriteRule(lhs=("c",), rhs=((("b",), Q.one),)),
        ],
        field=Q,
    )
    assert sh.normalize(alg, ("a", "a")) == {}


def test_normalize_rule_to_zero():
    alg = sh.AlgebraSpec(
        alphabet=z2_alphabet(),
        rules=[sh.RewriteRule(lhs=("x", "x"), rhs=())],
    )
    assert sh.normalize(alg, ("x", "x", "y")) == {}
    assert sh.normalize(alg, ("y", "x")) == {("y", "x"): 1}


def test_step_budget_counts_single_rewrites():
    # "x x y" needs exactly three rewrites to reach its normal form.
    alg = fixture_algebra()
    assert sh.normalize(alg, ("x", "x", "y"), step_budget=3) == \
        {("y", "y", "y", "y", "x", "x"): 1}
    with pytest.raises(sh.StepBudgetExceeded):
        sh.normalize(alg, ("x", "x", "y"), step_budget=2)


def test_step_budget_nonterminating_presentation():
    alpha = _trivial_alphabet("x", "y")
    pingpong = sh.AlgebraSpec(
        alphabet=alpha,
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("y", "x"), 1),)),
            sh.RewriteRule(lhs=("y", "x"), rhs=((("x", "y"), 1),)),
        ],
    )
    with pytest.raises(sh.StepBudgetExceeded, match="possibly non-terminating"):
        sh.normalize(pingpong, ("x", "y"), step_budget=99)


def test_step_budget_validation_and_default():
    assert sh.DEFAULT_STEP_BUDGET == 100_000
    with pytest.raises(ValueError):
        sh.normalize(fixture_algebra(), ("x",), step_budget=0)


def test_normalize_preserves_grade():
    alg = fixture_algebra()
    alpha = alg.alphabet
    import random

    rng = random.Random(3)
    for _ in range(50):
        word = tuple(rng.choice("xy") for _ in range(rng.randrange(0, 9)))
        g = sh.grade_of(alpha, word)
        for mono in sh.normalize(alg, word, step_budget=10**6):
            assert sh.grade_of(alpha, mono) == g


def test_normalize_deterministic():
    alg = fixture_algebra()
    w = ("x", "y", "x", "y", "y", "x")
    assert sh.normalize(alg, w) == sh.normalize(alg, w)


# ---------------------------------------------------------------- engine oracle


def _naive_redex(rules, mono):
    """(position, rule) of the leftmost longest lhs in mono, or None."""
    for pos in range(len(mono)):
        hit = None
        for rule in rules:
            L = len(rule.lhs)
            if mono[pos : pos + L] == rule.lhs and (hit is None or L > len(hit.lhs)):
                hit = rule
        if hit is not None:
            return pos, hit
    return None


def _oracle_value(field):
    """The naive rewriter's own coefficient arithmetic, shared with no engine
    code: a sum or product of coefficients, computed with Python's operators,
    is mapped to its value by Fraction over Q and by % p over F_p."""
    if isinstance(field, sh.RationalField):
        return Fraction
    p = field.p
    return lambda c: c % p


def _naive_normalize(spec, word, budget):
    """Leftmost-longest rewriting on tuples, earlier rule winning ties.

    Returns (normal form, steps), one step at a time.  It keeps the engine's
    bookkeeping: pending monomials merge in a dict and are taken last in,
    first out, and a single-term rule rewrites its monomial in place, so the
    steps match the engine's exactly, forking rules included.
    """
    value, out, steps = _oracle_value(spec.field), {}, 0
    todo = {tuple(word): value(1)}
    while todo:
        mono, coef = todo.popitem()
        while True:
            hit = _naive_redex(spec.rules, mono)
            if hit is None:
                break
            steps += 1
            if steps > budget:
                raise sh.StepBudgetExceeded("naive budget")
            pos, rule = hit
            if len(rule.rhs) != 1:
                break
            (rword, rcoef), = rule.rhs
            mono = mono[:pos] + rword + mono[pos + len(rule.lhs) :]
            coef = value(coef * rcoef)
        if hit is None:
            acc = value(out.pop(mono, 0) + coef)
            if acc:
                out[mono] = acc
            continue
        for rword, rcoef in rule.rhs:
            nw = mono[:pos] + rword + mono[pos + len(rule.lhs) :]
            acc = value(todo.get(nw, 0) + coef * rcoef)
            if not acc:
                todo.pop(nw, None)
            else:
                todo[nw] = acc
    return out, steps


def _leftmost_algebra():
    return sh.AlgebraSpec(
        alphabet=_trivial_alphabet("x", "y", "z", "u", "v"),
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("u",), 1),)),
            sh.RewriteRule(lhs=("y", "z"), rhs=((("v",), 1),)),
        ],
    )


def _longest_algebra():
    return sh.AlgebraSpec(
        alphabet=_trivial_alphabet("a", "b", "c"),
        rules=[
            sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), 1),)),
            sh.RewriteRule(lhs=("a", "a", "a"), rhs=((("c",), 1),)),
            sh.RewriteRule(lhs=("b", "c"), rhs=((("a",), 1),)),
        ],
    )


def _equal_length_algebra():
    return sh.AlgebraSpec(
        alphabet=_trivial_alphabet("a", "b", "c"),
        rules=[
            sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), 1),)),
            sh.RewriteRule(lhs=("a", "a"), rhs=((("c",), 1),)),
        ],
    )


def _meeting_forks_algebra(z_rhs):
    # x -> y + z forks, and z forks again into a y that meets the pending y.
    Q = sh.RationalField()
    return sh.AlgebraSpec(
        alphabet=_trivial_alphabet("x", "y", "z", "t"),
        rules=[
            sh.RewriteRule(lhs=("x",), rhs=((("y",), Q.one), (("z",), Q.one))),
            sh.RewriteRule(lhs=("z",), rhs=tuple((w, Fraction(c)) for w, c in z_rhs)),
        ],
        field=Q,
    )


def _cancelling_forks_algebra():
    return _meeting_forks_algebra(((("y",), -1), (("t",), 2)))  # nf(x) = 2t


def _merging_forks_algebra():
    return _meeting_forks_algebra(((("y",), 2), (("t",), 1)))  # nf(x) = 3y + t


def _pingpong_algebra():
    return sh.AlgebraSpec(
        alphabet=_trivial_alphabet("x", "y"),
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("y", "x"), 1),)),
            sh.RewriteRule(lhs=("y", "x"), rhs=((("x", "y"), 1),)),
        ],
    )


# Symbols are interned in sorted name order, so symbol i of the sorted names
# gets code point i.  A str stores code points below 256 in one byte, below
# 65536 in two and the rest in four: these codes sit on both sides of each
# width boundary, and one, 0xD800, is a surrogate.  The alphabet lists them
# far from those positions.
_WIDE_SIZE = 65600
_WIDE_NAMES = sorted(f"s{i}" for i in range(_WIDE_SIZE))
_WIDE = [_WIDE_NAMES[i] for i in (0, 1, 126, 127, 128, 129, 255, 256, 2046, 2047, 2048, 2049,
                                  0xD800, 65535, 65536)]


@functools.lru_cache(maxsize=None)
def _sorted_symbols(alphabet):
    return sorted(alphabet.symbols)


def _interned_word(alg, word):
    # The documented contract: code point i is the i-th symbol in sorted
    # name order.
    symbols = _sorted_symbols(alg.alphabet)
    return tuple(symbols[ord(c)] for c in word)


def _decoded(alg, form):
    """A normal form from the memo path, with every monomial decoded."""
    assert all(type(mono) is str for mono in form)
    return {_interned_word(alg, mono): coef for mono, coef in form.items()}


def _wide_algebra():
    # _WIDE_SIZE symbols; rules only among _WIDE, each lhs above its rhs
    # monomials in deglex order, so the presentation terminates: commuting
    # swaps, a longest-match rule and a forking rule.  It presents a
    # commutative algebra whose two relations have coprime leading
    # monomials, so it is confluent.
    w = _WIDE
    Q = sh.RationalField()
    rules = [
        sh.RewriteRule(lhs=(w[i], w[j]), rhs=(((w[j], w[i]), Q.one),))
        for i in range(len(w)) for j in range(i)
    ]
    rules.append(sh.RewriteRule(lhs=(w[5], w[5], w[5]), rhs=(((w[0],), Fraction(3)),)))
    rules.append(sh.RewriteRule(
        lhs=(w[7], w[7]), rhs=(((w[2], w[9]), Fraction(-1, 2)), ((w[11],), Q.one))
    ))
    return sh.AlgebraSpec(_trivial_alphabet(*(f"s{i}" for i in range(_WIDE_SIZE))), rules, Q)


def _random_words(rng, letters, count, longest):
    return [
        tuple(rng.choice(letters) for _ in range(rng.randrange(longest + 1)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("make, letters, longest, budget", [
    pytest.param(fixture_algebra, "xy", 9, 10**6, id="fixture"),
    pytest.param(branching_algebra, "xy", 8, 10**6, id="branching"),
    pytest.param(_leftmost_algebra, "xyzuv", 10, 10**6, id="leftmost"),
    pytest.param(_longest_algebra, "abc", 10, 10**6, id="longest"),
    pytest.param(_equal_length_algebra, "abc", 10, 10**6, id="equal"),
    pytest.param(_pingpong_algebra, "xy", 6, 50, id="pingpong"),
    pytest.param(_cancelling_forks_algebra, "xyzt", 6, 10**6, id="forks-cancel"),
    pytest.param(_merging_forks_algebra, "xyzt", 6, 10**6, id="forks-merge"),
    pytest.param(_wide_algebra, _WIDE + ["s3", "s300", "s2099"], 8, 10**6, id="wide"),
])
def test_engine_matches_naive_rewriter(make, letters, longest, budget):
    alg = make()
    rng = random.Random(7)
    forks = any(len(rule.rhs) != 1 for rule in alg.rules)
    for word in _random_words(rng, letters, 150, longest):
        try:
            expect, steps = _naive_normalize(alg, word, budget)
        except sh.StepBudgetExceeded:
            with pytest.raises(sh.StepBudgetExceeded):
                sh.normalize(alg, word, step_budget=budget)
            continue
        assert sh.normalize(alg, word, step_budget=budget) == expect
        if not forks and steps > 1:
            # The engine charges exactly the naive rewriter's steps.
            assert sh.normalize(alg, word, step_budget=steps) == expect
            with pytest.raises(sh.StepBudgetExceeded):
                sh.normalize(alg, word, step_budget=steps - 1)


def _naive_side(alg, word, pos, rule, budget):
    """The naive normal form of word after rule rewrites it at pos."""
    value, out = _oracle_value(alg.field), {}
    for rword, rcoef in rule.rhs:
        nf, _ = _naive_normalize(alg, word[:pos] + rword + word[pos + len(rule.lhs) :], budget)
        for mono, coef in nf.items():
            acc = value(out.pop(mono, 0) + rcoef * coef)
            if acc:
                out[mono] = acc
    return out


def test_wide_codes_agree_with_naive_rewriter_on_every_path():
    # Words over codes on both sides of each str width boundary, the
    # surrogate included: the direct and chain paths give the naive
    # rewriter's normal form, the chain's monomials carry those code points,
    # and every ambiguity check_confluence resolves agrees under the naive
    # rewriter.
    alg = _wide_algebra()
    rng = random.Random(5)
    chain = sh.SuffixChain()
    codes = set()
    for word in sorted(_random_words(rng, _WIDE, 150, 8), key=lambda w: w[::-1]):
        expect, _ = _naive_normalize(alg, word, 10**6)
        assert sh.normalize(alg, word) == expect
        got = sh.normalize(alg, word, memo=chain)
        assert _decoded(alg, got) == expect
        codes.update(ord(c) for mono in got for c in mono)
    assert {255, 256, 0xD800, 65535, 65536} <= codes
    cert = sh.check_confluence(alg)
    ambiguities = list(rewriting._ambiguities(alg.rules))
    assert cert == sh.Confluence(resolved=len(ambiguities), unresolved=None)
    for _, i, j, word, pos in ambiguities:
        left = _naive_side(alg, word, 0, alg.rules[i], 10**6)
        assert left == _naive_side(alg, word, pos, alg.rules[j], 10**6), word


def _decreasing_presentation(rng, alpha, field):
    """1-4 rules with 1-3 terms each, every rhs word deglex below its lhs.

    Such a presentation terminates.  Coefficients take both signs and
    denominators up to 3, and rhs words are short, so forks often meet and
    cancel.
    """
    syms = sorted(alpha.symbols)
    words = [w for n in range(4) for w in itertools.product(syms, repeat=n)]
    rules = {}
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.choice(syms) for _ in range(rng.randint(1, 3)))
        below = [w for w in words if (len(w), w) < (len(lhs), lhs)]
        rhs = rng.sample(below, min(len(below), rng.randint(1, 3)))
        rules[lhs] = tuple(
            (w, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))) for w in rhs
        )
    return sh.AlgebraSpec(alpha, [sh.RewriteRule(l, r) for l, r in rules.items()], field)


def test_rational_engine_matches_naive_rewriter_on_random_presentations(monkeypatch):
    # Over Q the engine computes on integer pairs; the naive rewriter computes
    # with Fraction's own operators.  Every rhs has a term, so a normal form of
    # 0 comes from forks that cancel; zero_sums counts the engine's sums that
    # cancel to 0, whole normal forms or single monomials.
    zero_sums = []
    add = rewriting._QPairs.add

    def counted(a, b):
        acc = add(a, b)
        if acc == rewriting._QPairs.zero:
            zero_sums.append(acc)
        return acc

    monkeypatch.setattr(rewriting._QPairs, "add", staticmethod(counted))
    alpha = _trivial_alphabet("a", "b", "c")
    rng = random.Random(23)
    budget = 10**5
    cancelled = 0
    for _ in range(80):
        alg = _decreasing_presentation(rng, alpha, sh.RationalField())
        for word in _random_words(rng, "abc", 12, 7):
            expect, steps = _naive_normalize(alg, word, budget)
            got = sh.normalize(alg, word, budget)
            assert got == expect
            assert all(type(c) is Fraction for c in got.values())
            cancelled += steps > 0 and not expect
            if steps > 1:
                assert sh.normalize(alg, word, steps) == expect
                with pytest.raises(sh.StepBudgetExceeded):
                    sh.normalize(alg, word, steps - 1)
    assert cancelled > 0 and len(zero_sums) > 50


def test_rational_results_are_fractions_on_every_path():
    # The engine's integer pairs never leave it: chain, whole-word and
    # rule-free normal forms, and both sides of an unresolved ambiguity,
    # hold Fractions.
    Q = sh.RationalField()
    uncertified = sh.AlgebraSpec(
        alphabet=_trivial_alphabet("x", "y", "z", "u", "v"),
        rules=[
            sh.RewriteRule(lhs=("x", "y"), rhs=((("u",), Fraction(1, 2)),)),
            sh.RewriteRule(lhs=("y", "z"), rhs=((("v",), Fraction(-2, 3)), (("u",), 1))),
        ],
        field=Q,
    )
    free = sh.AlgebraSpec(z2_alphabet(), [], Q)
    words = [tuple(w) for w in ("", "x", "yx", "yyx", "xyz", "yzx", "xyyx", "yyxx")]
    for alg, letters in ((branching_algebra(), "xy"), (uncertified, "xyzuv"), (free, "xy")):
        chain = sh.SuffixChain()
        for word in words:
            if set(word) <= set(letters):
                for memo in (None, chain):
                    nf = sh.normalize(alg, word, memo=memo)
                    assert all(type(c) is Fraction for c in nf.values()), (alg, word, memo)
    amb = sh.check_confluence(uncertified).unresolved
    assert (amb.left, amb.right) == (
        {("u", "z"): Fraction(1, 2)}, {("x", "v"): Fraction(-2, 3), ("x", "u"): Fraction(1)}
    )
    assert all(type(c) is Fraction for side in (amb.left, amb.right) for c in side.values())


@pytest.mark.parametrize("make, letters", [
    pytest.param(fixture_algebra, "xy", id="fixture"),
    pytest.param(branching_algebra, "xy", id="branching"),
    pytest.param(_wide_algebra, _WIDE, id="wide"),
])
def test_memo_path_equals_direct_path_in_any_order(make, letters):
    alg = make()
    rng = random.Random(7)
    assert sh.check_confluence(alg).confluent
    words = _random_words(rng, letters, 120, 8)
    words += [w[rng.randrange(len(w) + 1):] for w in words]  # shared suffixes
    direct = {w: sh.normalize(alg, w, step_budget=10**6) for w in words}
    for order in (sorted(words, key=lambda w: w[::-1]), words[::-1], words):
        chain = sh.SuffixChain()
        for w in order:
            assert _decoded(alg, sh.normalize(alg, w, 10**6, chain)) == direct[w]


def _free_out_of_name_order():
    group = sh.build_group(sh.cyclic(2))
    return sh.AlgebraSpec(sh.GradedAlphabet(group, [("y", 0), ("x", 1), ("b", 0)]), [])


@pytest.mark.parametrize("make, letters, certified", [
    pytest.param(fixture_algebra, "xy", True, id="fold"),
    pytest.param(_leftmost_algebra, "xyzuv", False, id="uncertified"),
    pytest.param(_free_out_of_name_order, "yxb", True, id="rule-free"),
])
def test_chain_returns_interned_words(make, letters, certified):
    # Given a chain, every monomial comes back as a string with one code
    # point per symbol, and decodes to the direct path's monomial; without a
    # chain the monomials stay tuples.
    alg = make()
    assert sh.check_confluence(alg).confluent is certified
    rng = random.Random(3)
    words = _random_words(rng, letters, 100, 7)
    words.sort(key=lambda w: w[::-1])
    chain = sh.SuffixChain()
    for w in words:
        direct = sh.normalize(alg, w)
        assert all(type(mono) is tuple for mono in direct)
        assert _decoded(alg, sh.normalize(alg, w, memo=chain)) == direct


def test_chain_words_follow_the_spec():
    # x, y and a, b intern to the same code points, so one chain that crossed
    # from one spec to the other must give each spec's own normal form.
    group = sh.build_group(sh.cyclic(2))
    xy = fixture_algebra()
    ab = sh.AlgebraSpec(
        sh.GradedAlphabet(group, [("a", 1), ("b", 0)]),
        [sh.RewriteRule(lhs=("a", "b"), rhs=((("b", "b", "a"), 1),))],
    )
    chain = sh.SuffixChain()
    for alg, word in [(xy, "xy"), (ab, "ab"), (xy, "xxy"), (ab, "aab"), (ab, "ab")]:
        got = sh.normalize(alg, tuple(word), memo=chain)
        assert _decoded(alg, got) == sh.normalize(alg, tuple(word))


def test_memo_closed_form_charges_fold_steps_on_both_paths():
    # nf(x^a y^b) = y^(b 2^a) x^a in exactly b (2^a - 1) steps, charged in
    # full on the memo path even when the chain already holds a suffix.
    alg = fixture_algebra()
    for a, b in ((1, 2), (2, 3), (5, 2), (8, 1)):
        word = ("x",) * a + ("y",) * b
        expect = {("y",) * (b << a) + ("x",) * a: 1}
        steps = b * ((1 << a) - 1)
        warm = sh.SuffixChain()
        sh.normalize(alg, word[1:], steps, warm)
        for memo in (None, sh.SuffixChain(), warm):
            with pytest.raises(sh.StepBudgetExceeded):
                sh.normalize(alg, word, steps - 1, memo)
            got = sh.normalize(alg, word, steps, memo)
            assert (got if memo is None else _decoded(alg, got)) == expect


def test_warm_chain_charges_a_cached_word_against_a_smaller_budget():
    # The chain holds the whole word with its fold steps, so a second call
    # under a smaller budget fails before folding any letter.
    alg = fixture_algebra()
    word = ("x", "x", "y", "y")
    chain = sh.SuffixChain()
    got = sh.normalize(alg, word, 10**6, chain)
    assert _decoded(alg, got) == {("y",) * 8 + ("x", "x"): 1}
    with pytest.raises(sh.StepBudgetExceeded):
        sh.normalize(alg, word, 5, chain)


def test_chain_letter_cap_counts_every_held_form(monkeypatch):
    # nf(x^k y) = y^(2^k) x^k, so folding x^a y leaves the chain holding the
    # forms of x^k y for k = 0 .. a: 2^(a+1) - 1 + a(a+1)/2 letters in all,
    # the forms it reused from a warm chain included.
    alg = fixture_algebra()
    a = 10
    word = ("x",) * a + ("y",)
    held = 2 ** (a + 1) - 1 + a * (a + 1) // 2
    expect = {("y",) * 2**a + ("x",) * a: 1}
    monkeypatch.setattr(rewriting, "NF_LETTER_CAP", held)
    assert _decoded(alg, sh.normalize(alg, word, memo=sh.SuffixChain())) == expect
    monkeypatch.setattr(rewriting, "NF_LETTER_CAP", held - 1)
    warm = sh.SuffixChain()
    sh.normalize(alg, word[1:], memo=warm)
    for memo in (sh.SuffixChain(), warm):
        with pytest.raises(ValueError, match=f"more than {held - 1} letters in a suffix chain"):
            sh.normalize(alg, word, memo=memo)
    # A whole-word rewrite keeps no forms.
    assert sh.normalize(alg, word) == expect


def test_memo_ignored_on_uncertified_presentation():
    # Folding "x y z" from the right would give "x v"; the leftmost-longest
    # strategy gives "u z", and stays in force when the chain is passed.
    chain = sh.SuffixChain()
    alg = _leftmost_algebra()
    assert _decoded(alg, sh.normalize(alg, ("y", "z"), memo=chain)) == {("v",): 1}
    assert _decoded(alg, sh.normalize(alg, ("x", "y", "z"), memo=chain)) == {("u", "z"): 1}
    with pytest.raises(sh.StepBudgetExceeded):
        sh.normalize(_pingpong_algebra(), ("x", "y"), 99, sh.SuffixChain())


# ---------------------------------------------------------------- periodic runs


@pytest.fixture
def runs(monkeypatch):
    """The lengths of the step runs the engine took in one splice."""
    seen = []
    splice_run = rewriting._splice_run

    def counted(*args):
        n, state = splice_run(*args)
        if n > 1:
            seen.append(n)
        return n, state

    monkeypatch.setattr(rewriting, "_splice_run", counted)
    return seen


def _random_coef(rng, field):
    if rng.random() < 0.5:
        return field.one
    if isinstance(field, sh.RationalField):
        return Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 4))
    return rng.randrange(2, field.p)


def _random_presentation(rng, alpha, letters, field):
    """1-3 rules over letters, lhs of 1-3 letters, a fifth of them two-term."""
    rules = []
    while len(rules) < rng.randint(1, 3):
        lhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        words = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                 for _ in range(2 if rng.random() < 0.2 else 1)}
        try:
            rules.append(sh.RewriteRule(lhs, tuple((w, _random_coef(rng, field)) for w in words)))
        except ValueError:
            continue
    return sh.AlgebraSpec(alpha, rules, field)


def _periodic_words(rng, alg, letters):
    # Random words, x y^K and x x y^K shapes over random letters, and an
    # lhs followed by many copies of a block.
    words = _random_words(rng, letters, 3, 8)
    x, y = rng.sample(letters, 2)
    K = rng.randint(10, 40)
    words += [(x,) + (y,) * K, (x, x) + (y,) * K]
    lhs = rng.choice(alg.rules).lhs
    block = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
    words.append(lhs[:-1] + block * rng.randint(5, 20) + lhs[-1:])
    words.append(lhs + block * rng.randint(5, 20))
    return words


@pytest.mark.parametrize("field, size, letters", [
    pytest.param(sh.PrimeField(7), 3, (0, 1, 2), id="F7"),
    pytest.param(sh.RationalField(), 3, (0, 1, 2), id="Q"),
    pytest.param(sh.PrimeField(7), 300, (1, 130, 255, 256), id="F7-wide"),
    pytest.param(sh.RationalField(), 300, (128, 255, 256, 299), id="Q-wide"),
])
def test_periodic_runs_match_naive_rewriter(runs, field, size, letters):
    # A run of identical steps taken in one splice gives the normal form, the
    # step count and the budget verdict of one step at a time.  letters are
    # codes, that is positions in name order; a str holding a code of 256 or
    # more stores two bytes per code point.
    alpha = _trivial_alphabet(*(f"s{i}" for i in range(size)))
    letters = [sorted(alpha.symbols)[i] for i in letters]
    rng = random.Random(11)
    budget = 1000
    exhausted = 0
    for _ in range(50):
        alg = _random_presentation(rng, alpha, letters, field)
        for word in _periodic_words(rng, alg, letters):
            try:
                expect, steps = _naive_normalize(alg, word, budget)
            except sh.StepBudgetExceeded:
                exhausted += 1
                with pytest.raises(sh.StepBudgetExceeded):
                    sh.normalize(alg, word, budget)
                continue
            assert sh.normalize(alg, word, budget) == expect
            if steps == 0:
                continue
            assert sh.normalize(alg, word, steps) == expect
            for short in {steps - 1, rng.randrange(steps)} - {0}:
                with pytest.raises(sh.StepBudgetExceeded):
                    sh.normalize(alg, word, short)
    assert len(runs) > 50
    assert exhausted > 0


@pytest.mark.parametrize("field, coef", [
    pytest.param(sh.PrimeField(7), 3, id="F7"),
    pytest.param(sh.RationalField(), Fraction(-2, 3), id="Q"),
])
def test_periodic_run_multiplies_coefficient_power(runs, field, coef):
    # x y -> c y y x moves x through y^K in K steps, so nf = c^K y^2K x.
    alg = sh.AlgebraSpec(
        z2_alphabet(), [sh.RewriteRule(("x", "y"), ((("y", "y", "x"), coef),))], field
    )
    value = _oracle_value(field)
    for K in (1, 2, 5, 50, 257):
        word = ("x",) + ("y",) * K
        expect = {("y",) * (2 * K) + ("x",): value(coef**K)}
        assert expect == _naive_normalize(alg, word, K)[0]
        got = sh.normalize(alg, word, K)
        assert got == expect
        assert all(type(c) is type(field.one) for c in got.values())
    assert max(runs) > 200
    # The run's power in the engine's working ring is repeated multiplication.
    ring, ((_, c),) = alg._ring, alg._rhss[1]
    assert ring.pow(c, 0) == ring.one
    assert ring.pow(c, 3) == ring.mul(c, ring.mul(c, c))


def test_budget_runs_out_inside_a_periodic_run(runs):
    # x y^50 takes 50 steps, all but a few of them in one splice; a budget of
    # 25 runs out inside it and still raises.
    alg = fixture_algebra()
    word = ("x",) + ("y",) * 50
    with pytest.raises(sh.StepBudgetExceeded):
        sh.normalize(alg, word, 25)
    assert len(runs) == 1 and runs[0] > 25
    assert sh.normalize(alg, word, 50) == {("y",) * 100 + ("x",): 1}


@pytest.mark.parametrize("codes", [
    pytest.param((0, 1, 2, 3), id="narrow"),
    pytest.param((1, 0xD800, 65536, 255), id="wide"),
])
@pytest.mark.parametrize("rhs", ["abx", "abbx"], ids=["moves", "grows"])
def test_periodic_run_of_a_two_letter_block_stops_inside_a_copy(monkeypatch, codes, rhs):
    # x a b -> rhs moves x through (a b)^K one copy per step, so the block Q
    # of the run is "a b" (q = 2).  The word ends in a c, the first letter of
    # a copy and then another, where the count of copies of a b stops.
    # After two single steps the other K - 2 steps are one splice, and every
    # step is charged.
    seen = []
    splice_run = rewriting._splice_run

    def counted(state, start, o, pos, end, rword, back):
        n, new = splice_run(state, start, o, pos, end, rword, back)
        seen.append((n, o - back + end - pos - len(rword)))
        return n, new

    monkeypatch.setattr(rewriting, "_splice_run", counted)
    symbol = dict(zip("xabc", (_WIDE_NAMES[i] for i in codes)))
    alg = sh.AlgebraSpec(
        _trivial_alphabet(*(f"s{i}" for i in range(_WIDE_SIZE))),
        [sh.RewriteRule(tuple(map(symbol.get, "xab")), ((tuple(map(symbol.get, rhs)), 1),))],
    )
    # The longer runs take _RUN copies a match, ending on a boundary of
    # those matches or past one.
    RUN = rewriting._RUN
    for K in (3, 4, 7, 40, RUN + 2, 2 * RUN + 2, 2 * RUN + 3):
        word = tuple(map(symbol.get, "x" + "ab" * K + "ac"))
        expect = {tuple(map(symbol.get, rhs[:-1] * K + "xac")): 1}
        if K < 100:
            assert _naive_normalize(alg, word, 10**6) == (expect, K)
        seen.clear()
        assert sh.normalize(alg, word, K) == expect
        assert seen == [(K - 2, 2)]
        with pytest.raises(sh.StepBudgetExceeded):
            sh.normalize(alg, word, K - 1)


def test_long_run_of_a_two_letter_block_is_counted_in_bounded_memory():
    # x (a b)^K c under x a b -> a b x takes K steps, all but two in one
    # splice.  Counting the copies of a b holds a few copies of the 2K-symbol
    # state (2 MB each here), not a record per copy: one unbounded regex
    # match of (?:a b)* kept about 64 bytes per copy, over 60 MiB at this K.
    K = 10**6
    alg = sh.AlgebraSpec(
        _trivial_alphabet("a", "b", "c", "x"),
        [sh.RewriteRule(("x", "a", "b"), ((("a", "b", "x"), 1),))],
    )
    mono = alg._encode(("x",) + ("a", "b") * K + ("c",))
    tracemalloc.start()
    try:
        form, steps = rewriting._rewrite(alg, {mono: [1, 0]}, 0, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == K
    assert form == {alg._encode(("a", "b") * K + ("x", "c")): 1}
    assert peak < 24 * 2**20


def test_long_closed_form_words_take_exact_steps_quickly():
    # nf(x^a y^K) = y^(K 2^a) x^a in exactly K (2^a - 1) steps under
    # x y -> y y x.  One step at a time, each step moves the whole tail, and
    # x y^1000000 took about 14 s on a 2-core Xeon VM; one splice takes it in
    # well under a second.  The x's of x x y^K move in lockstep, so no run
    # repeats there; the memo path folds every suffix y^j, so it gets a
    # shorter K.
    script = (
        "import shirshov as sh\n"
        "g = sh.build_group(sh.cyclic(2))\n"
        "alpha = sh.GradedAlphabet(g, [('x', 1), ('y', 0)])\n"
        "alg = sh.AlgebraSpec(alpha, [sh.RewriteRule(('x', 'y'), ((('y', 'y', 'x'), 1),))])\n"
        "for a, K, memo in ((1, 1000000, None), (2, 20000, None), (1, 3000, 'chain'),\n"
        "                   (2, 3000, 'chain')):\n"
        "    word = ('x',) * a + ('y',) * K\n"
        "    steps = K * ((1 << a) - 1)\n"
        "    chain = sh.SuffixChain() if memo else None\n"
        "    nf = sh.normalize(alg, word, steps, chain)\n"
        "    if chain:  # code point i is the i-th symbol in sorted name order\n"
        "        names = sorted(alpha.symbols)\n"
        "        nf = {tuple(names[ord(c)] for c in m): v for m, v in nf.items()}\n"
        "    assert nf == {('y',) * (K << a) + ('x',) * a: 1}, (a, K)\n"
        "    try:\n"
        "        sh.normalize(alg, word, steps - 1, chain)\n"
        "    except sh.StepBudgetExceeded:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'budget {steps - 1} passed on {a}, {K}, {memo}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=20)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- confluence


def test_check_confluence_certifies_fixture_and_branching():
    for alg in (fixture_algebra(), branching_algebra(), _wide_algebra()):
        cert = sh.check_confluence(alg)
        assert cert.confluent and cert.unresolved is None
        assert sh.check_confluence(alg) is cert  # cached on the spec
    free = sh.AlgebraSpec(alphabet=z2_alphabet(), rules=[])
    assert sh.check_confluence(free) == sh.Confluence(resolved=0, unresolved=None)


def test_check_confluence_counts_resolved_ambiguities():
    # The self-overlap "a a a" of a a -> b gives "b a" and "a b"; the
    # commuting rule b a -> a b joins them, and its overlap "b a a" with
    # a a -> b resolves to "a a b" -> "b b" both ways.
    alg = sh.AlgebraSpec(
        alphabet=_trivial_alphabet("a", "b"),
        rules=[
            sh.RewriteRule(lhs=("a", "a"), rhs=((("b",), 1),)),
            sh.RewriteRule(lhs=("b", "a"), rhs=((("a", "b"), 1),)),
        ],
    )
    cert = sh.check_confluence(alg)
    assert cert.confluent and cert.resolved == 2


def test_check_confluence_reports_first_unresolved_ambiguity():
    cert = sh.check_confluence(_leftmost_algebra())
    assert not cert.confluent
    assert cert.unresolved == sh.Ambiguity(
        "overlap", (0, 1), ("x", "y", "z"), {("u", "z"): 1}, {("x", "v"): 1}
    )
    cert = sh.check_confluence(_equal_length_algebra())
    assert cert.unresolved == sh.Ambiguity(
        "overlap", (0, 0), ("a", "a", "a"), {("b", "a"): 1}, {("a", "b"): 1}
    )
    cert = sh.check_confluence(_pingpong_algebra(), step_budget=50)
    assert cert.unresolved == sh.Ambiguity("overlap", (0, 1), ("x", "y", "x"), None, None)


def test_check_confluence_finds_inclusions():
    alg = sh.AlgebraSpec(
        alphabet=_trivial_alphabet("a", "b", "c"),
        rules=[
            sh.RewriteRule(lhs=("a", "b", "c"), rhs=((("c",), 1),)),
            sh.RewriteRule(lhs=("b",), rhs=((("c",), 1),)),
        ],
    )
    cert = sh.check_confluence(alg)
    assert cert.unresolved == sh.Ambiguity(
        "inclusion", (0, 1), ("a", "b", "c"), {("c",): 1}, {("a", "c", "c"): 1}
    )


@pytest.mark.parametrize("x_y, u_z, s_z", [
    # (1/2)(4/3) against (2/3)(1): equal products of different factors.
    pytest.param(((("u",), Fraction(1, 2)),), Fraction(4, 3), None, id="products"),
    # (1/2) + (1/2)(1/3) against (2/3): equal sums of different terms.
    pytest.param(((("u",), Fraction(1, 2)), (("s",), Fraction(1, 2))), 1, Fraction(1, 3),
                 id="sums"),
])
def test_check_confluence_compares_values_not_their_derivations(x_y, u_z, s_z):
    # The ambiguity x y z resolves to the same multiple of t both ways, by
    # different arithmetic, so each value must have one representation.
    rules = [
        sh.RewriteRule(("x", "y"), x_y),
        sh.RewriteRule(("y", "z"), ((("v",), Fraction(2, 3)),)),
        sh.RewriteRule(("u", "z"), ((("t",), u_z),)),
        sh.RewriteRule(("x", "v"), ((("t",), 1),)),
    ]
    if s_z is not None:
        rules.append(sh.RewriteRule(("s", "z"), ((("t",), s_z),)))
    alg = sh.AlgebraSpec(_trivial_alphabet("x", "y", "z", "u", "v", "s", "t"), rules,
                         sh.RationalField())
    assert sh.check_confluence(alg) == sh.Confluence(resolved=1, unresolved=None)
    assert sh.normalize(alg, ("x", "y", "z")) == {("t",): Fraction(2, 3)}


def test_check_confluence_validates_budget():
    with pytest.raises(ValueError):
        sh.check_confluence(fixture_algebra(), step_budget=0)


# ---------------------------------------------------------------- JSON


def test_algebra_json_round_trip():
    doc = {
        "alphabet": {
            "group": {"cyclic": 2},
            "generators": [{"sym": "x", "grade": 1}, {"sym": "y", "grade": 0}],
        },
        "rules": [
            {"lhs": ["x", "y"], "rhs": [{"coef": "1", "word": ["y", "y", "x"]}]}
        ],
        "field": {"prime": 1000003},
    }
    alg = sh.algebra_from_json(doc)
    assert sh.algebra_to_json(alg) == doc
    assert sh.normalize(alg, ("x", "y")) == {("y", "y", "x"): 1}


def test_algebra_json_defaults_to_prime_field():
    doc = {
        "alphabet": {
            "group": {"cyclic": 1},
            "generators": [{"sym": "a", "grade": 0}],
        },
        "rules": [],
    }
    alg = sh.algebra_from_json(doc)
    assert alg.field == sh.PrimeField()


def test_algebra_json_rational_coefficients():
    doc = {
        "alphabet": {
            "group": {"cyclic": 1},
            "generators": [{"sym": "a", "grade": 0}, {"sym": "b", "grade": 0}],
        },
        "rules": [
            {"lhs": ["a", "a"], "rhs": [{"coef": "1/2", "word": ["b"]}]}
        ],
        "field": {"rationals": True},
    }
    alg = sh.algebra_from_json(doc)
    assert sh.normalize(alg, ("a", "a")) == {("b",): Fraction(1, 2)}
    assert sh.algebra_to_json(alg)["rules"][0]["rhs"][0]["coef"] == "1/2"


def test_algebra_json_rejects_malformed():
    base = {
        "alphabet": {
            "group": {"cyclic": 1},
            "generators": [{"sym": "a", "grade": 0}],
        },
    }
    for rules in ([{"lhs": ["a"]}], [{"rhs": []}], "rules", [42]):
        with pytest.raises(ValueError):
            sh.algebra_from_json({**base, "rules": rules})
