"""Spanning certificates for powered products: ranks, base checks, graded checks.

A base set S witnesses spanning at height h and degree d when every
irreducible (normal-form) monomial of length at most d lies in the linear
span of normalized powered products a_1^{k_1} * ... * a_j^{k_j} with j <= h
factors from S.  Products are enumerated up to an expansion-length cap D, so
a not-witnessed verdict is inconclusive: spanning might only show up at a
larger D.  Ranks are computed by exact elimination, fraction-free over the
rationals and ordinary Gaussian elimination over F_p.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import rewriting
from .rewriting import (
    AlgebraSpec,
    LinComb,
    PrimeField,
    StepBudgetExceeded,
    SuffixChain,
    _check_budget,
    _rewrite,
    check_confluence,
    normalize,
)
from .words import Word, grade_of, height_bound

__all__ = [
    "WITNESSED",
    "NOT_WITNESSED",
    "VIOLATED",
    "PoweredProduct",
    "SpanReport",
    "RowEchelon",
    "enumerate_products",
    "is_shirshov_base",
    "check_graded_theorem",
    "report_to_json",
]

WITNESSED = "witnessed-spanning"
NOT_WITNESSED = "not-witnessed"
VIOLATED = "violated-invariant"

# A check builds at most ENUM_CAP powered products and ENUM_CAP target words,
# and their expansions, like the target words, hold at most LETTER_CAP
# letters in all; each is counted before or while anything is built.
ENUM_CAP = 1_000_000
LETTER_CAP = 10_000_000


# Deglex keys apply to symbol tuples and to interned strings alike: both
# compare symbol by symbol in name order.
def _deglex(mono: Word | str) -> tuple[int, Word | str]:
    return (len(mono), mono)


@dataclass(frozen=True)
class PoweredProduct:
    """Product of powers ((base word, exponent), ...) with distinct neighbors."""

    __slots__ = ("factors", "__weakref__")

    factors: tuple[tuple[Word, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a powered product has at least one factor.")
        for base, exp in self.factors:
            if not base:
                raise ValueError("powered-product bases must be nonempty words.")
            if type(exp) is not int or exp < 1:
                raise ValueError(f"exponent must be an integer >= 1, got {exp!r}.")
        for (a, _), (b, _) in zip(self.factors, self.factors[1:]):
            if a == b:
                raise ValueError(
                    f"consecutive factors share the base {' '.join(a)!r}; "
                    "merge them into one power."
                )

    @property
    def count(self) -> int:
        return len(self.factors)

    @property
    def expansion_length(self) -> int:
        return sum(len(base) * exp for base, exp in self.factors)

    def expansion(self) -> Word:
        out: list[str] = []
        for base, exp in self.factors:
            out.extend(base * exp)
        return tuple(out)

    def __reduce__(self):
        # Frozen slots block the setattr that restores state, so rebuild.
        return (PoweredProduct, (self.factors,))


def enumerate_products(
    bases: Sequence[Sequence[str]], h: int, D: int
) -> list[PoweredProduct]:
    """All powered products with count <= h and expansion length <= D.

    The result is deterministic: sorted by factor count, then
    lexicographically by the factor tuples themselves, the order in which
    the level-by-level walk builds them.  The products are counted first:
    more than ENUM_CAP, or more than LETTER_CAP letters in their expansions,
    raise ValueError before any is built.
    """
    if h < 1:
        raise ValueError(f"height must be >= 1, got {h}.")
    if D < 1:
        raise ValueError(f"expansion cap must be >= 1, got {D}.")
    uniq = list(dict.fromkeys(map(tuple, bases)))
    if () in uniq:
        raise ValueError("base words must be nonempty.")
    _count_products([len(w) for w in uniq], h, D)  # raises past either cap

    # Level j + 1 extends the level-j products in their sorted order, each by
    # the bases in tuple order and then by ascending exponent, so every level
    # comes out sorted.  The products are valid by construction and skip
    # __post_init__; the one-factor tails are shared.
    uniq.sort()
    tails = [(base, len(base), [((base, e),) for e in range(1, D // len(base) + 1)])
             for base in uniq]
    new, put, cls = object.__new__, object.__setattr__, PoweredProduct
    out: list[PoweredProduct] = []
    for base, _, ends in tails:
        for tail in ends:
            p = new(cls)
            put(p, "factors", tail)
            out.append(p)
    lo = 0
    for _ in range(h - 1):
        hi = len(out)
        if lo == hi:  # an empty level has no extensions either
            break
        for k in range(lo, hi):
            prefix = out[k].factors
            room = D - sum(len(b) * e for b, e in prefix)
            last = prefix[-1][0]
            for base, blen, ends in tails:
                # Every factor holds a base object from tails, so "is" tests it.
                if base is last or blen > room:
                    continue
                for tail in ends[: room // blen]:
                    p = new(cls)
                    put(p, "factors", prefix + tail)
                    out.append(p)
        lo = hi
    return out


def _count_products(lengths: Sequence[int], h: int, D: int) -> int:
    """How many products enumerate_products builds.

    More than ENUM_CAP products, or more than LETTER_CAP letters in their
    expansions, raise ValueError.  The count depends only on the base
    lengths, so bases of one length share a row: ends[l][L] counts the
    products of j factors that end in a given base of length l and expand to
    exactly L letters.  Entries are clipped at ENUM_CAP + 1: below the clip
    every entry is exact, and one reaching it means the total is past
    ENUM_CAP, which ends the count.
    """

    def too_large(what: str) -> ValueError:
        return ValueError(f"expansion cap too large: more than {what} "
                          f"with height <= {h} and expansion length <= {D}.")

    clip = ENUM_CAP + 1
    single = sum(D // l for l in lengths)
    if single >= clip:
        raise too_large(f"{ENUM_CAP} powered products")
    if h == 1 or len(lengths) < 2:
        # Only the powers base^e, e = 1 .. D // l, of l * e letters each.
        if sum(l * (D // l) * (D // l + 1) // 2 for l in lengths) > LETTER_CAP:
            raise too_large(f"{LETTER_CAP} letters in the powered products")
        return single
    # Products p^a q^b and q^a p^b of the two shortest bases bound D, and with
    # it the arrays below, before they are made.
    p, q = sorted(lengths)[:2]
    if single + 2 * int(((D - q * np.arange(1, (D - p) // q + 1)) // p).sum()) >= clip:
        raise too_large(f"{ENUM_CAP} powered products")
    sizes = Counter(lengths)
    ends = {l: np.zeros(D + 1, dtype=np.int64) for l in sizes}
    every = np.zeros(D + 1, dtype=np.int64)  # products of j factors by length
    every[0] = 1  # the empty product, which any base may extend
    span = np.arange(D + 1, dtype=np.int64)
    total = letters = 0
    for _ in range(min(h, D // p)):  # no product has more than D // p factors
        for l in sizes:
            # Extend every product not ending in this base by base^e, e >= 1:
            # a cumulative sum along stride l, shifted by l.
            ext = np.zeros(-(-(D + 1 + l) // l) * l, dtype=np.int64)
            ext[l : l + D + 1] = every - ends[l]
            ends[l] = np.minimum(ext.reshape(-1, l).cumsum(axis=0).ravel()[: D + 1], clip)
        every = sum(c * ends[l] for l, c in sizes.items())
        total += int(every.sum())
        if total >= clip:
            raise too_large(f"{ENUM_CAP} powered products")
        letters += int(every @ span)
        if letters > LETTER_CAP:
            raise too_large(f"{LETTER_CAP} letters in the powered products")
    return total


def _primitive_bases(bases: Sequence[Word]) -> list[Word]:
    """The distinct bases, less every proper power of another base.

    With r^j and r^i both bases and j | i, a factor (r^i)^e is the factor
    (r^j)^(e*i/j), merged with a neighbouring power of r^j if there is one:
    the same expansion, no longer, and with no more factors.  So dropping
    r^i leaves the set of expansions the same at every height and expansion
    cap.  Bases are grouped by primitive root r, and each exponent i is
    tested against its divisors only.
    """
    code: dict[str, str] = {}
    powers: dict[Word, set[int]] = {}
    rooted = []
    for w in dict.fromkeys(bases):
        s = "".join(code.setdefault(sym, chr(len(code))) for sym in w)
        # The shortest rotation of w onto itself has length p | len(w), and
        # w is (w[:p])^(len(w) / p) with w[:p] primitive.
        p = (s + s).find(s, 1)
        rooted.append((w, w[:p], len(w) // p))
        powers.setdefault(w[:p], set()).add(len(w) // p)

    def proper_power(root: Word, i: int) -> bool:
        exps = powers[root]
        return any(i % j == 0 and ((j < i and j in exps) or (j > 1 and i // j in exps))
                   for j in range(1, math.isqrt(i) + 1))

    return [w for w, root, i in rooted if not proper_power(root, i)]


def _live_bases(spec: AlgebraSpec, bases: Sequence[Word], D: int,
                step_budget: int | None) -> list[Word]:
    """The bases of at most D letters whose normal form is not 0.

    Only for a confluent presentation: there nf(u b v) = nf(u nf(b) v), so
    a product with a base whose normal form is 0 is itself 0.  Each base is
    rewritten by the engine, not by normalize, so that normalize is called
    once per row; a base that exhausts the step budget is kept.
    """
    budget = _check_budget(step_budget)
    one = spec._ring.one
    live = []
    for b in bases:
        if len(b) > D:
            continue
        try:
            if not _rewrite(spec, {spec._encode(b): [one, 0]}, 0, budget)[0]:
                continue
        except StepBudgetExceeded:
            pass
        live.append(b)
    return live


class RowEchelon:
    """Incremental exact row echelon keyed by deglex-leading monomials.

    Rows are {monomial: coefficient} maps, brought to integers on entry:
    residues in [1, p) over F_p, and over Q the row times the lcm of its
    denominators.  Both fields share one elimination: the pivot of a row's
    leading monomial, scaled, is subtracted from the row in place, mod p
    over F_p and fraction-free over Q, where the row is kept primitive by
    dividing out the gcd of its coefficients.  Pivots are stored monic over
    F_p and with a positive leading coefficient over Q.  The pivots hold at
    most rewriting.NF_LETTER_CAP letters in their monomials; a row that
    would pass it raises ValueError and is not stored.
    """

    def __init__(self, field):
        self.field = field
        # The field's characteristic: p over F_p, 0 over Q.
        self._p = field.p if isinstance(field, PrimeField) else 0
        self._pivots: dict[Word | str, dict] = {}
        self._letters = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, row: LinComb) -> dict:
        """Residual of a row against the current basis (empty iff in the span)."""
        p = self._p
        if p:
            row = {w: r for w, c in row.items() if (r := c % p)}
        else:
            # Pairwise: math.lcm(*genexpr) raised branching-q's peak by a
            # pymalloc arena (about 1.2 MiB).
            den = 1
            for c in row.values():
                den = math.lcm(den, c.denominator)
            row = {w: c.numerator * (den // c.denominator) for w, c in row.items() if c}
        while row:
            if not p:
                g = math.gcd(*row.values())
                if g > 1:
                    for w in row:
                        row[w] //= g
            lead = max(row, key=_deglex)
            piv = self._pivots.get(lead)
            if piv is None:
                break
            # row <- a * row - b * piv, where a is 1 over F_p.
            a, b = piv[lead], row[lead]
            if a != 1:
                for w in row:
                    row[w] *= a
            for w, c in piv.items():
                v = row.pop(w, 0) - b * c
                if p:
                    v %= p
                if v:
                    row[w] = v
        return row

    def add(self, row: LinComb) -> bool:
        """Insert a row; True if it increased the rank."""
        res = self.reduce(row)
        if not res:
            return False
        letters = self._letters + sum(map(len, res))
        if letters > rewriting.NF_LETTER_CAP:
            raise ValueError(f"normal forms too large: more than {rewriting.NF_LETTER_CAP} "
                             "letters in the echelon's rows.")
        lead = max(res, key=_deglex)
        top, p = res[lead], self._p
        if p and top != 1:
            f = pow(top, -1, p)
            for w in res:
                res[w] = res[w] * f % p
        elif top < 0:
            for w in res:
                res[w] = -res[w]
        self._letters = letters
        self._pivots[lead] = res
        return True


def _irreducible_words(spec: AlgebraSpec, d: int) -> list[Word]:
    # Every prefix of an irreducible word is irreducible, so grow words one
    # letter at a time and only test for a left-hand side ending at the new
    # last letter.
    symbols = spec.alphabet.symbols
    lhss = [rule.lhs for rule in spec.rules]
    out: list[Word] = []
    layer: list[Word] = [()]
    count = letters = 0
    for _ in range(d):
        if not layer:  # no longer word is irreducible either
            break
        grown: list[Word] = []
        for w in layer:
            for sym in symbols:
                nw = w + (sym,)
                if any(nw[-len(l) :] == l for l in lhss if len(l) <= len(nw)):
                    continue
                count += 1
                letters += len(nw)
                if count > ENUM_CAP:
                    raise ValueError(
                        f"degree cap too large: more than {ENUM_CAP} words of length <= {d}."
                    )
                if letters > LETTER_CAP:
                    raise ValueError(f"degree cap too large: more than {LETTER_CAP} "
                                     f"letters in the words of length <= {d}.")
                grown.append(nw)
        layer = grown
        out.extend(layer)
    return out


@dataclass(frozen=True)
class SpanReport:
    """Outcome of a spanning check; missing lists unreached normal monomials.

    confluent tells whether check_confluence certified the presentation;
    when it did not, normal forms, and with them the verdict, depend on the
    rewriting strategy.
    """

    verdict: str
    degree_cap: int
    expansion_cap: int
    height: int
    rank_products: int
    rank_joint: int
    missing: tuple[Word, ...]
    confluent: bool
    neutral: Optional["SpanReport"] = None

    @property
    def witnessed(self) -> bool:
        return self.verdict == WITNESSED


def report_to_json(report: SpanReport) -> dict:
    out: dict = {
        "verdict": report.verdict,
        "d": report.degree_cap,
        "D": report.expansion_cap,
        "height": report.height,
        "rank_products": report.rank_products,
        "rank_joint": report.rank_joint,
        "missing": [list(w) for w in report.missing],
        "confluent": report.confluent,
        "neutral": None if report.neutral is None else report_to_json(report.neutral),
    }
    return out


def _span_check(
    spec: AlgebraSpec,
    bases: Sequence[Word],
    h: int,
    d: int,
    D: int,
    targets: Sequence[Word],
    step_budget: int | None,
) -> SpanReport:
    confluent = check_confluence(spec, step_budget).confluent
    # A proper power of another base adds no expansion, and on a confluent
    # presentation a base with normal form 0 adds only products that are 0,
    # so only the primitive live bases are enumerated, and the caps count
    # their products.  In reversed-word order each expansion shares the
    # longest available suffix with the one before, which the chain then
    # reuses.  Ranks and residual leading monomials do not depend on the
    # order of insertion.  The expansions are collected reversed, so they
    # sort without a key, which would hold a second tuple per expansion
    # while sorting.
    bases = _primitive_bases(bases)
    if confluent:
        bases = _live_bases(spec, bases, D, step_budget)
    reversed_expansions = sorted({p.expansion()[::-1] for p in enumerate_products(bases, h, D)})

    echelon = RowEchelon(spec.field)
    chain = SuffixChain()
    for w in reversed_expansions:
        nf = normalize(spec, w[::-1], step_budget, chain)
        if nf:
            echelon.add(nf)
    rank_products = echelon.rank

    # Reduce every target against the products first, then extend the same
    # echelon by the ones left over to read the joint rank.  A target is
    # irreducible, so the chain takes no step on it; passing the chain keeps
    # its monomials interned like the products', and only missing is decoded.
    missing: set[str] = set()
    outside: list[LinComb] = []
    for mono in targets:
        nf = normalize(spec, mono, step_budget, chain)
        residual = echelon.reduce(nf)
        if residual:
            missing.add(max(residual, key=_deglex))
            outside.append(nf)
    for nf in outside:
        echelon.add(nf)
    rank_joint = echelon.rank

    verdict = WITNESSED if not missing else NOT_WITNESSED
    if (not missing) != (rank_joint == rank_products):
        verdict = VIOLATED  # defensive; rank and membership disagree
    return SpanReport(
        verdict=verdict,
        degree_cap=d,
        expansion_cap=D,
        height=h,
        rank_products=rank_products,
        rank_joint=rank_joint,
        missing=tuple(map(spec._word, sorted(missing, key=_deglex))),
        confluent=confluent,
    )


def _check_args(
    spec: AlgebraSpec, S: Sequence[Sequence[str]], h: int, d: int, D: int | None,
    step_budget: int | None,
) -> tuple[list[Word], int]:
    _check_budget(step_budget)  # before any target is enumerated
    if h < 1:
        raise ValueError(f"height must be >= 1, got {h}.")
    if d < 1:
        raise ValueError(f"degree cap must be >= 1, got {d}.")
    if D is None:
        D = 2 * d
    if D < d:
        raise ValueError(f"expansion cap D={D} must be >= degree cap d={d}.")
    bases = []
    for w in S:
        w = tuple(w)
        if not w:
            raise ValueError("base words must be nonempty.")
        for sym in w:
            spec.alphabet.grade(sym)
        bases.append(w)
    return bases, D


def is_shirshov_base(
    spec: AlgebraSpec,
    S: Sequence[Sequence[str]],
    h: int,
    d: int,
    D: int | None = None,
    step_budget: int | None = None,
) -> SpanReport:
    """Check whether S witnesses spanning by powered products of height h.

    Every irreducible monomial of length <= d must lie in the span of the
    normalized expansions of powered products over S with at most h factors
    and expansion length <= D (default 2*d).  A not-witnessed verdict lists
    missing monomials but does not disprove spanning at a larger D.
    """
    bases, D = _check_args(spec, S, h, d, D, step_budget)
    return _span_check(spec, bases, h, d, D, _irreducible_words(spec, d), step_budget)


def check_graded_theorem(
    spec: AlgebraSpec,
    S_e: Sequence[Sequence[str]],
    h: int,
    d: int,
    D: int | None = None,
    step_budget: int | None = None,
) -> SpanReport:
    """Two-phase check: S_e spans the identity-grade part at height h, and
    S_e plus the generators span everything at height (h+1)*|G| - 1.

    S_e must consist of identity-grade words.  The returned report carries
    the phase-(ii) ranks and height, the union of both phases' missing
    monomials, and the phase-(i) report under .neutral; the verdict is
    witnessed-spanning only when both phases are.  Over the trivial group the
    two phases coincide and the check reduces to is_shirshov_base.
    """
    bases, D = _check_args(spec, S_e, h, d, D, step_budget)
    alphabet = spec.alphabet
    for w in bases:
        g = grade_of(alphabet, w)
        if g != 0:
            raise ValueError(
                f"base word {' '.join(w)!r} has grade {alphabet.group.name_of(g)}, "
                "not the identity."
            )
    targets = _irreducible_words(spec, d)
    m = alphabet.group.order
    if m == 1:
        return _span_check(spec, bases, h, d, D, targets, step_budget)

    identity = [w for w in targets if grade_of(alphabet, w) == 0]
    neutral = _span_check(spec, bases, h, d, D, identity, step_budget)

    # _primitive_bases drops the generators already in S_e and their powers.
    full = bases + [(sym,) for sym in alphabet.symbols]
    total = _span_check(spec, full, height_bound(h, m), d, D, targets, step_budget)

    if VIOLATED in (neutral.verdict, total.verdict):
        verdict = VIOLATED
    elif neutral.witnessed and total.witnessed:
        verdict = WITNESSED
    else:
        verdict = NOT_WITNESSED
    missing = tuple(sorted(set(neutral.missing) | set(total.missing), key=_deglex))
    return replace(total, verdict=verdict, missing=missing, neutral=neutral)
