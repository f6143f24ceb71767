"""String rewriting to normal forms in finitely presented graded algebras.

An algebra is presented by a graded alphabet and rewrite rules sending a
word (the left-hand side) to a linear combination of words.  normalize()
repeatedly replaces the leftmost occurrence of a longest-matching left-hand
side in each monomial and collects like terms, e.g. under the single rule
"x y" -> "y y x" the word "x x y" normalizes to "y y y y x x".  Monomials are
held as interned strings, one code point per symbol, and redexes are found
by one compiled regular expression.  check_confluence() certifies, by
Bergman's diamond lemma, that the normal form does not depend on the
rewriting strategy; only then may normalize() reuse suffix normal forms
through a SuffixChain.
Termination of the presentation is the caller's assertion; a step budget
turns runaway presentations into an error instead of a hang.

Coefficients live in F_p (default p = 1000003) or in the exact rationals.
The engine computes in the field's working ring: F_p itself, and over Q the
canonical integer pairs of _QPairs, since a Fraction operation costs several
times a pair operation.  Rule coefficients enter that ring once, when a spec
is built; normal forms and confluence reports leave it as field values, so
callers only ever see Fractions over Q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from . import _wire
from .words import (
    GradedAlphabet,
    Word,
    alphabet_from_json,
    alphabet_to_json,
    grade_of,
    word_from_json,
)

__all__ = [
    "DEFAULT_PRIME",
    "DEFAULT_STEP_BUDGET",
    "StepBudgetExceeded",
    "PrimeField",
    "RationalField",
    "RewriteRule",
    "AlgebraSpec",
    "Ambiguity",
    "Confluence",
    "SuffixChain",
    "check_confluence",
    "normalize",
    "field_from_json",
    "algebra_from_json",
    "algebra_to_json",
]

DEFAULT_PRIME = 1000003
DEFAULT_STEP_BUDGET = 100_000
# A suffix chain holds, and a spanning check's echelon takes in, at most
# NF_LETTER_CAP letters of normal forms; past it they raise ValueError.
NF_LETTER_CAP = 100_000_000

# A linear combination maps monomial words to nonzero field coefficients.
LinComb = dict


class StepBudgetExceeded(RuntimeError):
    """Raised when normalize() runs out of rewrite steps."""


# Miller-Rabin with the first twelve primes as bases is exact below 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p on plain ints, its own working ring: the engine's add, mul and pow
    give values in [0, p).  The tests' naive rewriter reduces % p itself."""

    # Rule coefficients must be ints; bools are rejected separately.
    _elements = (int,)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not _wire.is_int(p) or p >= 2**64 or not _is_prime(p):
            raise ValueError(f"field modulus must be a prime below 2^64, got {p!r}.")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def pow(self, a: int, k: int) -> int:
        return pow(a, k, self.p)

    def parse(self, s: str) -> int:
        try:
            return int(s, 10) % self.p
        except (TypeError, ValueError):
            raise ValueError(f"bad F_{self.p} coefficient {s!r}.") from None

    def show(self, a: int) -> str:
        return str(a % self.p)

    def to_json(self) -> dict:
        return {"prime": self.p}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    @property
    def _ring(self) -> PrimeField:
        # The rewriting engine computes in F_p itself.
        return self


class _QPairs:
    """Q on canonical integer pairs (n, d): d > 0 and gcd(n, d) = 1.

    The rewriting engine's working ring over the rationals.  Each operation
    reduces its result by one gcd, so a value has exactly one representation,
    equal values compare equal, and the sizes stay those Fraction would have.
    """

    zero = (0, 1)
    one = (1, 1)

    @staticmethod
    def is_zero(a: tuple[int, int]) -> bool:
        return not a[0]

    @staticmethod
    def add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        n, d = a[0] * b[1] + b[0] * a[1], a[1] * b[1]
        g = gcd(n, d)
        return (n // g, d // g)

    @staticmethod
    def mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        n, d = a[0] * b[0], a[1] * b[1]
        g = gcd(n, d)
        return (n // g, d // g)

    @staticmethod
    def pow(a: tuple[int, int], k: int) -> tuple[int, int]:
        # Powers of coprime n and d > 0 stay coprime, with d**k > 0.
        return (a[0] ** k, a[1] ** k)

    @staticmethod
    def lift(c: int | Fraction) -> tuple[int, int]:
        return (c.numerator, c.denominator)

    @staticmethod
    def value(a: tuple[int, int]) -> Fraction:
        return Fraction(a[0], a[1])


class RationalField:
    """The exact rationals as fractions.Fraction, with no arithmetic of its
    own: the rewriting engine computes in the working ring _QPairs, and the
    tests' naive rewriter with Fraction's operators."""

    # Rule coefficients must be ints or Fractions; bools are rejected
    # separately.
    _elements = (int, Fraction)
    _ring = _QPairs

    one = Fraction(1)

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def parse(self, s: str) -> Fraction:
        try:
            return Fraction(s)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"bad rational coefficient {s!r}.") from None

    def show(self, a: Fraction) -> str:
        return str(a)

    def to_json(self) -> dict:
        return {"rationals": True}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __repr__(self) -> str:
        return "RationalField()"


def field_from_json(obj: object):
    obj = _wire.fields(obj, "field", optional=("prime", "rationals"))
    if len(obj) == 1:
        if "prime" in obj:
            return PrimeField(_wire.integer(obj["prime"], "field modulus"))
        if _wire.boolean(obj["rationals"], '"rationals"'):
            return RationalField()
    raise ValueError(f"field must be {{\"prime\": p}} or {{\"rationals\": true}}, got {obj!r}.")


def _check_field(field: object) -> PrimeField | RationalField:
    if not isinstance(field, (PrimeField, RationalField)):
        raise ValueError(f"field must be a PrimeField or a RationalField, got {field!r}.")
    return field


def _contains(hay: Word, needle: Word) -> bool:
    L = len(needle)
    return any(hay[i : i + L] == needle for i in range(len(hay) - L + 1))


@dataclass(frozen=True)
class RewriteRule:
    """lhs word -> linear combination of words, as ((word, coeff), ...)."""

    lhs: Word
    rhs: tuple[tuple[Word, object], ...]

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule lhs must be a nonempty word.")
        for rword, _ in self.rhs:
            if _contains(rword, self.lhs):
                raise ValueError(
                    f"rule lhs {' '.join(self.lhs)!r} occurs in its own rhs "
                    f"monomial {' '.join(rword)!r}; the rule cannot terminate."
                )


def _exhausted(budget: int) -> StepBudgetExceeded:
    return StepBudgetExceeded(
        f"step budget {budget} exhausted while rewriting; "
        "possibly non-terminating presentation."
    )


class AlgebraSpec:
    """A graded alphabet, rewrite rules, and a coefficient field."""

    def __init__(
        self,
        alphabet: GradedAlphabet,
        rules: Sequence[RewriteRule],
        field: PrimeField | RationalField | None = None,
    ):
        field = _check_field(PrimeField() if field is None else field)
        rules = tuple(rules)
        for rule in rules:
            lhs_grade = grade_of(alphabet, rule.lhs)
            seen: set[Word] = set()
            for rword, coef in rule.rhs:
                if isinstance(coef, bool) or not isinstance(coef, field._elements):
                    raise ValueError(
                        f"coefficient {coef!r} on {' '.join(rword)!r} in a rule rhs "
                        f"is not an element of {field!r}."
                    )
                if field.is_zero(coef):
                    raise ValueError(
                        f"zero coefficient on {' '.join(rword)!r} in a rule rhs."
                    )
                if rword in seen:
                    raise ValueError(
                        f"duplicate monomial {' '.join(rword)!r} in a rule rhs."
                    )
                seen.add(rword)
                if grade_of(alphabet, rword) != lhs_grade:
                    raise ValueError(
                        f"rule {' '.join(rule.lhs)!r} is not grade-homogeneous: "
                        f"rhs monomial {' '.join(rword)!r} has a different grade."
                    )
        self.alphabet = alphabet
        self.rules = rules
        self.field = field
        self._ring = field._ring
        # Symbol i in sorted name order is interned as chr(i), so code-point
        # order on interned words is tuple order on symbol words.
        symbols = sorted(alphabet.symbols)
        self._enc = {sym: chr(i) for i, sym in enumerate(symbols)}
        self._dec = {chr(i): sym for i, sym in enumerate(symbols)}
        # Redexes are found by one alternation of the distinct lhs words,
        # longest first and in listing order among equal lengths, so Python's
        # leftmost-first alternation finds the leftmost occurrence of a
        # longest lhs, the earlier rule winning ties.  Each lhs is a group,
        # so a match's lastindex picks its rhs terms from _rhss, as
        # (interned word, ring coefficient) pairs.
        actions: dict[str, tuple] = {}
        for idx in sorted(range(len(rules)), key=lambda i: (-len(rules[i].lhs), i)):
            actions.setdefault(self._encode(rules[idx].lhs), self._lift(rules[idx].rhs))
        self._redex = re.compile(
            "|".join(f"({re.escape(lhs)})" for lhs in actions) if rules else "(?!)"
        )
        self._rhss = (None, *actions.values())
        # A rewrite at pos can only create lhs occurrences starting at
        # pos - _back or later; re clamps a negative start to 0.
        self._back = max(map(len, actions), default=1) - 1
        self._confluence: dict[int, Confluence] = {}

    def _encode(self, word: Sequence[str]) -> str:
        """The interned form of a word; raises ValueError on unknown symbols."""
        try:
            return "".join(map(self._enc.__getitem__, word))
        except KeyError:
            for sym in word:
                self.alphabet.grade(sym)
            raise

    def _lift(self, rhs: Sequence[tuple[Word, object]]) -> tuple:
        """Rule terms as (interned word, ring coefficient) pairs."""
        if self._ring is self.field:
            return tuple((self._encode(rword), coef) for rword, coef in rhs)
        lift = self._ring.lift
        return tuple((self._encode(rword), lift(coef)) for rword, coef in rhs)

    def _export(self, form: dict) -> LinComb:
        """A form from the engine, its monomials interned and its ring values
        made field values, in a dict of its own."""
        if self._ring is self.field:
            return dict(form)
        value = self._ring.value
        return {mono: value(coef) for mono, coef in form.items()}

    def _decode(self, form: dict) -> LinComb:
        """Decode interned monomials to tuples and ring values to field values."""
        word = self._word
        return {word(mono): coef for mono, coef in self._export(form).items()}

    def _word(self, interned: str) -> Word:
        """The symbols of an interned word, one code point per symbol."""
        return tuple(map(self._dec.__getitem__, interned))


# The most copies of a block one regex match takes (see _splice_run).
_RUN = 4096


@lru_cache(maxsize=256)
def _copies(block: str):
    """The anchored match of (?:block){0,_RUN}: from a position, it spans
    the copies of block that follow one another there, _RUN at most."""
    return re.compile(f"(?:{re.escape(block)}){{0,{_RUN}}}").match


def _splice_run(state: str, start: int, o: int, pos: int, end: int,
                rword: str, back: int) -> tuple[int, str]:
    """Take the step at hand, with every repeat of it, in one splice.

    The scan state is state[start:] (start >= 0).  The step rewrites it at
    offset o >= back, and the next search starts e = o - back symbols in;
    the match read only the state's first o + back + 1 symbols.  If the new
    state is the old one with the q > 0 symbols Q at offset u removed, then
    while another copy of Q follows, the next state agrees with this one on
    those symbols, so the same step fires again and again emits the same e
    symbols on the left.  The 1 + R steps that delete Q and its R further
    copies become one splice.  Returns the number of steps taken, 1 when the
    step is not of that kind, and the new state.
    """
    e = o - back
    r = len(rword)
    q = e + end - pos - r
    u = max(back + r, o + back + 1 - q)
    at = start + u
    # Past offset back + r the new state is the old one shifted by q, so it
    # remains to compare the first u symbols.  A state shorter than u + q
    # symbols fails here, since the new one is then shorter than u.
    if q <= 0 or (
        state[pos - back : pos] + rword + state[end : end + u - back - r] != state[start:at]
    ):
        return 1, "".join((state[:pos], rword, state[end:]))
    # Q and its copies end where anchored matches of (?:Q){0,_RUN} stop
    # taking _RUN copies.  For q > 1 the regex engine keeps a backtracking
    # record per copy it takes, so one unbounded (?:Q)* would hold memory in
    # proportion to the run.
    match, p = _copies(state[at : at + q]), at
    while (stop := match(state, p).end()) - p == _RUN * q:
        p = stop
    n = (stop - at) // q
    return n, "".join((state[:start], state[start : pos - back] * n, state[start:at], state[stop:]))


def _rewrite(spec: AlgebraSpec, pending: dict, steps: int, budget: int) -> tuple[dict, int]:
    """Normal form of a linear combination of interned monomials.

    pending maps each monomial to [coefficient, scan hint], where no position
    left of the hint starts an lhs occurrence; it is consumed.  Coefficients,
    the result's included, are values of the spec's working ring.  Monomials
    are rewritten leftmost-longest, counting on from steps, one step per rule
    application; passing budget raises StepBudgetExceeded.  A run of n
    identical single-term steps that each delete one copy of a block from the
    scan state (x through y^K under x y -> y y x) is done in one splice and
    charged n steps, exactly as one at a time.  Returns the normal form and
    the step count.
    """
    ring = spec._ring
    mul, add, is_zero, zero = ring.mul, ring.add, ring.is_zero, ring.zero
    search = spec._redex.search
    rhss = spec._rhss
    back = spec._back
    out: dict = {}
    while pending:
        mono, (coef, start) = pending.popitem()
        # Single-term rules keep a single monomial, so splice them one after
        # another; only branching rules need to fork.  start is where the
        # search that found m began (re reads a negative start as 0).  A step
        # that repeats the last plain step's action at the same offset from
        # start is tested for a periodic run of n steps; a plain step is
        # n = 1, for which start + n * (o - back) is pos - back.
        last = -1
        prev = None
        while (m := search(mono, start)) is not None and len(rhs := rhss[m.lastindex]) == 1:
            pos, end = m.span()
            rword, rcoef = rhs[0]
            o = pos - start
            if o == last and o >= back and start >= 0 and rhs is prev:
                n, mono = _splice_run(mono, start, o, pos, end, rword, back)
                rcoef = ring.pow(rcoef, n)
            else:
                n, last, prev = 1, o, rhs
                mono = "".join((mono[:pos], rword, mono[end:]))
            steps += n
            if steps > budget:
                raise _exhausted(budget)
            start += n * (o - back)
            coef = mul(coef, rcoef)
        if m is None:
            acc = add(out.get(mono, zero), coef)
            if is_zero(acc):
                out.pop(mono, None)
            else:
                out[mono] = acc
            continue
        steps += 1
        if steps > budget:
            raise _exhausted(budget)
        pos, end = m.span()
        pre, post = mono[:pos], mono[end:]
        hint = pos - back
        for rword, rcoef in rhs:
            nw = pre + rword + post
            c = mul(coef, rcoef)
            entry = pending.get(nw)
            if entry is None:
                pending[nw] = [c, hint]
                continue
            acc = add(entry[0], c)
            if is_zero(acc):
                del pending[nw]
            else:
                entry[0] = acc
    return out, steps


def _check_budget(step_budget: int | None) -> int:
    if step_budget is None:
        return DEFAULT_STEP_BUDGET
    return _wire.integer(step_budget, "step budget", 1)


@dataclass(frozen=True)
class Ambiguity:
    """One word reducible by two rules, with the normal form after each.

    kind is "overlap" (word = A B C, lhs of rules[0] = A B, lhs of
    rules[1] = B C, with A, B, C nonempty) or "inclusion" (word = lhs of
    rules[0] = A lhs-of-rules[1] C).  left and right are the normal forms
    after first applying rules[0], respectively rules[1]; None marks a side
    that ran out of steps.
    """

    kind: str
    rules: tuple[int, int]
    word: Word
    left: Optional[LinComb]
    right: Optional[LinComb]


@dataclass(frozen=True)
class Confluence:
    """Outcome of check_confluence: the number of ambiguities resolved before
    the first unresolved one, which is None when every ambiguity resolves."""

    resolved: int
    unresolved: Optional[Ambiguity]

    @property
    def confluent(self) -> bool:
        return self.unresolved is None


def _ambiguities(rules: Sequence[RewriteRule]):
    """(kind, i, j, word, position of rule j's lhs in word); rule i sits at 0."""
    for i, ri in enumerate(rules):
        li = ri.lhs
        for j, rj in enumerate(rules):
            lj = rj.lhs
            for k in range(min(len(li), len(lj)) - 1, 0, -1):
                if li[-k:] == lj[:k]:
                    yield "overlap", i, j, li + lj[k:], len(li) - k
            if i != j:
                for a in range(len(li) - len(lj) + 1):
                    if li[a : a + len(lj)] == lj:
                        yield "inclusion", i, j, li, a


def check_confluence(spec: AlgebraSpec, step_budget: int | None = None) -> Confluence:
    """Resolve every overlap and inclusion ambiguity of the rules, both ways.

    Each side is normalized within step_budget steps (default
    DEFAULT_STEP_BUDGET) and the two normal forms are compared.  If all agree,
    then by Bergman's diamond lemma every word has one normal form whatever
    the order of rewriting, provided the presentation terminates, which stays
    the caller's assertion.  The result is cached on the spec per budget.
    """
    budget = _check_budget(step_budget)
    cached = spec._confluence.get(budget)
    if cached is not None:
        return cached

    def side(word: Word, pos: int, rule: RewriteRule) -> Optional[dict]:
        pre = spec._encode(word[:pos])
        post = spec._encode(word[pos + len(rule.lhs) :])
        pending = {pre + rw + post: [c, 0] for rw, c in spec._lift(rule.rhs)}
        try:
            return _rewrite(spec, pending, 0, budget)[0]
        except StepBudgetExceeded:
            return None

    resolved = 0
    unresolved = None
    for kind, i, j, word, pos in _ambiguities(spec.rules):
        left = side(word, 0, spec.rules[i])
        right = side(word, pos, spec.rules[j])
        if left is not None and left == right:
            resolved += 1
            continue
        unresolved = Ambiguity(
            kind, (i, j), word,
            None if left is None else spec._decode(left),
            None if right is None else spec._decode(right),
        )
        break
    spec._confluence[budget] = Confluence(resolved, unresolved)
    return spec._confluence[budget]


class SuffixChain:
    """Normal forms of the suffixes of the last word normalized with it.

    Pass one chain to normalize(..., memo=chain) over a run of words: each
    word then reuses the normal form of the longest suffix it shares with the
    word before, which is what ordering the run by reversed word maximizes.
    The chain holds one word's suffixes at a time, and raises ValueError
    when their normal forms pass NF_LETTER_CAP letters.  normalize() returns
    the monomials of a call given a chain as interned strings, one code point
    per symbol (code point i is the i-th symbol in sorted name order), so
    that deglex order on them is (length, string).
    """

    __slots__ = ("_spec", "_word", "_forms")

    def __init__(self):
        self._spec: Optional[AlgebraSpec] = None
        self._word = ""  # the last word folded, interned
        # _forms[k] = (normal form of the last k letters, steps to fold it,
        # letters in the forms of the last 0 .. k letters), its coefficients
        # in the spec's working ring.
        self._forms: list[tuple[dict, int, int]] = []

    def _fold(self, spec: AlgebraSpec, word: str, budget: int) -> dict:
        # Under a confluent presentation nf(a v) = nf(a nf(v)), so fold the
        # interned word from the right.  Each form carries its cumulative
        # step count, charged whenever it is reused, so the steps charged for
        # a word, and whether it exhausts the budget, do not depend on what
        # the chain already holds.
        if self._spec is not spec:
            self._spec, self._word = spec, ""
            self._forms = [({"": spec._ring.one}, 0, 0)]
        prev, forms = self._word, self._forms
        n = len(word)
        limit = min(n, len(prev), len(forms) - 1)
        # In reversed-word order most words (about 70 % in the fixture's
        # checks) end with all of the word before that the chain can reuse,
        # which one slice comparison settles; the others walk back letter by
        # letter.
        shared = limit
        if word[n - limit :] != prev[len(prev) - limit :]:
            shared = 0
            while shared < limit and word[n - 1 - shared] == prev[-1 - shared]:
                shared += 1
        del forms[shared + 1 :]
        self._word = word
        form, steps, letters = forms[shared]
        if steps > budget:
            raise _exhausted(budget)
        for head in reversed(word[: n - shared]):
            pending = {head + mono: [coef, 0] for mono, coef in form.items()}
            form, steps = _rewrite(spec, pending, steps, budget)
            letters += sum(map(len, form))
            if letters > NF_LETTER_CAP:
                raise ValueError(f"normal forms too large: more than {NF_LETTER_CAP} "
                                 "letters in a suffix chain.")
            forms.append((form, steps, letters))
        return form


def normalize(
    spec: AlgebraSpec,
    word: Sequence[str],
    step_budget: int | None = None,
    memo: SuffixChain | None = None,
) -> LinComb:
    """Rewrite a word to its normal form, a {monomial: coefficient} map.

    Each application of a rule to one monomial costs one step; exceeding the
    budget (default DEFAULT_STEP_BUDGET) raises StepBudgetExceeded.  Given a
    SuffixChain, and only when check_confluence certifies the presentation
    within the same budget, the word is folded from the right through the
    chain and charged the fold's steps, cached suffixes included; otherwise
    it is rewritten leftmost-longest as a whole.  Monomials are tuples of
    symbols, or, on every call given a SuffixChain, interned strings (see
    SuffixChain).
    """
    budget = _check_budget(step_budget)
    w = tuple(word)
    mono = spec._encode(w)
    if not spec.rules:
        return {w if memo is None else mono: spec.field.one}
    # Passed unread, the default budget skips check_confluence's read.
    if memo is not None and check_confluence(spec, step_budget).confluent:
        return spec._export(memo._fold(spec, mono, budget))
    form = _rewrite(spec, {mono: [spec._ring.one, 0]}, 0, budget)[0]
    return spec._decode(form) if memo is None else spec._export(form)


def algebra_from_json(obj: object) -> AlgebraSpec:
    """Parse {"alphabet": ..., "rules": [...], "field": ...}."""
    obj = _wire.fields(obj, "algebra", required=("alphabet",), optional=("rules", "field"))
    alphabet = alphabet_from_json(obj["alphabet"])
    field = field_from_json(obj.get("field", {"prime": DEFAULT_PRIME}))
    rules = []
    for r in _wire.array(obj.get("rules", []), 'algebra "rules"'):
        r = _wire.fields(r, "rule", required=("lhs", "rhs"))
        rhs = []
        for t in _wire.array(r["rhs"], 'rule "rhs"'):
            t = _wire.fields(t, "rhs term", required=("coef", "word"))
            coef = field.parse(_wire.string(t["coef"], "coefficient"))
            rhs.append((word_from_json(t["word"]), coef))
        rules.append(RewriteRule(word_from_json(r["lhs"]), tuple(rhs)))
    return AlgebraSpec(alphabet, rules, field)


def algebra_to_json(spec: AlgebraSpec) -> dict:
    return {
        "alphabet": alphabet_to_json(spec.alphabet),
        "rules": [
            {
                "lhs": list(rule.lhs),
                "rhs": [
                    {"coef": spec.field.show(coef), "word": list(rword)}
                    for rword, coef in rule.rhs
                ],
            }
            for rule in spec.rules
        ],
        "field": spec.field.to_json(),
    }
