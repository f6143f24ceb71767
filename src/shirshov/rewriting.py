"""String rewriting to normal forms in finitely presented graded algebras.

An algebra is presented by a graded alphabet and rewrite rules sending a
word (the left-hand side) to a linear combination of words.  normalize()
repeatedly replaces the leftmost occurrence of a longest-matching left-hand
side in each monomial and collects like terms, e.g. under the single rule
"x y" -> "y y x" the word "x x y" normalizes to "y y y y x x".  Monomials are
held as bytes over interned symbols and redexes are found by one compiled
regular expression.  check_confluence() certifies, by Bergman's diamond
lemma, that the normal form does not depend on the rewriting strategy; only
then may normalize() reuse suffix normal forms through a SuffixChain.
Termination of the presentation is the caller's assertion; a step budget
turns runaway presentations into an error instead of a hang.

Coefficients live in F_p (default p = 1000003) or in the exact rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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
    """Arithmetic in F_p on plain ints in [0, p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int) or p >= 2**64 or not _is_prime(p):
            raise ValueError(f"field modulus must be a prime below 2^64, got {p!r}.")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def is_zero(self, a: int) -> bool:
        return a == 0

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def pow(self, a: int, k: int) -> int:
        return pow(a, k, self.p)

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0.")
        return pow(a, -1, self.p)

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


class RationalField:
    """Exact rational arithmetic on fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def pow(self, a: Fraction, k: int) -> Fraction:
        return a**k

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0.")
        return 1 / a

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


def _code(i: int) -> bytes:
    # Symbol i is interned as the UTF-8 encoding of chr(i).  UTF-8 is
    # self-synchronizing: no code's first byte occurs inside another code, so
    # a byte-level match of whole codes starts and ends on symbol boundaries
    # whatever the alphabet size.
    return chr(i).encode("utf-8", "surrogatepass")


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
        field = PrimeField() if field is None else field
        rules = tuple(rules)
        for rule in rules:
            lhs_grade = grade_of(alphabet, rule.lhs)
            seen: set[Word] = set()
            for rword, coef in rule.rhs:
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
        symbols = alphabet.symbols
        self._enc = {sym: _code(i) for i, sym in enumerate(symbols)}
        self._dec = {chr(i): sym for i, sym in enumerate(symbols)}
        # Redexes are found by one alternation of the distinct lhs words,
        # longest first and in listing order among equal lengths, so Python's
        # leftmost-first alternation finds the leftmost occurrence of a
        # longest lhs, the earlier rule winning ties.  Two lhs words that
        # match at one position are prefix-related, so byte length orders
        # them as symbol length does.  Each lhs maps to its rhs terms as
        # (interned word, coefficient) pairs.
        self._actions: dict[bytes, tuple] = {}
        for idx in sorted(
            range(len(rules)), key=lambda i: (-len(self._encode(rules[i].lhs)), i)
        ):
            self._actions.setdefault(
                self._encode(rules[idx].lhs),
                tuple((self._encode(rword), coef) for rword, coef in rules[idx].rhs),
            )
        self._redex = re.compile(
            b"|".join(map(re.escape, self._actions)) if rules else b"(?!)"
        )
        # A rewrite at byte pos can only create lhs occurrences starting at
        # pos - _back or later; re clamps a negative start to 0.
        self._back = max(map(len, self._actions), default=1) - 1
        self._confluence: dict[int, Confluence] = {}

    def _encode(self, word: Sequence[str]) -> bytes:
        """The interned form of a word; raises ValueError on unknown symbols."""
        return b"".join(self._codes(word))

    def _codes(self, word: Sequence[str]) -> list[bytes]:
        enc = self._enc
        try:
            return [enc[sym] for sym in word]
        except KeyError:
            for sym in word:
                self.alphabet.grade(sym)
            raise

    def _decode(self, comb: dict, words: Optional[dict] = None) -> LinComb:
        """Decode interned monomials to tuples.

        words maps the monomials of this spec decoded so far to their tuples
        and is filled in; a monomial already in it comes back as that tuple.
        """
        words = {} if words is None else words
        dec = self._dec.__getitem__
        out = {}
        for mono, coef in comb.items():
            word = words.get(mono)
            if word is None:
                word = words[mono] = tuple(map(dec, mono.decode("utf-8", "surrogatepass")))
            out[word] = coef
        return out


def _splice_run(buf: bytearray, start: int, o: int, pos: int, end: int,
                rword: bytes, back: int) -> int:
    """Take the step at hand, with every repeat of it, in one splice.

    The scan state is buf[start:] (start >= 0).  The step rewrites it at
    offset o >= back, and the next search starts e = o - back bytes in; the
    match read only the state's first o + back + 1 bytes.  If the new state
    is the old one with the q > 0 bytes Q at offset u removed, then while
    another copy of Q follows, the next state agrees with this one on those
    bytes, so the same step fires again and again emits the same e bytes on
    the left.  The 1 + R steps that delete Q and its R further copies become
    one splice.  Returns the number of steps taken: 1 when the step is not
    of that kind.
    """
    e = o - back
    r = len(rword)
    q = e + end - pos - r
    u = max(back + r, o + back + 1 - q)
    at = start + u
    # Past offset back + r the new state is the old one shifted by q, so it
    # remains to compare the first u bytes.  A state shorter than u + q bytes
    # fails here, since the new one is then shorter than u.
    if q <= 0 or (
        buf[pos - back : pos] + rword + buf[end : end + u - back - r] != buf[start:at]
    ):
        buf[pos:end] = rword
        return 1
    # Count the copies of Q by galloping: double the probe while it matches,
    # then halve it back down to one block.
    block = bytes(buf[at : at + q])
    p, n, k = at + q, 1, 1
    while buf.startswith(block, p):
        p, n, k = p + k * q, n + k, 2 * k
        block += block
    while k > 1:
        k //= 2
        block = block[: k * q]
        if buf.startswith(block, p):
            p, n = p + k * q, n + k
    buf[start:p] = buf[start : pos - back] * n + buf[start:at]
    return n


def _rewrite(spec: AlgebraSpec, pending: dict, steps: int, budget: int) -> tuple[dict, int]:
    """Normal form of a linear combination of interned monomials.

    pending maps each monomial to [coefficient, scan hint], where no position
    left of the hint starts an lhs occurrence; it is consumed.  Monomials are
    rewritten leftmost-longest, counting on from steps, one step per rule
    application; passing budget raises StepBudgetExceeded.  A run of n
    identical single-term steps that each delete one copy of a block from the
    scan state (x through y^K under x y -> y y x) is done in one splice and
    charged n steps, exactly as one at a time.  Returns the normal form and
    the step count.
    """
    field = spec.field
    mul, add, is_zero, zero = field.mul, field.add, field.is_zero, field.zero
    search = spec._redex.search
    actions = spec._actions
    back = spec._back
    out: dict = {}
    while pending:
        mono, (coef, hint) = pending.popitem()
        m = search(mono, hint)
        if m is not None:
            rhs = actions[m.group()]
            if len(rhs) == 1:
                # Single-term rules keep a single monomial, so splice them in
                # place; only branching rules need to fork.  start is where the
                # search that found m began (re reads a negative start as 0).
                # A step that repeats the previous step's action at the same
                # offset from start is tested for a periodic run.
                buf = bytearray(mono)
                start = hint
                last = -1
                prev = None
                while True:
                    pos, end = m.span()
                    rword, rcoef = rhs[0]
                    o = pos - start
                    if o == last and o >= back and start >= 0 and rhs is prev:
                        n = _splice_run(buf, start, o, pos, end, rword, back)
                        steps += n
                        if steps > budget:
                            raise _exhausted(budget)
                        start += n * (o - back)
                        coef = mul(coef, field.pow(rcoef, n))
                    else:
                        last = o
                        prev = rhs
                        steps += 1
                        if steps > budget:
                            raise _exhausted(budget)
                        buf[pos:end] = rword
                        start = pos - back
                        coef = mul(coef, rcoef)
                    m = search(buf, start)
                    if m is None:
                        break
                    rhs = actions[m.group()]
                    if len(rhs) != 1:
                        break
                mono = bytes(buf)
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
                if hint < entry[1]:
                    entry[1] = hint
    return out, steps


def _check_budget(step_budget: int | None) -> int:
    budget = DEFAULT_STEP_BUDGET if step_budget is None else step_budget
    if budget < 1:
        raise ValueError(f"step budget must be >= 1, got {budget}.")
    return budget


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
        pending = {pre + spec._encode(rw) + post: [c, 0] for rw, c in rule.rhs}
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
    The chain holds one word's suffixes at a time.  It also decodes each
    distinct monomial of the results once, so equal normal forms share one
    tuple.  That map keeps every distinct monomial the chain has returned and
    is dropped only when the spec changes, so make a fresh chain for each run.
    """

    __slots__ = ("_spec", "_word", "_forms", "_words")

    def __init__(self):
        self._spec: Optional[AlgebraSpec] = None
        self._word: Word = ()
        # _forms[k] = (normal form of the last k letters, steps to fold it).
        self._forms: list[tuple[dict, int]] = []
        # Interned monomial -> decoded tuple, for monomials of _spec.
        self._words: dict[bytes, Word] = {}

    def _fold(self, spec: AlgebraSpec, word: Word, codes: list[bytes], budget: int) -> dict:
        # Under a confluent presentation nf(a v) = nf(a nf(v)), so fold the
        # word from the right.  Each form carries its cumulative step count,
        # charged whenever it is reused, so the steps charged for a word, and
        # whether it exhausts the budget, do not depend on what the chain
        # already holds.
        if self._spec is not spec:
            self._spec, self._word, self._words = spec, (), {}
            self._forms = [({b"": spec.field.one}, 0)]
        prev, forms = self._word, self._forms
        n = len(word)
        shared = 0
        limit = min(n, len(prev), len(forms) - 1)
        while shared < limit and word[n - 1 - shared] == prev[-1 - shared]:
            shared += 1
        del forms[shared + 1 :]
        self._word = word
        form, steps = forms[shared]
        if steps > budget:
            raise _exhausted(budget)
        for head in reversed(codes[: n - shared]):
            pending = {head + mono: [coef, 0] for mono, coef in form.items()}
            form, steps = _rewrite(spec, pending, steps, budget)
            forms.append((form, steps))
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
    it is rewritten leftmost-longest as a whole.
    """
    budget = _check_budget(step_budget)
    w = tuple(word)
    codes = spec._codes(w)
    if not spec.rules:
        return {w: spec.field.one}
    if memo is not None and check_confluence(spec, budget).confluent:
        return spec._decode(memo._fold(spec, w, codes, budget), memo._words)
    pending = {b"".join(codes): [spec.field.one, 0]}
    return spec._decode(_rewrite(spec, pending, 0, budget)[0])


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
