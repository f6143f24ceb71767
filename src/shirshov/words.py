"""Factorization of graded words into identity-grade blocks and leftover letters.

Every word w = w_1 ... w_n over a group-graded alphabet factors as
y_1 a_1 y_2 a_2 ... where each A-segment a_i is a block whose grades multiply
to the identity and the Y-segments collect the leftover letters.  The
A-segments are the intervals of an optimal decomposition of the grade
sequence, which are never adjacent, so the Y-segments hold at most |G| - 1
letters in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _wire
from .groups import FiniteGroup, build_group, spec_from_json, spec_to_json
from .intervals import GradeSequence, decompose_optimal, prefix_products

__all__ = [
    "GradedAlphabet",
    "Segment",
    "Factorization",
    "FactorizationReport",
    "grade_of",
    "factorize",
    "power_count",
    "height_bound",
    "verify_factorization",
    "alphabet_from_json",
    "alphabet_to_json",
    "word_from_json",
    "factorization_from_json",
    "factorization_to_json",
]

Word = tuple[str, ...]


class GradedAlphabet:
    """Ordered generator symbols with grades in a finite group."""

    def __init__(self, group: FiniteGroup, generators: Sequence[tuple[str, int]]):
        if not isinstance(generators, (list, tuple)):
            raise ValueError(f"generators must be a list of pairs, got {generators!r}.")
        for gen in generators:
            if not (isinstance(gen, (list, tuple)) and len(gen) == 2):
                raise ValueError(f"generator must be a (symbol, grade) pair, got {gen!r}.")
        gens = tuple((_wire.string(sym, "generator symbol"), grade) for sym, grade in generators)
        if not gens:
            raise ValueError("an alphabet needs at least one generator.")
        grades: dict[str, int] = {}
        for sym, grade in gens:
            if not sym:
                raise ValueError("generator symbols must be nonempty.")
            if sym in grades:
                raise ValueError(f"duplicate generator symbol {sym!r}.")
            grades[sym] = _wire.integer(grade, f"grade of {sym!r}", 0, group.order - 1)
        self.group = group
        self.generators = gens
        self._grades = grades

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.generators)

    def grade(self, sym: str) -> int:
        try:
            return self._grades[sym]
        except KeyError:
            raise ValueError(f"unknown symbol {sym!r}.") from None


class Segment(NamedTuple):
    """Tagged span of word positions; tag is "A" (identity grade) or "Y"."""

    tag: str
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Factorization:
    """Alternating Y/A segments partitioning the positions of a word."""

    segments: tuple[Segment, ...]

    @property
    def k(self) -> int:
        """Number of A-segments."""
        return sum(1 for s in self.segments if s.tag == "A")

    @property
    def y_total(self) -> int:
        """Total length of the Y-segments."""
        return sum(s.length for s in self.segments if s.tag == "Y")


def grade_of(alphabet: GradedAlphabet, word: Sequence[str]) -> int:
    """Product of the letter grades of a word (identity for the empty word)."""
    # A flat view of the table, indexed a*m + b, is zero-copy and cheaper to
    # index than the 2-D view.
    m = alphabet.group.order
    flat = memoryview(alphabet.group.cayley.ravel())
    grades = alphabet._grades
    acc = 0
    try:
        for sym in word:
            acc = flat[acc * m + grades[sym]]
    except KeyError:
        alphabet.grade(sym)  # raises the unknown-symbol ValueError
    return acc


def _grade_sequence(alphabet: GradedAlphabet, word: Sequence[str]) -> GradeSequence:
    # Every letter's grade, read once; an unknown symbol raises ValueError.
    try:
        grades = np.fromiter(map(alphabet._grades.__getitem__, word),
                             dtype=alphabet.group.cayley.dtype, count=len(word))
    except KeyError as err:
        alphabet.grade(err.args[0])  # raises the unknown-symbol ValueError
        raise
    return GradeSequence(alphabet.group, grades)


def factorize(alphabet: GradedAlphabet, word: Sequence[str]) -> Factorization:
    """Factor a word into maximal identity-grade A-segments and leftover Y-segments."""
    dec = decompose_optimal(_grade_sequence(alphabet, word))
    segments: list[Segment] = []
    nxt = 1
    for a, b in dec.intervals:
        if nxt < a:
            segments.append(Segment("Y", nxt, a - 1))
        segments.append(Segment("A", a, b))
        nxt = b + 1
    if nxt <= len(word):
        segments.append(Segment("Y", nxt, len(word)))
    return Factorization(segments=tuple(segments))


def power_count(fact: Factorization, h: int) -> int:
    """Powers needed to express the word when each A-segment costs height h.

    Each A-segment contributes at most h powers of base-set elements and each
    Y-segment one power per letter, giving h*k + sum of Y-segment lengths.
    """
    return _wire.integer(h, "height", 1) * fact.k + fact.y_total


def height_bound(h: int, m: int) -> int:
    """Height (h+1)*m - 1 reached over a grading group of order m."""
    return (_wire.integer(h, "height", 1) + 1) * _wire.integer(m, "group order", 1) - 1


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of verify_factorization."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_factorization(
    alphabet: GradedAlphabet, word: Sequence[str], fact: Factorization
) -> FactorizationReport:
    """Check every factorization invariant for a claimed factorization."""
    word = tuple(word)
    n = len(word)
    group = alphabet.group
    m = group.order
    f = prefix_products(_grade_sequence(alphabet, word))
    # Int endpoints only, as factorization_from_json reads them: any other
    # segment is one violation, ends the partition walk, and is dropped.
    plain = [_wire.is_int(s.start) and _wire.is_int(s.end) for s in fact.segments]
    violations = [f"segment [{s.start!r},{s.end!r}] has an endpoint that is not an int."
                  for s, ok in zip(fact.segments, plain) if not ok]
    kept = Factorization(tuple(s for s, ok in zip(fact.segments, plain) if ok))

    nxt = 1
    shaped = all(plain)
    for seg, ok in zip(fact.segments, plain):
        if not ok:
            break
        if seg.tag not in ("A", "Y"):
            violations.append(f"segment tag {seg.tag!r} is not \"A\" or \"Y\".")
            shaped = False
        if seg.start != nxt or seg.end < seg.start or seg.end > n:
            violations.append(
                f"segment [{seg.start},{seg.end}] breaks the partition of [1,{n}]."
            )
            shaped = False
            break
        nxt = seg.end + 1
    if shaped and nxt != n + 1:
        violations.append(f"segments stop at {nxt - 1}, word has length {n}.")

    for prev, cur in zip(fact.segments, fact.segments[1:]):
        if prev.tag == cur.tag in ("A", "Y"):
            violations.append(
                f"adjacent {cur.tag}-segments [{prev.start},{prev.end}] and "
                f"[{cur.start},{cur.end}] are not merged."
            )

    # [a, b] has identity grade iff f(a-1) = f(b); its grade is f(a-1)^-1 f(b).
    spans = [(s.start, s.end) for s in kept.segments
             if s.tag == "A" and 1 <= s.start <= s.end <= n]
    ends = np.array(spans, dtype=np.int64).reshape(-1, 2)
    for i in np.flatnonzero(f[ends[:, 0] - 1] != f[ends[:, 1]]):
        a, b = spans[i]
        g = group.mul(group.inverse(int(f[a - 1])), int(f[b]))
        violations.append(
            f"A-segment [{a},{b}] has grade {group.name_of(g)}, not the identity."
        )

    y_count = sum(1 for s in kept.segments if s.tag == "Y")
    if kept.y_total > m - 1:
        violations.append(f"Y-segments hold {kept.y_total} letters, more than |G|-1={m - 1}.")
    if y_count > m - 1:
        violations.append(f"{y_count} Y-segments, more than |G|-1={m - 1}.")
    if kept.k > m:
        violations.append(f"{kept.k} A-segments, more than |G|={m}.")

    return FactorizationReport(violations=tuple(violations))


def alphabet_from_json(obj: object) -> GradedAlphabet:
    """Parse {"group": spec, "generators": [{"sym": ..., "grade": ...}, ...]}."""
    obj = _wire.fields(obj, "alphabet", required=("group", "generators"))
    group = build_group(spec_from_json(obj["group"]))
    pairs = []
    for g in _wire.array(obj["generators"], '"generators"'):
        g = _wire.fields(g, "generator", required=("sym", "grade"))
        pairs.append((g["sym"], g["grade"]))
    return GradedAlphabet(group, pairs)


def alphabet_to_json(alphabet: GradedAlphabet) -> dict:
    if alphabet.group.spec is None:
        raise ValueError("alphabet group has no serializable spec.")
    return {
        "group": spec_to_json(alphabet.group.spec),
        "generators": [
            {"sym": sym, "grade": grade} for sym, grade in alphabet.generators
        ],
    }


def word_from_json(obj: object) -> Word:
    return tuple(_wire.array(obj, "word", _wire.string))


def factorization_from_json(obj: object) -> Factorization:
    segs = []
    for s in _wire.array(obj, "factorization"):
        s = _wire.fields(s, "segment", required=("tag", "span"))
        if s["tag"] not in ("A", "Y"):
            raise ValueError(f'segment tag must be "A" or "Y", got {s["tag"]!r}.')
        segs.append(Segment(s["tag"], *_wire.array(s["span"], "segment span", _wire.integer, 2)))
    return Factorization(segments=tuple(segs))


def factorization_to_json(fact: Factorization) -> list:
    return [{"tag": s.tag, "span": [s.start, s.end]} for s in fact.segments]
