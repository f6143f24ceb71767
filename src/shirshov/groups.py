"""Finite groups as Cayley tables, with the identity pinned at index 0.

Elements are plain integer indices in ``[0, order)``.  A group is either
built from one of the canonical families (cyclic, dihedral, symmetric,
direct product) or from an explicit multiplication table, which is
validated for the group axioms at construction time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "GroupSpec",
    "FiniteGroup",
    "build_group",
    "cyclic",
    "dihedral",
    "symmetric",
    "product",
    "table",
    "spec_from_json",
    "spec_to_json",
]

# Full O(m^3) associativity sweep up to this order; random sampling above it.
EXHAUSTIVE_ORDER_LIMIT = 48
SAMPLED_TRIPLES = 100_000

MAX_SYMMETRIC_DEGREE = 6


@dataclass(frozen=True)
class GroupSpec:
    """Recipe for a finite group; realize it with build_group()."""

    kind: str
    n: int = 0
    left: Optional["GroupSpec"] = None
    right: Optional["GroupSpec"] = None
    entries: Optional[tuple[tuple[int, ...], ...]] = None
    names: Optional[tuple[str, ...]] = None


def cyclic(n: int) -> GroupSpec:
    """Additive group of residues mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}.")
    return GroupSpec(kind="cyclic", n=n)


def dihedral(n: int) -> GroupSpec:
    """Symmetries of the regular n-gon (order 2n), n >= 2."""
    if n < 2:
        raise ValueError(f"dihedral degree must be >= 2, got {n}.")
    return GroupSpec(kind="dihedral", n=n)


def symmetric(n: int) -> GroupSpec:
    """Permutations of n points, restricted to n <= 6 to keep tables desk-scale."""
    if not 1 <= n <= MAX_SYMMETRIC_DEGREE:
        raise ValueError(
            f"symmetric degree must be in [1, {MAX_SYMMETRIC_DEGREE}], got {n}."
        )
    return GroupSpec(kind="symmetric", n=n)


def product(left: GroupSpec, right: GroupSpec) -> GroupSpec:
    """Direct product; elements are pairs ordered lexicographically."""
    return GroupSpec(kind="product", left=left, right=right)


def table(entries: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> GroupSpec:
    """Explicit Cayley table; validated for the group axioms when built."""
    rows = tuple(tuple(row) for row in entries)
    return GroupSpec(
        kind="table",
        n=len(rows),
        entries=rows,
        names=tuple(names) if names is not None else None,
    )


class FiniteGroup:
    """Immutable Cayley-table group with element 0 as the identity.

    The constructor checks closure, the identity row/column, associativity
    (exhaustively up to order EXHAUSTIVE_ORDER_LIMIT, by random sampling of
    SAMPLED_TRIPLES triples above it) and the existence of two-sided
    inverses, reporting the first violation found.
    """

    def __init__(
        self,
        mul_table: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        spec: GroupSpec | None = None,
    ):
        rows = tuple(tuple(row) for row in mul_table)
        m = len(rows)
        if m == 0:
            raise ValueError("a group has at least one element.")
        for a, row in enumerate(rows):
            if len(row) != m:
                raise ValueError(f"mul_table row {a} has length {len(row)}, expected {m}.")
            for b, x in enumerate(row):
                if not isinstance(x, int) or not 0 <= x < m:
                    raise ValueError(
                        f"mul_table entry at ({a},{b}) is {x}, outside [0,{m - 1}]."
                    )
        for a in range(m):
            if rows[0][a] != a:
                raise ValueError(f"identity violated: mul(0,{a}) = {rows[0][a]} != {a}.")
            if rows[a][0] != a:
                raise ValueError(f"identity violated: mul({a},0) = {rows[a][0]} != {a}.")
        self._check_associativity(rows, m)

        inv = [-1] * m
        for a in range(m):
            for b in range(m):
                if rows[a][b] == 0 and rows[b][a] == 0:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise ValueError(f"no two-sided inverse for element {a}.")

        if names is None:
            names = [f"g{k}" for k in range(m)]
        names = tuple(names)
        if len(names) != m:
            raise ValueError(f"got {len(names)} names for {m} elements.")

        self.order = m
        self.mul_table = rows
        self.inv_table = tuple(inv)
        self.names = names
        self.spec = spec

    @staticmethod
    def _check_associativity(rows: tuple[tuple[int, ...], ...], m: int) -> None:
        if m <= EXHAUSTIVE_ORDER_LIMIT:
            triples: Iterable[tuple[int, int, int]] = itertools.product(range(m), repeat=3)
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(m), rng.randrange(m), rng.randrange(m))
                for _ in range(SAMPLED_TRIPLES)
            )
        for a, b, c in triples:
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                raise ValueError(f"associativity violated at triple ({a},{b},{c}).")

    @cached_property
    def cayley(self) -> np.ndarray:
        """The multiplication table as an (order, order) numpy array, built once.

        Its dtype is int32 unless a flat index a*order + b could overflow it;
        it is read-only.
        """
        arr = np.array(self.mul_table, dtype=_index_dtype(self.order))
        arr.flags.writeable = False
        return arr

    def id(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def _check_index(self, a: int) -> None:
        if not isinstance(a, (int,)) or isinstance(a, bool) or not 0 <= a < self.order:
            raise ValueError(f"element index {a!r} out of range [0,{self.order - 1}].")

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return self.mul_table[a][b]

    def inverse(self, a: int) -> int:
        self._check_index(a)
        return self.inv_table[a]

    def prod(self, elems: Iterable[int]) -> int:
        """Left-to-right product of a sequence of elements (identity if empty)."""
        acc = 0
        tab = self.mul_table
        for g in elems:
            self._check_index(g)
            acc = tab[acc][g]
        return acc

    def name_of(self, a: int) -> str:
        self._check_index(a)
        return self.names[a]

    def __repr__(self) -> str:
        kind = self.spec.kind if self.spec is not None else "table"
        return f"FiniteGroup(order={self.order}, kind={kind})"


def _index_dtype(m: int) -> type:
    """Smallest of int32/int64 holding every flat Cayley index a*m + b < m*m."""
    return np.int32 if m * m <= np.iinfo(np.int32).max + 1 else np.int64


def _build_cyclic(n: int) -> FiniteGroup:
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = [str(a) for a in range(n)]
    return FiniteGroup(rows, names, spec=cyclic(n))


def _build_dihedral(n: int) -> FiniteGroup:
    # Index i < n is the rotation r^i; index n+i is the reflection s*r^i.
    # Multiplication follows from r^n = s^2 = e and s*r*s = r^-1.
    m = 2 * n
    rows = [[0] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = (i + j) % n                  # r^i * r^j
            rows[i][n + j] = n + (j - i) % n          # r^i * s r^j = s r^(j-i)
            rows[n + i][j] = n + (i + j) % n          # s r^i * r^j
            rows[n + i][n + j] = (j - i) % n          # s r^i * s r^j = r^(j-i)
    return FiniteGroup(rows, spec=dihedral(n))


def _build_symmetric(n: int) -> FiniteGroup:
    # One-line permutations in lexicographic order put the identity first.
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    rows = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(rows, spec=symmetric(n))


def _build_product(left: FiniteGroup, right: FiniteGroup, spec: GroupSpec) -> FiniteGroup:
    # Pair (a, b) sits at index a*|right| + b, so pairs are in lexicographic
    # order and (0, 0) is the identity.
    mr = right.order
    m = left.order * mr
    lt, rt = left.mul_table, right.mul_table
    rows = [[0] * m for _ in range(m)]
    for a1 in range(left.order):
        for b1 in range(mr):
            row = rows[a1 * mr + b1]
            lrow, rrow = lt[a1], rt[b1]
            for a2 in range(left.order):
                base = lrow[a2] * mr
                for b2 in range(mr):
                    row[a2 * mr + b2] = base + rrow[b2]
    return FiniteGroup(rows, spec=spec)


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Realize a GroupSpec as a validated FiniteGroup."""
    if spec.kind == "cyclic":
        return _build_cyclic(spec.n)
    if spec.kind == "dihedral":
        return _build_dihedral(spec.n)
    if spec.kind == "symmetric":
        return _build_symmetric(spec.n)
    if spec.kind == "product":
        assert spec.left is not None and spec.right is not None
        return _build_product(build_group(spec.left), build_group(spec.right), spec)
    if spec.kind == "table":
        assert spec.entries is not None
        return FiniteGroup(spec.entries, spec.names, spec=spec)
    raise ValueError(f"unknown group kind {spec.kind!r}.")


def spec_from_json(obj: object) -> GroupSpec:
    """Parse the wire form of a group spec, e.g. {"cyclic": 17}."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"a group spec is a one-key object, got {obj!r}.")
    (kind, arg), = obj.items()
    if kind == "cyclic":
        return cyclic(_as_int(arg, "cyclic order"))
    if kind == "dihedral":
        return dihedral(_as_int(arg, "dihedral degree"))
    if kind == "symmetric":
        return symmetric(_as_int(arg, "symmetric degree"))
    if kind == "product":
        if not isinstance(arg, list) or len(arg) != 2:
            raise ValueError(f"product takes a two-element list of specs, got {arg!r}.")
        return product(spec_from_json(arg[0]), spec_from_json(arg[1]))
    if kind == "table":
        if not isinstance(arg, dict):
            raise ValueError(f"table spec must be an object, got {arg!r}.")
        entries = arg.get("table")
        if not isinstance(entries, list):
            raise ValueError("table spec needs a \"table\" list of rows.")
        order = arg.get("order", len(entries))
        if order != len(entries):
            raise ValueError(
                f"table spec order {order} does not match {len(entries)} rows."
            )
        names = arg.get("names")
        if names is not None and (
            not isinstance(names, list) or not all(isinstance(s, str) for s in names)
        ):
            raise ValueError("table spec \"names\" must be a list of strings.")
        for row in entries:
            if not isinstance(row, list) or not all(isinstance(x, int) for x in row):
                raise ValueError("table rows must be lists of integers.")
        return table(entries, names)
    raise ValueError(f"unknown group kind {kind!r}.")


def spec_to_json(spec: GroupSpec) -> dict:
    """Serialize a GroupSpec back to its wire form."""
    if spec.kind in ("cyclic", "dihedral", "symmetric"):
        return {spec.kind: spec.n}
    if spec.kind == "product":
        assert spec.left is not None and spec.right is not None
        return {"product": [spec_to_json(spec.left), spec_to_json(spec.right)]}
    if spec.kind == "table":
        assert spec.entries is not None
        out: dict = {"order": spec.n, "table": [list(row) for row in spec.entries]}
        if spec.names is not None:
            out["names"] = list(spec.names)
        return {"table": out}
    raise ValueError(f"unknown group kind {spec.kind!r}.")


def _as_int(x: object, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an integer, got {x!r}.")
    return x
