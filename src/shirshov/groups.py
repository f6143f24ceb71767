"""Finite groups as Cayley tables, with the identity pinned at index 0.

Elements are plain integer indices in ``[0, order)``.  A group is either
built from one of the canonical families (cyclic, dihedral, symmetric,
direct product) or from an explicit multiplication table, which is
validated for the group axioms at construction time.  Every group holds its
table as one read-only int32 numpy array, ``cayley``, and nothing else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _wire

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

MAX_SYMMETRIC_DEGREE = 6
# Largest order a table is made for: 4096^2 int32 entries are 64 MiB, the
# group's only table, and every flat index a*m + b fits int32.
MAX_ORDER = 4096


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

    The constructor checks, in this order, the range of every entry, the
    identity row and column, associativity (exactly, by Light's test) and
    two-sided inverses, reporting the first violation found.
    """

    def __init__(
        self,
        entries: Sequence[Sequence[int]] | np.ndarray,
        names: Sequence[str] | None = None,
        spec: GroupSpec | None = None,
    ):
        m = len(entries)
        if m == 0:
            raise ValueError("a group has at least one element.")
        _check_order(m)
        for a, row in enumerate(entries):
            if len(row) != m:
                raise ValueError(f"table row {a} has length {len(row)}, expected {m}.")
        arr = np.asarray(entries)
        # Entries beyond int64, floats, strings and the like give other dtypes.
        if arr.ndim != 2 or arr.dtype.kind not in "iu":
            raise ValueError(f"table entries must be integers in [0,{m - 1}].")
        bad = np.argwhere((arr < 0) | (arr >= m))
        if len(bad):
            a, b = bad[0]
            raise ValueError(f"table entry at ({a},{b}) is {arr[a, b]}, outside [0,{m - 1}].")
        cayley = arr.astype(np.int32)
        elems = np.arange(m)
        bad = np.flatnonzero((cayley[0] != elems) | (cayley[:, 0] != elems))
        if len(bad):
            a = bad[0]
            if cayley[0, a] != a:
                raise ValueError(f"identity violated: mul(0,{a}) = {cayley[0, a]} != {a}.")
            raise ValueError(f"identity violated: mul({a},0) = {cayley[a, 0]} != {a}.")
        _check_associativity(cayley)
        # In a finite monoid a b = e forces b a = e, so the first e in row a
        # is the only candidate.
        inv = (cayley == 0).argmax(axis=1)
        bad = np.flatnonzero((cayley[elems, inv] != 0) | (cayley[inv, elems] != 0))
        if len(bad):
            raise ValueError(f"no two-sided inverse for element {bad[0]}.")
        names = tuple(names) if names is not None else tuple(f"g{k}" for k in range(m))
        if len(names) != m:
            raise ValueError(f"got {len(names)} names for {m} elements.")

        cayley.flags.writeable = False
        self.order = m
        self.cayley = cayley
        self.inv_table = tuple(inv.tolist())
        self.names = names
        self.spec = spec

    def _check_index(self, a: int) -> None:
        if not isinstance(a, (int,)) or isinstance(a, bool) or not 0 <= a < self.order:
            raise ValueError(f"element index {a!r} out of range [0,{self.order - 1}].")

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return self.cayley.item(a, b)

    def inverse(self, a: int) -> int:
        self._check_index(a)
        return self.inv_table[a]

    def name_of(self, a: int) -> str:
        self._check_index(a)
        return self.names[a]

    def __repr__(self) -> str:
        kind = self.spec.kind if self.spec is not None else "table"
        return f"FiniteGroup(order={self.order}, kind={kind})"


def _check_order(m: int) -> None:
    if m > MAX_ORDER:
        raise ValueError(f"group order {m} exceeds the cap of {MAX_ORDER} elements.")


def _check_associativity(cayley: np.ndarray) -> None:
    """Light's test: one O(m^2) pass per generator, exact for every triple.

    The s with (a s) c = a (s c) for all a, c are closed under products.  Each
    generator is the smallest element not yet reached; in a group the reached
    set is a subgroup, which by Lagrange each generator at least doubles.
    """
    m = len(cayley)
    reached = np.arange(m) == 0
    count = 1
    while count < m:
        s = int(np.argmin(reached))
        bad = np.flatnonzero(cayley[cayley[:, s]] != np.take(cayley, cayley[s], axis=1))
        if len(bad):
            a, c = divmod(int(bad[0]), m)
            raise ValueError(f"associativity violated at triple ({a},{s},{c}).")
        reached[s] = True
        members = np.flatnonzero(reached)
        while len(members) < m:  # close the reached set under products again
            reached[cayley[np.ix_(members, members)]] = True
            if np.count_nonzero(reached) == len(members):
                break
            members = np.flatnonzero(reached)
        if len(members) < 2 * count:
            raise ValueError(f"not a group: element {s} extends {count} reached elements "
                             f"to {len(members)}, less than double (Lagrange).")
        count = len(members)


def _table(spec: GroupSpec) -> np.ndarray:
    """The Cayley table of a family spec, made with whole-array numpy steps."""
    n = spec.n
    r = np.arange(n, dtype=np.int32)
    if spec.kind == "cyclic":
        return np.add.outer(r, r) % n
    if spec.kind == "dihedral":
        # Index i < n is the rotation r^i; index n+i is the reflection s*r^i.
        # From r^n = s^2 = e and s*r*s = r^-1: r^i * r^j = r^(i+j), r^i * s r^j =
        # s r^(j-i), s r^i * r^j = s r^(i+j) and s r^i * s r^j = r^(j-i).
        plus, minus = np.add.outer(r, r) % n, np.subtract.outer(r, r).T % n
        return np.block([[plus, n + minus], [n + plus, minus]])
    if spec.kind == "symmetric":
        # One-line permutations in lexicographic order put the identity first;
        # read as base-n numerals they increase, so a lookup by numeral gives
        # each one's index.  The product p*q is i -> p(q(i)).
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int32)
        weights = [n ** (n - 1 - i) for i in range(n)]
        index = np.zeros(n ** n, dtype=np.int32)
        index[perms @ np.array(weights)] = np.arange(len(perms), dtype=np.int32)
        numerals = np.zeros((len(perms), len(perms)), dtype=np.int32)
        for i, w in enumerate(weights):
            numerals += perms[:, perms[:, i]] * w
        return index[numerals]
    # A product's pair (a, b) sits at index a*|right| + b, so pairs are in
    # lexicographic order and (0, 0) is the identity.
    assert spec.left is not None and spec.right is not None
    left, right = build_group(spec.left).cayley, build_group(spec.right).cayley
    m = len(left) * len(right)
    return ((left * len(right))[:, None, :, None] + right[None, :, None, :]).reshape(m, m)


def _order(spec: GroupSpec) -> int:
    if spec.kind == "product":
        assert spec.left is not None and spec.right is not None
        return _order(spec.left) * _order(spec.right)
    if spec.kind == "symmetric":
        return math.factorial(spec.n)
    if spec.kind not in ("cyclic", "dihedral", "table"):
        raise ValueError(f"unknown group kind {spec.kind!r}.")
    return 2 * spec.n if spec.kind == "dihedral" else spec.n


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Realize a GroupSpec as a validated FiniteGroup.

    An order above MAX_ORDER is rejected before any table is made.
    """
    _check_order(_order(spec))
    if spec.kind == "table":
        assert spec.entries is not None
        return FiniteGroup(spec.entries, spec.names, spec=spec)
    names = [str(a) for a in range(spec.n)] if spec.kind == "cyclic" else None
    return FiniteGroup(_table(spec), names, spec=spec)


def spec_from_json(obj: object) -> GroupSpec:
    """Parse the wire form of a group spec, e.g. {"cyclic": 17}."""
    obj = _wire.fields(obj, "group spec",
                       optional=("cyclic", "dihedral", "symmetric", "product", "table"))
    if len(obj) != 1:
        raise ValueError(f"group spec must name exactly one kind, got {obj!r}.")
    (kind, arg), = obj.items()
    if kind == "cyclic":
        return cyclic(_wire.integer(arg, "cyclic order"))
    if kind == "dihedral":
        return dihedral(_wire.integer(arg, "dihedral degree"))
    if kind == "symmetric":
        return symmetric(_wire.integer(arg, "symmetric degree"))
    if kind == "product":
        left, right = _wire.array(arg, '"product"', length=2)
        return product(spec_from_json(left), spec_from_json(right))
    arg = _wire.fields(arg, "table spec", required=("table",), optional=("order", "names"))
    rows = _wire.array(arg["table"], '"table"')
    m = len(rows)
    order = _wire.integer(arg.get("order", m), "table spec order")
    if order != m:
        raise ValueError(f"table spec order {order} does not match {m} rows.")
    names = arg.get("names")
    if names is not None:
        _wire.array(names, '"names"', item=_wire.string)
    # Checked here, on the parsed JSON, so no entry reaches numpy unchecked.
    for r in rows:
        _wire.array(r, "table row", lambda x, what: _wire.integer(x, what, 0, m - 1), m)
    return table(rows, names)


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

