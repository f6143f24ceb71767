"""Finite groups as Cayley tables, with the identity pinned at index 0.

Elements are plain integer indices in ``[0, order)``.  A group is either
built from one of the canonical families (cyclic, dihedral, symmetric,
direct product) or from an explicit multiplication table, which is
validated for the group axioms at construction time.  Every group holds its
table as one read-only int16 numpy array, ``cayley``, and nothing else.  Its
entries are elements, which are below MAX_ORDER and so fit int16; a flat
index a*m + b into it is formed in int32.
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
# Largest order a table is made for: every element, at most 4095, fits
# int16, so 4096^2 entries are 32 MiB, the group's only table; every flat
# index a*m + b, up to m^2 - 1, fits int32.
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
    return GroupSpec(kind="cyclic", n=_wire.integer(n, "cyclic order", 1))


def dihedral(n: int) -> GroupSpec:
    """Symmetries of the regular n-gon (order 2n), n >= 2."""
    return GroupSpec(kind="dihedral", n=_wire.integer(n, "dihedral degree", 2))


def symmetric(n: int) -> GroupSpec:
    """Permutations of n points, restricted to n <= 6 to keep tables desk-scale."""
    return GroupSpec(kind="symmetric",
                     n=_wire.integer(n, "symmetric degree", 1, MAX_SYMMETRIC_DEGREE))


def product(left: GroupSpec, right: GroupSpec) -> GroupSpec:
    """Direct product; elements are pairs ordered lexicographically."""
    if not (isinstance(left, GroupSpec) and isinstance(right, GroupSpec)):
        raise ValueError(f"product factors must be group specs, got {left!r} and {right!r}.")
    return GroupSpec(kind="product", left=left, right=right)


def table(entries: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> GroupSpec:
    """Explicit Cayley table of m rows of m elements (see _elements); validated
    for the group axioms when built."""
    rows = tuple(map(tuple, _elements(entries, "table entries").tolist()))
    return GroupSpec(kind="table", n=len(rows), entries=rows, names=_names(names))


def _names(names: Sequence[str] | None) -> tuple[str, ...] | None:
    if names is not None and not isinstance(names, (list, tuple)):
        raise ValueError(f"element names must be a list, got {names!r}.")
    return None if names is None else tuple(_wire.string(x, "element name") for x in names)


def _elements(x: object, what: str, m: int | None = None) -> np.ndarray:
    """x as a new read-only int16 array of group elements, each in [0, m): given m, a
    sequence, otherwise a Cayley table of m rows of m entries, 1 <= m <= MAX_ORDER.
    x is an integer numpy array or a list or tuple of ints (see _wire.is_int) or of rows."""
    ndim = 2 if m is None else 1
    if not (isinstance(x, (list, tuple))
            or isinstance(x, np.ndarray) and x.dtype.kind in "iu" and x.ndim == ndim):
        raise ValueError(f"{what} must be a list, or an array {('one', 'two')[ndim - 1]}"
                         f"-dimensional and integral, got {x!r}.")
    if m is None:
        m = len(x)
        if m == 0:
            raise ValueError("a group has at least one element.")
        _check_order(m)
        for a, row in enumerate(x):
            if not isinstance(row, (list, tuple, np.ndarray)):
                raise ValueError(f"table row {a} must be a list, got {row!r}.")
            if len(row) != m:
                raise ValueError(f"table row {a} has length {len(row)}, expected {m}.")
    if isinstance(x, np.ndarray):
        # Two reductions; the first bad entry is looked for only on failure.
        ok = not x.size or 0 <= int(x.min()) and int(x.max()) < m
        bad = None if ok else next((k, x.flat[k].item())
                                   for k in np.flatnonzero((x < 0) | (x >= m)))
    else:
        # _wire.is_int written inline: this runs once per element.
        bad = None
        for k, g in enumerate(itertools.chain.from_iterable(x) if ndim == 2 else x):
            if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < m:
                bad = k, g
                break
    if bad:
        where = f"position {bad[0] + 1}" if ndim == 1 else "({},{})".format(*divmod(bad[0], m))
        raise ValueError(f"{what} must be integers in [0,{m - 1}], got {bad[1]!r} at {where}.")
    arr = np.array(x, dtype=np.int16)
    arr.flags.writeable = False
    return arr


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
        cayley = _elements(entries, "table entries")
        m = len(cayley)
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
        names = tuple(f"g{k}" for k in range(m)) if names is None else _names(names)
        if len(names) != m:
            raise ValueError(f"got {len(names)} names for {m} elements.")

        self.order = m
        self.cayley = cayley
        self.inv_table = tuple(inv.tolist())
        self.names = names
        self.spec = spec

    def _index(self, a: int) -> int:
        return _wire.integer(a, "element index", 0, self.order - 1)

    def mul(self, a: int, b: int) -> int:
        return self.cayley.item(self._index(a), self._index(b))

    def inverse(self, a: int) -> int:
        return self.inv_table[self._index(a)]

    def name_of(self, a: int) -> str:
        return self.names[self._index(a)]

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
    """The Cayley table of a family spec, made with whole-array numpy steps.

    Every value is an element, below the order, which build_group has checked
    against MAX_ORDER, so the tables are int16 throughout; only the symmetric
    builder's base-n numerals, up to 6^6, need int32.
    """
    n = spec.n
    r = np.arange(n, dtype=np.int16)
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
        index = np.zeros(n ** n, dtype=np.int16)
        index[perms @ np.array(weights)] = np.arange(len(perms), dtype=np.int16)
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
        # table() has read the entries: as an array they are not read again in Python.
        return FiniteGroup(np.array(spec.entries), spec.names, spec=spec)
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
        return cyclic(arg)
    if kind == "dihedral":
        return dihedral(arg)
    if kind == "symmetric":
        return symmetric(arg)
    if kind == "product":
        left, right = _wire.array(arg, '"product"', length=2)
        return product(spec_from_json(left), spec_from_json(right))
    arg = _wire.fields(arg, "table spec", required=("table",), optional=("order", "names"))
    spec = table(arg["table"], arg.get("names"))
    order = _wire.integer(arg.get("order", spec.n), "table spec order")
    if order != spec.n:
        raise ValueError(f"table spec order {order} does not match {spec.n} rows.")
    return spec


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

