"""Construction and validation of finite groups as multiplication tables."""

import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

import shirshov as sh
from shirshov import groups


def test_cyclic_basics():
    g = sh.build_group(sh.cyclic(3))
    assert g.order == 3
    assert g.mul(1, 2) == 0
    assert g.mul(0, 1) == g.mul(1, 0) == 1
    assert [g.name_of(k) for k in range(3)] == ["0", "1", "2"]


def test_identity_is_index_zero_everywhere():
    for spec in (sh.cyclic(5), sh.dihedral(3), sh.symmetric(3),
                 sh.product(sh.cyclic(2), sh.cyclic(3))):
        g = sh.build_group(spec)
        for a in range(g.order):
            assert g.mul(0, a) == a
            assert g.mul(a, 0) == a


def test_table_spec_z2():
    g = sh.build_group(sh.table([[0, 1], [1, 0]]))
    assert g.order == 2
    assert g.mul(1, 1) == 0
    assert g.inverse(1) == 1


def test_non_associative_table_rejected():
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValueError, match="associativity violated"):
        sh.build_group(sh.table(bad))


def test_table_without_identity_rejected():
    # Row/column 0 is not an identity here.
    bad = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        sh.build_group(sh.table(bad))
    # Row 0 is an identity row, column 0 is not.
    with pytest.raises(ValueError, match=re.escape("identity violated: mul(1,0) = 0 != 1.")):
        sh.build_group(sh.table([[0, 1], [0, 0]]))


def test_table_entry_out_of_range_rejected():
    with pytest.raises(ValueError):
        sh.build_group(sh.table([[0, 1], [1, 2]]))
    with pytest.raises(ValueError, match=re.escape("table row 1 has length 1, expected 2.")):
        sh.build_group(sh.table([[0, 1], [1]]))


def test_symmetric_is_nonabelian():
    g = sh.build_group(sh.symmetric(3))
    assert g.order == 6
    assert any(
        g.mul(a, b) != g.mul(b, a)
        for a in range(g.order)
        for b in range(g.order)
    )


def test_symmetric_degree_capped():
    with pytest.raises(ValueError, match="symmetric degree"):
        sh.build_group(sh.symmetric(7))


def test_inverse_examples():
    z3 = sh.build_group(sh.cyclic(3))
    assert z3.inverse(1) == 2
    assert z3.inverse(0) == 0
    d4 = sh.build_group(sh.dihedral(4))
    # Reflections occupy indices n..2n-1 and are involutions.
    for a in range(4, 8):
        assert d4.inverse(a) == a
        assert d4.mul(a, a) == 0


def test_inverse_is_involution():
    for spec in (sh.cyclic(7), sh.dihedral(4), sh.symmetric(3)):
        g = sh.build_group(spec)
        for a in range(g.order):
            assert g.inverse(g.inverse(a)) == a
            assert g.mul(a, g.inverse(a)) == 0
            assert g.mul(g.inverse(a), a) == 0


def test_product_group_componentwise():
    g = sh.build_group(sh.product(sh.cyclic(2), sh.cyclic(3)))
    assert g.order == 6
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    lhs = g.mul(a1 * 3 + b1, a2 * 3 + b2)
                    rhs = ((a1 + a2) % 2) * 3 + (b1 + b2) % 3
                    assert lhs == rhs



def test_product_takes_only_group_specs():
    for left, right in ((sh.cyclic(2), 3), ({"cyclic": 2}, sh.cyclic(2)), (None, None)):
        with pytest.raises(ValueError, match="product factors must be group specs"):
            sh.build_group(sh.product(left, right))
    assert sh.build_group(sh.product(sh.cyclic(2), sh.cyclic(2))).order == 4


def test_associativity_exhaustive_small():
    rng = random.Random(0)
    for spec in (sh.cyclic(6), sh.dihedral(3), sh.symmetric(3)):
        g = sh.build_group(spec)
        for _ in range(200):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_large_symmetric_group_builds():
    # Order 120 takes Light's associativity test over a generating set of
    # several elements.
    g = sh.build_group(sh.symmetric(5))
    assert g.order == 120
    assert g.mul(0, 17) == 17


def test_mul_rejects_out_of_range():
    g = sh.build_group(sh.cyclic(3))
    with pytest.raises(ValueError):
        g.mul(0, 3)
    with pytest.raises(ValueError):
        g.inverse(-1)


def test_mul_rejects_bools_and_non_ints():
    g = sh.build_group(sh.symmetric(3))
    for bad in (True, False, 2.0, "2", None, np.int64(1)):
        with pytest.raises(ValueError) as err:
            g.mul(1, bad)
        assert str(err.value) == f"element index must be an integer in [0,5], got {bad!r}."
    # An int subclass other than bool is an int.
    Small = type("Small", (int,), {})
    assert g.mul(Small(1), 2) == g.mul(1, 2)


def test_custom_table_names():
    g = sh.build_group(sh.table([[0, 1], [1, 0]], names=["e", "s"]))
    assert g.name_of(1) == "s"
    d = sh.build_group(sh.dihedral(4))
    assert d.name_of(5) == "g5"
    with pytest.raises(ValueError, match=re.escape("got 2 names for 1 elements.")):
        sh.build_group(sh.table([[0]], names=["e", "s"]))


def test_spec_json_round_trip():
    for spec in (
        sh.cyclic(17),
        sh.dihedral(4),
        sh.symmetric(3),
        sh.product(sh.cyclic(2), sh.cyclic(3)),
        sh.table([[0, 1], [1, 0]], names=["e", "s"]),
    ):
        again = sh.spec_from_json(json.loads(json.dumps(sh.spec_to_json(spec))))
        assert again == spec
        assert sh.build_group(again).order == sh.build_group(spec).order


def test_spec_json_examples():
    assert sh.spec_from_json({"cyclic": 17}) == sh.cyclic(17)
    assert sh.spec_from_json({"product": [{"cyclic": 2}, {"cyclic": 3}]}) == \
        sh.product(sh.cyclic(2), sh.cyclic(3))
    g = sh.build_group(sh.spec_from_json(
        {"table": {"order": 2, "table": [[0, 1], [1, 0]]}}
    ))
    assert g.order == 2


def test_spec_json_rejects_garbage():
    for doc in ({}, {"cyclic": 0}, {"cyclic": "x"}, {"banana": 3}, [1, 2], None,
                {"table": {"order": 2, "table": [[0, 1]]}}):
        with pytest.raises(ValueError):
            sh.spec_from_json(doc)
    for realize in (sh.build_group, sh.spec_to_json):
        with pytest.raises(ValueError, match="unknown group kind 'banana'"):
            realize(sh.GroupSpec("banana", 3))


def test_cayley_array_matches_table():
    g = sh.build_group(sh.symmetric(4))
    assert g.cayley.dtype == np.int16
    assert g.cayley is g.cayley
    with pytest.raises(ValueError):
        g.cayley[0, 0] = 1


def test_order_cap_keeps_flat_indices_int32():
    # Elements reach m - 1, which must fit the table's int16, and flat
    # indices a*m + b reach m^2 - 1, which must fit int32; the cap is read
    # off the spec, so no table of an oversized group is ever made.
    cap = groups.MAX_ORDER
    assert cap - 1 <= np.iinfo(np.int16).max
    assert cap ** 2 - 1 <= np.iinfo(np.int32).max
    for spec, order in ((sh.cyclic(cap + 1), cap + 1),
                        (sh.dihedral(cap // 2 + 1), cap + 2),
                        (sh.product(sh.symmetric(6), sh.symmetric(6)), 720 * 720),
                        (sh.product(sh.cyclic(100_000), sh.cyclic(1)), 100_000)):
        with pytest.raises(ValueError, match=f"order {order} exceeds the cap of {cap}"):
            sh.build_group(spec)
    # A table's order is its row count, read before any row.
    with pytest.raises(ValueError, match=f"order {cap + 1} exceeds the cap of {cap}"):
        sh.table([[0]] * (cap + 1))
    assert sh.build_group(sh.product(sh.symmetric(5), sh.cyclic(34))).order == 4080


def _table_from_definition(elements, compose):
    index = {x: k for k, x in enumerate(elements)}
    return [[index[compose(x, y)] for y in elements] for x in elements]


def _definition(spec):
    """(elements in index order, product) of a spec, from the group's definition."""
    n = spec.n
    if spec.kind == "cyclic":
        return list(range(n)), lambda a, b: (a + b) % n
    if spec.kind == "dihedral":
        # Maps v -> e*v + t of Z/n: r^i is (1, i) and s*r^i is (-1, -i).
        elements = [(1, i) for i in range(n)] + [(-1, -i % n) for i in range(n)]
        return elements, lambda f, g: (f[0] * g[0], (f[0] * g[1] + f[1]) % n)
    if spec.kind == "symmetric":
        elements = list(itertools.permutations(range(n)))
        return elements, lambda p, q: tuple(p[i] for i in q)
    (left, lmul), (right, rmul) = _definition(spec.left), _definition(spec.right)
    elements = [(a, b) for a in left for b in right]
    return elements, lambda x, y: (lmul(x[0], y[0]), rmul(x[1], y[1]))


def test_largest_table_build_memory_is_bounded():
    # The table of cyclic(MAX_ORDER) is built, range-checked and tested for
    # associativity in int16: measured tracemalloc peak 144.3 MiB (numpy
    # 2.4.6), about 4.5 tables of 32 MiB.  The limit adds 16 MiB, one bool
    # array of m^2 entries, for other numpy builds.
    tracemalloc.start()
    try:
        g = sh.build_group(sh.cyclic(groups.MAX_ORDER))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.cayley.nbytes == 2 * groups.MAX_ORDER ** 2
    assert peak <= 160 << 20, peak


def test_cayley_matches_definition():
    specs = [sh.cyclic(n) for n in range(1, 13)]
    specs += [sh.dihedral(n) for n in range(2, 9)]
    specs += [sh.symmetric(n) for n in range(1, 7)]
    specs += [
        sh.product(sh.cyclic(2), sh.cyclic(3)),
        sh.product(sh.symmetric(3), sh.product(sh.cyclic(2), sh.dihedral(3))),
        sh.product(sh.product(sh.cyclic(4), sh.symmetric(3)), sh.cyclic(5)),
    ]
    for spec in specs:
        g = sh.build_group(spec)
        assert g.cayley.tolist() == _table_from_definition(*_definition(spec)), spec
        assert g.cayley.dtype == np.int16 and not g.cayley.flags.writeable


def test_intercalate_swap_in_s6_rejected_with_a_true_witness():
    # Swapping the two values of a 2x2 Latin subsquare keeps every row and
    # column a permutation, but the table is no longer associative.
    rows = sh.build_group(sh.symmetric(6)).cayley.tolist()
    x, y = rows[601][203], rows[601][525]
    assert (rows[718][525], rows[718][203]) == (x, y)
    rows[601][203] = rows[718][525] = y
    rows[601][525] = rows[718][203] = x
    with pytest.raises(ValueError, match="associativity violated") as err:
        sh.build_group(sh.table(rows))
    a, b, c = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(err.value)).groups())
    assert rows[rows[a][b]][c] != rows[a][rows[b][c]]


def _is_group_exhaustive(rows):
    m = range(len(rows))
    return (
        all(rows[0][a] == a == rows[a][0] for a in m)
        and all(rows[rows[a][b]][c] == rows[a][rows[b][c]] for a in m for b in m for c in m)
        and all(any(rows[a][b] == 0 == rows[b][a] for b in m) for a in m)
    )


def _accepts(rows):
    try:
        sh.build_group(sh.table(rows))
    except ValueError:
        return False
    return True


def test_light_test_agrees_with_exhaustive_check():
    # Every table of order <= 3 with identity row and column, random ones of
    # order 4 and 5, and groups of order 8 relabelled by permutations fixing 0.
    tables = []
    for m in (1, 2, 3):
        for body in itertools.product(range(m), repeat=(m - 1) ** 2):
            rows = [list(range(m))] + [[a] + [0] * (m - 1) for a in range(1, m)]
            for k, x in enumerate(body):
                rows[1 + k // (m - 1)][1 + k % (m - 1)] = x
            tables.append(rows)
    rng = random.Random(7)
    for m in (4, 5):
        for _ in range(500):
            tables.append([list(range(m))] + [[a] + [rng.randrange(m) for _ in range(m - 1)]
                                              for a in range(1, m)])
    for spec in (sh.cyclic(8), sh.dihedral(4), sh.product(sh.cyclic(2), sh.cyclic(4)),
                 sh.product(sh.cyclic(2), sh.product(sh.cyclic(2), sh.cyclic(2)))):
        base = sh.build_group(spec).cayley.tolist()
        for _ in range(5):
            perm = [0] + rng.sample(range(1, 8), 7)
            inv = {p: k for k, p in enumerate(perm)}
            tables.append([[perm[base[inv[a]][inv[b]]] for b in range(8)] for a in range(8)])
    verdicts = [_accepts(rows) for rows in tables]
    assert verdicts == [_is_group_exhaustive(rows) for rows in tables]
    assert sum(verdicts) > 20


def test_non_group_monoids_rejected():
    # Z/2 with an absorbing zero adjoined is associative, but adding the zero
    # to the subgroup {0, 1} reaches 3 elements, not a multiple of 2.
    with pytest.raises(ValueError, match="not a group"):
        sh.build_group(sh.table([[0, 1, 2], [1, 0, 2], [2, 2, 2]]))
    # {1, 0} under multiplication: associative, and 1 has no inverse.
    with pytest.raises(ValueError, match="no two-sided inverse for element 1"):
        sh.build_group(sh.table([[0, 1], [1, 1]]))


def test_group_holds_one_table():
    g = sh.build_group(sh.symmetric(5))
    assert not hasattr(g, "mul_table")
    assert [k for k, v in vars(g).items() if isinstance(v, np.ndarray)] == ["cayley"]
    rows = g.cayley.tolist()
    assert all(type(g.mul(a, b)) is int and g.mul(a, b) == rows[a][b]
               for a in range(g.order) for b in range(g.order))


def test_spec_json_table_entries_are_true_ints():
    for doc in ({"table": {"table": [[0, 1], [1, False]]}},
                {"table": {"order": True, "table": [[0]]}},
                {"table": {"table": [[0, 1], [1, 10 ** 30]]}},
                {"table": {"table": [[0, 1], [1, -1]]}},
                {"table": {"table": [[0, 1], [1, 0.0]]}}):
        with pytest.raises(ValueError):
            sh.spec_from_json(doc)
    for rows in ([[0, 1], [1, 10 ** 30]], [[0, 1], [1, 1.0]], [[0, 1], [1, "0"]]):
        with pytest.raises(ValueError, match="integers"):
            sh.build_group(sh.table(rows))
