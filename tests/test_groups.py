"""Construction and validation of finite groups as multiplication tables."""

import random

import numpy as np
import pytest

import shirshov as sh
from shirshov.groups import _index_dtype


def test_cyclic_basics():
    g = sh.build_group(sh.cyclic(3))
    assert g.order == 3
    assert g.mul(1, 2) == 0
    assert g.id() == 0
    assert [g.name_of(k) for k in range(3)] == ["0", "1", "2"]


def test_identity_is_index_zero_everywhere():
    for spec in (sh.cyclic(5), sh.dihedral(3), sh.symmetric(3),
                 sh.product(sh.cyclic(2), sh.cyclic(3))):
        g = sh.build_group(spec)
        for a in g.elements():
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


def test_table_entry_out_of_range_rejected():
    with pytest.raises(ValueError):
        sh.build_group(sh.table([[0, 1], [1, 2]]))


def test_symmetric_is_nonabelian():
    g = sh.build_group(sh.symmetric(3))
    assert g.order == 6
    assert any(
        g.mul(a, b) != g.mul(b, a)
        for a in g.elements()
        for b in g.elements()
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
        for a in g.elements():
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


def test_associativity_exhaustive_small():
    rng = random.Random(0)
    for spec in (sh.cyclic(6), sh.dihedral(3), sh.symmetric(3)):
        g = sh.build_group(spec)
        for _ in range(200):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_large_symmetric_group_builds():
    # Order 120 exceeds the exhaustive-associativity cutoff, exercising the
    # sampled check.
    g = sh.build_group(sh.symmetric(5))
    assert g.order == 120
    assert g.mul(0, 17) == 17


def test_mul_rejects_out_of_range():
    g = sh.build_group(sh.cyclic(3))
    with pytest.raises(ValueError):
        g.mul(0, 3)
    with pytest.raises(ValueError):
        g.inverse(-1)


def test_prod_folds_in_order():
    g = sh.build_group(sh.symmetric(3))
    seq = [1, 2, 4, 3]
    acc = 0
    for a in seq:
        acc = g.mul(acc, a)
    assert g.prod(seq) == acc
    assert g.prod([]) == 0


def test_custom_table_names():
    g = sh.build_group(sh.table([[0, 1], [1, 0]], names=["e", "s"]))
    assert g.name_of(1) == "s"
    d = sh.build_group(sh.dihedral(4))
    assert d.name_of(5) == "g5"


def test_spec_json_round_trip():
    for spec in (
        sh.cyclic(17),
        sh.dihedral(4),
        sh.symmetric(3),
        sh.product(sh.cyclic(2), sh.cyclic(3)),
        sh.table([[0, 1], [1, 0]], names=["e", "s"]),
    ):
        again = sh.spec_from_json(sh.spec_to_json(spec))
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


def test_cayley_array_matches_table():
    g = sh.build_group(sh.symmetric(4))
    assert g.cayley.tolist() == [list(row) for row in g.mul_table]
    assert g.cayley.dtype == np.int32
    assert g.cayley is g.cayley
    with pytest.raises(ValueError):
        g.cayley[0, 0] = 1


def test_index_dtype_widens_before_int32_overflow():
    # Flat indices of order m reach m^2 - 1; 46340^2 - 1 < 2^31 <= 46341^2 - 1.
    assert _index_dtype(46340) is np.int32
    assert _index_dtype(46341) is np.int64
