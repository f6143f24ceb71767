"""Builders shared by the test modules: the Z/2-graded alphabet {x: 1, y: 0}
and the fixture algebra <x, y | x y -> y y x> over it."""

import shirshov as sh


def z2_alphabet():
    group = sh.build_group(sh.cyclic(2))
    return sh.GradedAlphabet(group, [("x", 1), ("y", 0)])


def fixture_algebra(field=None):
    field = sh.PrimeField() if field is None else field
    return sh.AlgebraSpec(
        alphabet=z2_alphabet(),
        rules=[sh.RewriteRule(lhs=("x", "y"), rhs=((("y", "y", "x"), field.one),))],
        field=field,
    )
