"""Builders shared by the test modules: the Z/2-graded alphabet {x: 1, y: 0},
the fixture algebra <x, y | x y -> y y x> over it, and the branching algebra
<x, y | y x -> 2 x y + 1/3 x> over Q."""

from fractions import Fraction

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


def branching_algebra():
    # y x -> 2 x y + 1/3 x over Q: every rewrite forks.
    rule = sh.RewriteRule(("y", "x"), ((("x", "y"), Fraction(2)), (("x",), Fraction(1, 3))))
    return sh.AlgebraSpec(z2_alphabet(), [rule], sh.RationalField())
