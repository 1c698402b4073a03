"""Exact moments over the unit cosphere and their quadrature referee."""

import random
from fractions import Fraction

from wres4.sphere import integrate_sphere, moment
from wres4.scalars import ScalarExpr

OMEGA = ScalarExpr.var("OMEGA")


def rand_poly(rng, max_deg=4):
    out = ScalarExpr.zero()
    for _ in range(5):
        term = ScalarExpr.const(rng.randint(-5, 5))
        for name in ("XI1", "XI2", "XI3"):
            term = term * ScalarExpr.var(name, rng.randint(0, max_deg))
        out = out + term
    return out


class TestMoment:
    def test_constant(self):
        assert moment(0, 0, 0) == Fraction(1)

    def test_squares(self):
        assert moment(2, 0, 0) == Fraction(1, 3)
        assert moment(0, 2, 0) == Fraction(1, 3)
        assert moment(2, 2, 0) == Fraction(1, 15)
        assert moment(2, 2, 2) == Fraction(1, 105)
        assert moment(4, 0, 0) == Fraction(1, 5)

    def test_odd_vanishing_through_degree_seven(self):
        for a in range(8):
            for b in range(8 - a):
                for c in range(8 - a - b):
                    if a % 2 or b % 2 or c % 2:
                        assert moment(a, b, c) == 0


class TestIntegrateSphere:
    def test_unit(self):
        assert integrate_sphere(ScalarExpr.one()) == OMEGA

    def test_square_moment(self):
        e = ScalarExpr.var("XI1", 2)
        assert integrate_sphere(e) == OMEGA * ScalarExpr.const(
            Fraction(1, 3))

    def test_sum_of_squares_partition(self):
        # sum_i integral(xi_i^2 p) = integral(p) on the unit sphere
        rng = random.Random(53)
        for _ in range(200):
            p = rand_poly(rng)
            total = ScalarExpr.zero()
            for name in ("XI1", "XI2", "XI3"):
                total = total + integrate_sphere(
                    ScalarExpr.var(name, 2) * p)
            assert total == integrate_sphere(p)

    def test_spectator_names_pass_through(self):
        e = (ScalarExpr.var("HP") * ScalarExpr.f_inverse(2)
             * ScalarExpr.var("XI2", 2))
        expected = (ScalarExpr.var("HP") * ScalarExpr.f_inverse(2)
                    * ScalarExpr.const(Fraction(1, 3)) * OMEGA)
        assert integrate_sphere(e) == expected
