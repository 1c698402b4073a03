"""Exact scalar arithmetic: Gaussian rationals, sparse polynomials, and
scalars as Laurent polynomials in F."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres4.errors import (
    DivisionByZero,
    NonMonomialDenominator,
    UnsupportedOrder,
    ZeroDenominator,
)
from wres4.scalars import (
    GAUSS_I,
    NAMES,
    GaussianRational,
    ScalarExpr,
    frac,
    reduce_sphere,
)


def rand_gauss(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def rand_expr(rng, names=("HP", "F", "FI4", "XI1", "U"), nterms=4):
    out = ScalarExpr.zero()
    for _ in range(nterms):
        term = ScalarExpr.const(rand_gauss(rng))
        for name in names:
            term = term * ScalarExpr.var(name, rng.randint(0, 2))
        out = out + term
    return out


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = GaussianRational(1, 2)
        b = GaussianRational(3, -1)
        assert a * b == GaussianRational(5, 5)
        assert a + b == GaussianRational(4, 1)
        assert a - b == GaussianRational(-2, 3)
        assert GAUSS_I * GAUSS_I == GaussianRational(-1)

    def test_division_and_pow(self):
        a = GaussianRational(5, 5)
        b = GaussianRational(3, -1)
        assert a / b == GaussianRational(1, 2)
        assert b ** 3 == b * b * b
        assert b ** 0 == GaussianRational(1)

    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rand_gauss(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            if not b.is_zero():
                assert (a / b) * b == a


class TestScalarExpr:
    def test_derivative_product_rule(self):
        rng = random.Random(13)
        for _ in range(60):
            a = rand_expr(rng).num
            b = rand_expr(rng).num
            lhs = (a * b).derivative("XI1")
            rhs = a.derivative("XI1") * b + a * b.derivative("XI1")
            assert lhs == rhs

    def test_f_power_normalization(self):
        e = ScalarExpr.var("F") * ScalarExpr.f_inverse(2)
        assert e == ScalarExpr.f_inverse(1)
        assert e.fpow == 1

    def test_division_by_monomial(self):
        e = ScalarExpr.var("HP") * ScalarExpr.var("F", 2)
        q = e / ScalarExpr.var("F", 3)
        assert q == ScalarExpr.var("HP") * ScalarExpr.f_inverse(1)
        # zero divided by any nonzero monomial is zero
        zero = ScalarExpr.zero()
        assert zero / ScalarExpr.var("XI1") == zero
        assert zero / (ScalarExpr.var("HP") * ScalarExpr.var("F", 2)) == zero

    def test_division_errors(self):
        e = ScalarExpr.var("HP")
        with pytest.raises(DivisionByZero):
            e / ScalarExpr.zero()
        with pytest.raises(NonMonomialDenominator):
            e / (ScalarExpr.var("F") + ScalarExpr.one())
        with pytest.raises(NonMonomialDenominator):
            e / ScalarExpr.var("XI1")

    def test_x_derivative_jet_chain(self):
        f = ScalarExpr.var("F")
        assert f.x_derivative(4) == ScalarExpr.var("FI4")
        assert f.x_derivative(1) == ScalarExpr.var("FI1")
        assert (ScalarExpr.var("FI4").x_derivative(1)
                == ScalarExpr.var("FIJ14"))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_x_derivative_f_inverse(self, k):
        # quotient rule: d_4 f^-k = -k f_4 f^-(k+1)
        assert ScalarExpr.f_inverse(k).x_derivative(4) == (
            ScalarExpr.const(-k) * ScalarExpr.var("FI4")
            * ScalarExpr.f_inverse(k + 1))

    def test_x_derivative_order_guard(self):
        with pytest.raises(UnsupportedOrder):
            ScalarExpr.var("FIJ11").x_derivative(1)

    def test_xi_derivative_chain_through_u(self):
        u = ScalarExpr.var("U")
        assert u.xi_derivative(1) == (ScalarExpr.const(2)
                                      * ScalarExpr.var("XI1"))
        assert u.xi_derivative(4) == ScalarExpr.zero()
        e = ScalarExpr.var("XI2") * u
        expected = (u + ScalarExpr.const(2) * ScalarExpr.var("XI2") ** 2)
        assert e.xi_derivative(2) == expected

    def test_substitute_homomorphism(self):
        rng = random.Random(17)
        binding = {"U": ScalarExpr.one(),
                   "XI1": ScalarExpr.var("XI2")}
        for _ in range(60):
            a = rand_expr(rng)
            b = rand_expr(rng)
            lhs = (a * b).substitute(binding)
            rhs = a.substitute(binding) * b.substitute(binding)
            assert lhs == rhs

    def test_substitute_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            ScalarExpr.f_inverse().substitute({"F": ScalarExpr.zero()})

    def test_pow_negative(self):
        e = ScalarExpr.var("F", 2)
        assert e ** -1 == ScalarExpr.f_inverse(2)


class TestReduceSphere:
    def test_even_power_elimination(self):
        x3sq = ScalarExpr.var("XI3", 2)
        expected = (ScalarExpr.one() - ScalarExpr.var("XI1", 2)
                    - ScalarExpr.var("XI2", 2))
        assert reduce_sphere(x3sq) == expected

    def test_unit_norm_collapses(self):
        norm = (ScalarExpr.var("XI1", 2) + ScalarExpr.var("XI2", 2)
                + ScalarExpr.var("XI3", 2))
        assert reduce_sphere(norm) == ScalarExpr.one()

    def test_odd_power_retained(self):
        e = ScalarExpr.var("XI3", 3)
        r = reduce_sphere(e)
        assert r == ScalarExpr.var("XI3") * reduce_sphere(
            ScalarExpr.var("XI3", 2))

    def test_idempotent_random(self):
        rng = random.Random(19)
        for _ in range(40):
            e = rand_expr(rng, names=("XI1", "XI2", "XI3", "HP"))
            assert reduce_sphere(reduce_sphere(e)) == reduce_sphere(e)

    def test_frac_helper(self):
        assert frac(1, 2) + frac(1, 2) == GaussianRational(1)


# -- property tests over Laurent polynomials in F ------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)

_small = st.integers(-4, 4)
_gauss = st.builds(GaussianRational,
                   st.builds(Fraction, _small, st.integers(1, 3)),
                   st.builds(Fraction, _small, st.integers(1, 3)))
_nonzero_gauss = _gauss.filter(lambda c: not c.is_zero())
_f_exp = st.integers(-3, 3)


@st.composite
def monomials(draw, coeff=_gauss):
    """c * F^k * HP^a * FI4^b * XI1^d * U^g with k in -3..3."""
    out = ScalarExpr.const(draw(coeff)) * ScalarExpr.var("F", draw(_f_exp))
    for name in ("HP", "FI4", "XI1", "U"):
        out = out * ScalarExpr.var(name, draw(st.integers(0, 2)))
    return out


laurent_scalars = st.lists(monomials(), max_size=4).map(
    lambda ms: sum(ms, ScalarExpr.zero()))


class TestScalarExprProperties:
    @PROPERTY
    @given(laurent_scalars, laurent_scalars, laurent_scalars,
           st.integers(-3, 3))
    def test_ring_axioms(self, a, b, c, k):
        zero, one = ScalarExpr.zero(), ScalarExpr.one()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero()
        assert k * a == a * k == ScalarExpr.const(k) * a

    @PROPERTY
    @given(laurent_scalars, laurent_scalars, st.integers(1, 4))
    def test_leibniz_x_derivative(self, a, b, j):
        lhs = (a * b).x_derivative(j)
        assert lhs == a.x_derivative(j) * b + a * b.x_derivative(j)

    @PROPERTY
    @given(laurent_scalars, laurent_scalars)
    def test_leibniz_f_derivative(self, a, b):
        lhs = (a * b).derivative("F")
        assert lhs == a.derivative("F") * b + a * b.derivative("F")

    @PROPERTY
    @given(laurent_scalars, monomials(coeff=_nonzero_gauss))
    def test_division_undoes_monomial_product(self, a, m):
        assert (a * m) / m == a

    @PROPERTY
    @given(laurent_scalars)
    def test_num_fpow_view(self, e):
        num, k = e.num, e.fpow
        assert k >= 0
        assert all(exp > 0 for mono in num.terms for _, exp in mono)
        f_exps = [dict(mono).get(NAMES.index("F"), 0) for mono in num.terms]
        # num shares no factor of F with F**fpow ...
        assert k == 0 or 0 in f_exps
        # ... and rebuilds the value exactly
        assert num * ScalarExpr.f_inverse(k) == e
