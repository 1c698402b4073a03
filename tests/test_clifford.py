"""Clifford algebra over the scalar ring: relations, traces, and the
collar-frame derivative rule."""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres4.clifford import CliffordElem, spin_trace
from wres4.oracle import GammaRep
from wres4.scalars import NAMES, GaussianRational, ScalarExpr, reduce_sphere


def rand_elem(rng, depth=3):
    out = CliffordElem.zero()
    for _ in range(depth):
        term = CliffordElem.scalar(ScalarExpr.const(rng.randint(-5, 5)))
        for _ in range(rng.randint(0, 3)):
            term = term * CliffordElem.gen(rng.randint(1, 4))
        out = out + term
    return out


class TestRelations:
    def test_generators_square_to_minus_one(self):
        for i in range(1, 5):
            g = CliffordElem.gen(i)
            assert g * g == CliffordElem.scalar(ScalarExpr.const(-1))

    def test_anticommutation(self):
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                gi, gj = CliffordElem.gen(i), CliffordElem.gen(j)
                assert gi * gj + gj * gi == CliffordElem.zero()

    def test_associativity_random(self):
        rng = random.Random(23)
        for _ in range(100):
            a, b, c = (rand_elem(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_product_matches_operator(self):
        # Each element, its coefficients evaluated at one rational point,
        # maps to sum_b coeff_b * gamma_b; a * b must map to the matrix
        # product.  Coefficients have several terms, so products of
        # coefficients merge and cancel inside a blade.
        rep = GammaRep()
        rng = random.Random(29)
        point = {"F": Fraction(3, 2), "HP": Fraction(-2, 5)}

        def matrix(a):
            out = np.zeros((4, 4), complex)
            for basis, c in a.terms.items():
                value = sum(complex(g) * float(prod(point[NAMES[i]] ** k
                                                    for i, k in m))
                            for m, g in c.terms.items())
                out += value * np.array(rep.basis_matrix(basis))
            return out

        def coeff():
            return sum((ScalarExpr.const(GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                rng.randint(-2, 2)))
                * ScalarExpr.var("F", rng.randint(-2, 2))
                * ScalarExpr.var("HP", rng.randint(0, 2))
                for _ in range(rng.randint(1, 4))), ScalarExpr.zero())

        for _ in range(50):
            a, b = (CliffordElem({basis: coeff() for basis in
                                  rng.sample(_BASES, rng.randint(1, 5))})
                    for _ in range(2))
            assert np.allclose(matrix(a * b), matrix(a) @ matrix(b),
                               rtol=1e-12, atol=1e-12)


class TestTrace:
    def test_trace_identities(self):
        cxp = CliffordElem.c_xi_prime()
        cdxn = CliffordElem.c_dxn()
        dcxp = cxp.x_derivative(4)
        hp = ScalarExpr.var("HP")
        assert spin_trace(cxp * cdxn) == ScalarExpr.zero()
        assert spin_trace(cdxn * cdxn) == ScalarExpr.const(-4)
        assert reduce_sphere(spin_trace(cxp * cxp)) == ScalarExpr.const(-4)
        assert spin_trace(dcxp * cdxn) == ScalarExpr.zero()
        assert (reduce_sphere(spin_trace(dcxp * cxp))
                == ScalarExpr.const(-2) * hp)

    def test_trace_of_volume_element(self):
        vol = (CliffordElem.gen(1) * CliffordElem.gen(2)
               * CliffordElem.gen(3) * CliffordElem.gen(4))
        assert spin_trace(vol) == ScalarExpr.zero()

    def test_cyclicity_and_linearity_random(self):
        rng = random.Random(31)
        for _ in range(250):
            a, b = rand_elem(rng), rand_elem(rng)
            assert spin_trace(a * b) == spin_trace(b * a)
            assert (spin_trace(a + b)
                    == spin_trace(a) + spin_trace(b))

    def test_trace_is_four_times_scalar_part(self):
        rng = random.Random(37)
        for _ in range(50):
            a = rand_elem(rng)
            assert spin_trace(a) == ScalarExpr.const(4) * a.scalar_part()


class TestDerivatives:
    def test_collar_frame_rule(self):
        hp = ScalarExpr.var("HP")
        for i in (1, 2, 3):
            g = CliffordElem.gen(i)
            assert g.x_derivative(4) == g.scale(hp * ScalarExpr.const(1) / 2)
        assert CliffordElem.gen(4).x_derivative(4) == CliffordElem.zero()
        # a constant blade with n tangential generators gains n h'(0)/2
        blades = [(), (4,), (1, 2), (1, 3, 4), (1, 2, 3), (1, 2, 3, 4)]
        e = CliffordElem({m: ScalarExpr.const(k + 1)
                          for k, m in enumerate(blades)})
        assert e.x_derivative(4) == CliffordElem(
            {m: ScalarExpr.const((k + 1) * sum(i < 4 for i in m)) * hp / 2
             for k, m in enumerate(blades)})

    def test_c_df_spatial_derivative(self):
        cdf = CliffordElem.c_df()
        d = cdf.x_derivative(1)
        expected = CliffordElem(
            {(k,): ScalarExpr.var(f"FI{k}").x_derivative(1)
             for k in range(1, 5)})
        assert d == expected

    def test_xi_derivative_of_c_xi_prime(self):
        cxp = CliffordElem.c_xi_prime()
        for i in (1, 2, 3):
            assert cxp.xi_derivative(i) == CliffordElem.gen(i)

    def test_leibniz_random(self):
        rng = random.Random(41)
        cxp = CliffordElem.c_xi_prime()
        for _ in range(50):
            a = rand_elem(rng)
            lhs = (a * cxp).xi_derivative(2)
            rhs = (a.xi_derivative(2) * cxp + a * cxp.xi_derivative(2))
            assert lhs == rhs


# -- ring axioms over random sparse elements ----------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=50,
                    deadline=None)

_BASES = [m for k in range(5) for m in combinations((1, 2, 3, 4), k)]
_small = st.integers(-3, 3)
_coeff = st.builds(
    lambda re, im, f, hp: (ScalarExpr.const(GaussianRational(re, im))
                           * ScalarExpr.var("F", f) * ScalarExpr.var("HP", hp)),
    st.builds(Fraction, _small, st.integers(1, 3)), _small,
    st.integers(-2, 2), st.integers(0, 1))
elements = st.dictionaries(st.sampled_from(_BASES), _coeff,
                           max_size=3).map(CliffordElem)


class TestCliffordProperties:
    @PROPERTY
    @given(elements, elements, elements)
    def test_ring_axioms(self, a, b, c):
        one = CliffordElem.one()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert one * a == a == a * one
        assert (a - a).is_zero()

    @PROPERTY
    @given(st.lists(_coeff, min_size=4, max_size=4))
    def test_clifford_relation(self, v):
        # c(dx_i)^2 = -1, and so c(v)^2 = -|v|^2 for v = sum v_i dx_i
        minus_one = CliffordElem.scalar(-1)
        for i in range(1, 5):
            assert CliffordElem.gen(i) * CliffordElem.gen(i) == minus_one
        cv = CliffordElem({(i,): v[i - 1] for i in range(1, 5)})
        norm = sum((x * x for x in v), ScalarExpr.zero())
        assert cv * cv == CliffordElem.scalar(-norm)


@pytest.mark.parametrize("product", [
    lambda e, s: e * s, lambda e, s: s * e, lambda e, s: 2 * e,
    lambda e, s: e * 2,
], ids=["elem*scalar", "scalar*elem", "int*elem", "elem*int"])
def test_star_multiplies_elements_only(product):
    # a ScalarExpr's monomials are not blades: a scalar factor goes
    # through scale, never through *
    e, s = CliffordElem.gen(1), ScalarExpr.var("HP")
    with pytest.raises(TypeError):
        product(e, s)
    assert e.scale(s) == CliffordElem({(1,): s})


@pytest.mark.parametrize("value", [ScalarExpr.const(5), CliffordElem.gen(1)],
                         ids=["ScalarExpr", "CliffordElem"])
def test_exact_values_are_unhashable(value):
    # ScalarExpr.const(5) == 5, which no hash of the term set can follow,
    # so neither class defines a hash to break the hash/eq contract with
    with pytest.raises(TypeError):
        hash(value)
