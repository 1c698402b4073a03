"""Half-plane decomposition, the projection pi^+, and residue line
integrals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres4 import anchors
from wres4.clifford import CliffordElem, spin_trace
from wres4.errors import DecayViolation, ShellViolation
from wres4.halfplane import (
    line_integral,
    partial_fractions,
    pi_plus,
    trace_symbol,
)
from wres4.scalars import GAUSS_I, GaussianRational, ScalarExpr, usq
from wres4.symbols import (
    D,
    DTILDE,
    OFF,
    ON,
    BoundarySymbol,
    _scaled,
    build_sigma,
    derive,
    restrict_on_shell,
)

from helpers import (
    line_integral_lower,
    mul_shell,
    mul_w,
    on_shell_term,
    recombine,
    scalar_term,
)

PI = ScalarExpr.var("PI")
I = ScalarExpr.i_unit()


class TestPartialFractions:
    def test_recombine_identity(self):
        s = restrict_on_shell(build_sigma(DTILDE, -1))
        for sym in (s, derive(s, xi=(4,)), derive(s, xi=(4, 4))):
            assert (recombine(partial_fractions(sym)).canonical()
                    == sym.canonical())

    def test_recombine_random_scalars(self):
        rng = random.Random(43)
        for _ in range(100):
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            # every proper numerator degree, up to a + b - 1
            coeffs = {d: rng.randint(-5, 5) for d in range(a + b)}
            sym = scalar_term(coeffs, a, b)
            assert (recombine(partial_fractions(sym)).canonical()
                    == sym.canonical())

    def test_off_shell_rejected(self):
        with pytest.raises(ShellViolation):
            partial_fractions(build_sigma(D, -1))


class TestPiPlus:
    def test_idempotent(self):
        s = restrict_on_shell(build_sigma(DTILDE, -1))
        p = pi_plus(s)
        assert pi_plus(p) == p

    def test_fixed_point_on_upper_pole(self):
        s = scalar_term({0: 1}, 1, 0)
        assert pi_plus(s) == s

    def test_kills_lower_pole(self):
        s = scalar_term({0: 1}, 0, 1)
        assert pi_plus(s).is_zero()

    def test_projected_leading_symbol_sign(self):
        # engine value: +(c(xi') + i c(dx_n)) / (2 (xi_n - i)); the stored
        # reference line carries the opposite sign and is a documented
        # discrepancy
        eng = pi_plus(restrict_on_shell(build_sigma(D, -1)))
        num = {0: (CliffordElem.c_xi_prime()
                   + CliffordElem.c_dxn().scale(I)).scale(
                       ScalarExpr.one() / 2)}
        assert eng == on_shell_term(num, 1, 0)
        assert anchors.compare(eng, anchors.anchor("4.19")) == "mismatch"
        assert anchors.compare(-eng, anchors.anchor("4.19")) == "match"

    def test_projection_anchors(self):
        checks = {
            "4.40": pi_plus(restrict_on_shell(build_sigma(DTILDE, -1))),
            "4.16": pi_plus(restrict_on_shell(
                derive(build_sigma(D, -1), x=(4,)))),
            "4.23": derive(pi_plus(restrict_on_shell(
                build_sigma(D, -1))), xi=(4,)),
        }
        for label, engine in checks.items():
            assert anchors.compare(engine, anchors.anchor(label)) == "match"

    def test_commutes_with_xi_n_derivative(self):
        s = restrict_on_shell(build_sigma(DTILDE, -1))
        assert derive(pi_plus(s), xi=(4,)) == pi_plus(derive(s, xi=(4,)))

    @pytest.mark.parametrize("coeffs,a,b", [
        ({1: 1}, 1, 0),
        ({0: 1}, 0, 0),
        ({2: 1}, 1, 1),
    ])
    def test_decay_violation_rejected(self, coeffs, a, b):
        with pytest.raises(DecayViolation):
            pi_plus(scalar_term(coeffs, a, b))

    @pytest.mark.parametrize("a,b", [(1, 0), (0, 2), (2, 3)])
    def test_improper_fraction_rejected(self, a, b):
        # numerator degree exactly a + b: no polynomial part is split off
        with pytest.raises(DecayViolation):
            partial_fractions(scalar_term({a + b: 1, 0: 2}, a, b))

    def test_zero_symbol_passes(self):
        zero = BoundarySymbol.zero(ON)
        plus, minus = partial_fractions(zero)
        assert plus == minus == {}
        assert recombine((plus, minus)).is_zero()
        assert line_integral(zero).is_zero()


class TestLineIntegral:
    def test_cauchy_kernel(self):
        s = scalar_term({0: 1}, 1, 1)
        assert line_integral(s) == PI

    def test_higher_order_pole(self):
        # integral of 1/((xi_n - i)^2 (xi_n + i)^3) over the line = -3 pi i/8
        s = scalar_term({0: 1}, 2, 3)
        expected = ScalarExpr.const(GaussianRational(0, -3)) / 8 * PI
        assert line_integral(s) == expected

    def test_decay_gap_rejected(self):
        with pytest.raises(DecayViolation):
            line_integral(scalar_term({0: 1}, 1, 0))
        with pytest.raises(DecayViolation):
            line_integral(scalar_term({1: 1}, 1, 1))

    @pytest.mark.parametrize("integral", [line_integral, line_integral_lower])
    def test_off_shell_rejected(self, integral):
        with pytest.raises(ShellViolation):
            integral(build_sigma(D, -1))

    def test_non_scalar_rejected(self):
        poly = {0: CliffordElem.gen(1)}
        with pytest.raises(ValueError):
            line_integral(on_shell_term(poly, 1, 1))

    @pytest.mark.parametrize("integral", [line_integral, line_integral_lower])
    def test_non_scalar_with_vanishing_residue_rejected(self, integral):
        # c(e1)/(xi_n + i)^2 has residue 0 at both poles, so only the
        # numerator shows that it is not scalar
        poly = {0: CliffordElem.gen(1)}
        with pytest.raises(ValueError, match="scalar"):
            integral(on_shell_term(poly, 0, 2))

    def test_upper_lower_consistency_random(self):
        rng = random.Random(47)
        for _ in range(150):
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            deg = a + b - 2
            coeffs = {d: GaussianRational(rng.randint(-6, 6),
                                          rng.randint(-6, 6))
                      for d in range(deg + 1)}
            poly = {d: CliffordElem.scalar(ScalarExpr.const(c))
                    for d, c in coeffs.items()}
            sym = on_shell_term(poly, a, b)
            assert line_integral(sym) == line_integral_lower(sym)


PROPERTY = settings(derandomize=True, database=None, max_examples=50,
                    deadline=None)

_gauss = st.builds(GaussianRational, st.integers(-6, 6), st.integers(-6, 6))
_factor = st.sampled_from([ScalarExpr.one(), ScalarExpr.var("HP"),
                           ScalarExpr.f_inverse(1),
                           ScalarExpr.var("FI4") * ScalarExpr.f_inverse(2)])


@st.composite
def decaying_scalar_symbols(draw):
    """A sum of one to three scalar on-shell terms, each with a numerator
    degree at least 2 below its denominator degree."""
    total = BoundarySymbol.zero(ON)
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, 3))
        b = draw(st.integers(max(0, 2 - a), 3))
        top = draw(st.integers(0, a + b - 2))
        poly = {d: CliffordElem.scalar(
                    ScalarExpr.const(draw(_gauss)) * draw(_factor))
                for d in range(top + 1)}
        total = total + on_shell_term(poly, a, b)
    return total


class TestHalfPlaneProperties:
    @PROPERTY
    @given(decaying_scalar_symbols())
    def test_pi_plus_idempotent(self, s):
        once = pi_plus(s)
        assert pi_plus(once) == once

    @PROPERTY
    @given(decaying_scalar_symbols())
    def test_upper_and_lower_line_integrals_agree(self, s):
        assert line_integral(s) == line_integral_lower(s)


_CLIFFORD = (CliffordElem.scalar(1), CliffordElem.c_xi_prime(),
             CliffordElem.c_dxn(),
             CliffordElem.c_xi_prime() * CliffordElem.c_dxn())
_SYMBOLIC = (ScalarExpr.one(), ScalarExpr.var("HP"), ScalarExpr.f_inverse(1),
             ScalarExpr.var("HP") * ScalarExpr.f_inverse(2))
POLE_ORDERS = [(a, b) for a in range(6) for b in range(6)]


def clifford_term(rng, a, b, top):
    """num / ((xi_n - i)^a (xi_n + i)^b) with a degree-`top` numerator whose
    coefficients are Clifford elements times symbolic scalars."""
    poly = {d: rng.choice(_CLIFFORD).scale(
                ScalarExpr.const(GaussianRational(rng.randint(-4, 4),
                                                  rng.randint(1, 4)))
                * rng.choice(_SYMBOLIC))
            for d in range(top + 1)}
    return on_shell_term(poly, a, b)


class TestHighOrderPoles:
    """Pole orders up to 5 at each of +-i, Clifford-valued numerators."""

    def test_recombine(self):
        rng = random.Random(53)
        for a, b in POLE_ORDERS:
            # the largest proper numerator degree
            sym = clifford_term(rng, a, b, a + b - 1)
            assert recombine(partial_fractions(sym)) == sym

    def test_pi_plus_idempotent(self):
        rng = random.Random(59)
        for a, b in POLE_ORDERS[1:]:
            sym = clifford_term(rng, a, b, a + b - 1)
            once = pi_plus(sym)
            assert pi_plus(once) == once
            assert pi_plus(sym - once).is_zero()

    def test_upper_and_lower_line_integrals_agree(self):
        rng = random.Random(61)
        for a, b in POLE_ORDERS[1:]:
            s = clifford_term(rng, a, b, a + b - 1)
            t = clifford_term(rng, b, a, a + b - 1)
            traced = trace_symbol(s, t)
            assert line_integral(traced) == line_integral_lower(traced)


class TestTraceSymbol:
    def test_scalarizes_coefficients(self):
        s = pi_plus(restrict_on_shell(build_sigma(DTILDE, -1)))
        t = derive(restrict_on_shell(build_sigma(DTILDE, -1)), xi=(4,))
        traced = trace_symbol(s, t)
        for poly in traced.terms.values():
            for elem in poly.values():
                assert set(elem.terms) <= {()}

    def test_composite_residue_value(self):
        # the case-a core: with the -1/2 (2 f^-1)^2 prefactor and the
        # sphere average this is exactly -3/(2 f^2) pi h'(0) Omega_3
        from wres4.sphere import integrate_sphere

        s = pi_plus(restrict_on_shell(derive(build_sigma(D, -1), x=(4,))))
        t = derive(restrict_on_shell(build_sigma(D, -1)), xi=(4, 4))
        val = line_integral(trace_symbol(s, t))
        assert val == (ScalarExpr.const(3) / 4 * ScalarExpr.var("HP") * PI)
        composite = (ScalarExpr.const(-2) * ScalarExpr.f_inverse(2)
                     * integrate_sphere(val))
        expected = (ScalarExpr.const(-3) / 2 * ScalarExpr.f_inverse(2)
                    * ScalarExpr.var("HP") * PI * ScalarExpr.var("OMEGA"))
        assert composite == expected


_BLADES = ((), (1,), (2,), (4,), (1, 2), (1, 4), (2, 3), (1, 2, 4),
           (1, 2, 3, 4))


@st.composite
def clifford_elems(draw):
    """One to four blades, each with a Gaussian times a symbolic factor."""
    blades = draw(st.lists(st.sampled_from(_BLADES), min_size=1, max_size=4,
                           unique=True))
    return CliffordElem({m: ScalarExpr.const(draw(_gauss)) * draw(_factor)
                         for m in blades})


@st.composite
def xin_polys(draw):
    """A Clifford-valued numerator of degree up to 3, without zero
    coefficients."""
    return {d: e for d in range(draw(st.integers(0, 3)) + 1)
            if not (e := draw(clifford_elems())).is_zero()}


@st.composite
def clifford_symbols(draw, shell):
    """A sum of one to three Clifford-valued terms.  On shell the pole keys
    range over (a, b) with a, b in 0..3, one-sided (a, 0) keys included;
    off shell over the |xi|^2 powers 0..3."""
    key = (st.tuples(st.integers(0, 3), st.integers(0, 3)) if shell == ON
           else st.integers(0, 3))
    terms = {draw(key): draw(xin_polys())
             for _ in range(draw(st.integers(1, 3)))}
    return BoundarySymbol(shell, terms, draw(st.integers(0, 1)))


def _trace_of_product(s, t):
    """The two-step definition that trace_symbol(s, t) replaces: form every
    blade of s * t, then take the spinor trace of each coefficient."""
    prod = s.mul(t)
    return BoundarySymbol(
        prod.shell,
        {key: {d: CliffordElem.scalar(spin_trace(e)) for d, e in poly.items()}
         for key, poly in prod.terms.items()},
        prod.xder,
    )


def _plus_shifted(p, q, k):
    """The numerator p + xi_n**k q, without zero coefficients."""
    t = dict(p)
    for d, e in q.items():
        t[d + k] = t[d + k] + e if d + k in t else e
    return {d: e for d, e in t.items() if not e.is_zero()}


def _linear_factor_product(p, da, db):
    """p (xi_n - i)^da (xi_n + i)^db, one linear factor at a time."""
    for root, times in ((GAUSS_I, da), (-GAUSS_I, db)):
        for _ in range(times):
            p = _plus_shifted(_scaled(p, ScalarExpr.const(-root)), p, 1)
    return p


def _w_factor_product(p, k):
    """p W^k, one factor XI1^2 + XI2^2 + XI3^2 + xi_n^2 at a time."""
    for _ in range(k):
        p = _plus_shifted(_scaled(p, usq()), p, 2)
    return p


def _stored_coefficients(s):
    return [c for poly in s.terms.values() for e in poly.values()
            for scalar in e.terms.values() for c in scalar.terms.values()]


_PAIRS = st.sampled_from([ON, OFF]).flatmap(
    lambda shell: st.tuples(clifford_symbols(shell), clifford_symbols(shell)))


class TestFusedProducts:
    """The one-pass products against the definitions they replace."""

    @PROPERTY
    @given(_PAIRS)
    def test_trace_symbol_is_the_trace_of_the_full_product(self, pair):
        s, t = pair
        traced, ref = trace_symbol(s, t), _trace_of_product(s, t)
        assert (traced.shell, traced.xder) == (ref.shell, ref.xder)
        assert traced.terms == ref.terms

    @PROPERTY
    @given(xin_polys(), st.integers(0, 4), st.integers(0, 4))
    def test_mul_shell_is_the_linear_factor_product(self, p, da, db):
        assert mul_shell(p, da, db) == _linear_factor_product(p, da, db)

    @PROPERTY
    @given(xin_polys(), st.integers(0, 3))
    def test_mul_w_is_the_repeated_w_product(self, p, k):
        assert mul_w(p, k) == _w_factor_product(p, k)

    @PROPERTY
    @given(xin_polys(), st.integers(4, 5))
    def test_projecting_a_one_sided_pole_adds_no_zero(self, p, a):
        # at +i the binomial series of (2i + z)^0 is zero past its first
        # term, and a zero factor must add nothing
        upper = on_shell_term(p, a, 0)
        once = pi_plus(upper)
        assert once == upper
        assert all(not c.is_zero() for c in _stored_coefficients(once))
        assert pi_plus(once) == once
