"""Exact scalar arithmetic: Gaussian rationals, sparse polynomials, and
scalars as Laurent polynomials in F."""

import operator
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wres4.errors import (
    DivisionByZero,
    NonMonomialDenominator,
    UnsupportedOrder,
)
from wres4.scalars import (
    GAUSS_I,
    NAMES,
    GaussianRational,
    ScalarExpr,
    _acc,
    _gmul,
    _mono_mul,
    _product_into,
    frac,
    rational,
    reduce_sphere,
)


def rand_gauss(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def rand_expr(rng, names=("HP", "F", "FI4", "XI1", "S"), nterms=4):
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

    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2),
                                       Fraction(-5, 3)], ids=str)
    def test_real_value_hashes_like_the_number_it_equals(self, value):
        g = GaussianRational(value)
        assert g == value and hash(g) == hash(value)
        assert {g: "g"}.get(value) == "g"
        assert {value: "v"}.get(g) == "v"

    def test_nonreal_hash_follows_equality(self):
        a = GaussianRational(Fraction(1, 2), 3)
        b = GaussianRational(Fraction(2, 4), Fraction(6, 2))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}.get(b) == 1
        assert {GAUSS_I: 1}.get(GaussianRational(0, 1)) == 1
        assert {GAUSS_I: 1}.get(1) is None


    def test_parts_are_exact_rationals_only(self):
        # ints and anything with numerator/denominator; a float is rejected
        assert GaussianRational(Fraction(2, 4), Fraction(-6, 4)) == (
            GaussianRational(1, -3) / 2)
        for bad in (0.5, 1j, "1", None):
            with pytest.raises(TypeError):
                GaussianRational(bad)
            with pytest.raises(TypeError):
                GaussianRational(1, bad)

    @pytest.mark.parametrize("n, d", [(2, 4), (-3, -6), (3, -6), (0, 5),
                                      (7, 1)])
    def test_rational_is_in_lowest_terms(self, n, d):
        g = rational(n, d)
        assert g == Fraction(n, d) and g.q == 0
        assert g.d > 0 and gcd(g.p, g.d) == 1

    def test_rational_rejects_a_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            rational(1, 0)

    def test_float_of_a_real_value(self):
        assert float(rational(1, 3)) == 1 / 3
        assert float(GaussianRational(-5)) == -5.0
        with pytest.raises(TypeError):
            float(GAUSS_I)


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
        # every name of the alphabet, in every direction: F -> FI{j},
        # FI{k} -> FIJ{jk} with the pair sorted, and the rest constant
        for name in NAMES:
            if name.startswith("FIJ"):
                continue
            for j in range(1, 5):
                expected = {"F": f"FI{j}"}.get(name)
                if name.startswith("FI"):
                    expected = "FIJ" + "".join(sorted(f"{j}{name[2:]}"))
                assert ScalarExpr.var(name).x_derivative(j) == (
                    ScalarExpr.zero() if expected is None
                    else ScalarExpr.var(expected))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_x_derivative_f_inverse(self, k):
        # quotient rule: d_4 f^-k = -k f_4 f^-(k+1)
        assert ScalarExpr.f_inverse(k).x_derivative(4) == (
            ScalarExpr.const(-k) * ScalarExpr.var("FI4")
            * ScalarExpr.f_inverse(k + 1))

    def test_x_derivative_order_guard(self):
        for name in NAMES:
            if name.startswith("FIJ"):
                with pytest.raises(UnsupportedOrder):
                    ScalarExpr.var(name).x_derivative(1)

    def test_no_scalar_holds_xi_n_or_its_norm(self):
        # xi_n and |xi|^2 live only in the symbol layer's xi_n degrees
        # and pole keys, and |xi'|^2 is always XI1^2 + XI2^2 + XI3^2, so
        # the alphabet has a name for none of them and no scalar has a
        # xi_n-derivative
        for name in ("XIN", "W", "U"):
            assert name not in NAMES
            with pytest.raises(KeyError):
                ScalarExpr.var(name)
        with pytest.raises(ValueError):
            ScalarExpr.var("XI1").xi_derivative(4)

    def test_constructor_coerces_coefficients(self):
        assert ScalarExpr({(): 1}) == ScalarExpr.one()
        assert ScalarExpr({(): Fraction(1, 2)}) == frac(1, 2)
        assert ScalarExpr({(): 0}).is_zero()
        for bad in (1.5, "1", None):
            with pytest.raises(TypeError):
                ScalarExpr({(): bad})

    @pytest.mark.parametrize("op", [operator.sub, operator.truediv],
                             ids=["1-s", "1/s"])
    def test_no_reflected_subtraction_or_division(self, op):
        # a number on the left of - or / has no ScalarExpr path: write
        # ScalarExpr.const(1) - s or s ** -1
        with pytest.raises(TypeError):
            op(1, ScalarExpr.var("F"))

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
    """c * F^k * HP^a * FI4^b * XI1^d * S^g with k in -3..3."""
    out = ScalarExpr.const(draw(coeff)) * ScalarExpr.var("F", draw(_f_exp))
    for name in ("HP", "FI4", "XI1", "S"):
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
    @given(laurent_scalars, st.integers(0, 5))
    def test_powers_match_repeated_products(self, a, k):
        expected = ScalarExpr.one()
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected

    @PROPERTY
    @given(st.lists(monomials(coeff=_nonzero_gauss), min_size=2, max_size=4)
           .map(lambda ms: sum(ms, ScalarExpr.zero()))
           .filter(lambda a: len(a.terms) >= 2),
           st.integers(-3, -1))
    def test_negative_power_of_a_sum_raises(self, a, k):
        with pytest.raises(NonMonomialDenominator):
            a ** k

    @PROPERTY
    @given(laurent_scalars, monomials(coeff=_nonzero_gauss))
    def test_one_term_factor_keeps_key_order(self, a, c):
        # the order in which the referee sums an exact value's terms
        (mc,) = c.terms
        expected = [_mono_mul(m, mc) for m in a.terms]
        assert list((a * c).terms) == list((c * a).terms) == expected

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


# -- the one multiply-accumulate ----------------------------------------------
#
# The reference is the same sum written as one _gmul and one _acc per term
# product.  Few monomials and small coefficients make sums merge
# and cancel often; the referee's low bits read the resulting key order.

def _f_hp(k, h):
    return next(iter((ScalarExpr.var("F", k) * ScalarExpr.var("HP", h)).terms))


_few_monomials = st.builds(_f_hp, st.integers(-2, 2), st.integers(0, 1))
_few_gauss = st.builds(GaussianRational,
                       st.builds(Fraction, st.integers(-2, 2),
                                 st.integers(1, 3)),
                       st.builds(Fraction, st.integers(-2, 2),
                                 st.integers(1, 3))
                       ).filter(lambda c: not c.is_zero())
_term_sets = st.dictionaries(_few_monomials, _few_gauss, max_size=5)


def _ref_product_into(t, a, b, sign):
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _acc(t, _mono_mul(m1, m2), _gmul(c1 if sign > 0 else -c1, c2))
    return t


class TestProductInto:
    @PROPERTY
    @given(_term_sets, _term_sets, _term_sets, st.sampled_from([1, -1]))
    # F's sum cancels on a's second term and reappears, last, on its
    # third, which also cancels t's F^-1
    @example({_f_hp(0, 1): rational(1, 3), _f_hp(-1, 0): rational(1, 2)},
             {_f_hp(1, 0): GAUSS_I, _f_hp(0, 0): rational(-1),
              _f_hp(-1, 0): rational(1, 2)},
             {_f_hp(0, 0): rational(1), _f_hp(1, 0): GAUSS_I,
              _f_hp(2, 0): rational(1)}, -1)
    def test_matches_the_gmul_acc_loop(self, t, a, b, sign):
        ref = _ref_product_into(dict(t), a, b, sign)
        out = dict(t)
        assert _product_into(out, a, b, sign) is out
        assert list(out.items()) == list(ref.items())
        for c in out.values():
            assert (c.p or c.q) and c.d > 0 and gcd(c.p, c.q, c.d) == 1


# -- the integer triple behind GaussianRational -------------------------------
#
# The reference is the same arithmetic on the pair of Fractions (re, im);
# every operation must agree with it and leave a canonical triple.

_frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_pairs = st.tuples(_frac, _frac)
_scalar_operand = st.one_of(st.integers(-6, 6), _frac)


def _assert_canonical(g):
    assert g.d > 0
    assert gcd(g.p, g.q, g.d) == 1
    if g.is_zero():
        assert (g.p, g.q, g.d) == (0, 0, 1)


def _pair(g):
    """The (re, im) Fractions of a Gaussian rational's triple."""
    return Fraction(g.p, g.d), Fraction(g.q, g.d)


def _check(g, pair):
    _assert_canonical(g)
    assert _pair(g) == pair


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n,
            (x[1] * y[0] - x[0] * y[1]) / n)


def _ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _ref_mul(out, x)
    return out if k >= 0 else _ref_div((Fraction(1), Fraction(0)), out)


def _ref_sexpr(re, im):
    def ratio(x):
        return (str(x.numerator) if x.denominator == 1
                else f"(/ {x.numerator} {x.denominator})")

    if im == 0:
        return ratio(re)
    ipart = "i" if im == 1 else f"(* {ratio(im)} i)"
    return ipart if re == 0 else f"(+ {ratio(re)} {ipart})"


class TestGaussianTriple:
    @PROPERTY
    @given(_pairs, _pairs)
    def test_field_operations_match_fraction_pairs(self, x, y):
        a, b = GaussianRational(*x), GaussianRational(*y)
        _assert_canonical(a)
        _check(a + b, (x[0] + y[0], x[1] + y[1]))
        _check(a - b, (x[0] - y[0], x[1] - y[1]))
        _check(-a, (-x[0], -x[1]))
        _check(a * b, _ref_mul(x, y))
        if not b.is_zero():
            _check(a / b, _ref_div(x, y))

    @PROPERTY
    @given(_pairs, _scalar_operand)
    def test_mixed_operands_coerce(self, x, r):
        a, y = GaussianRational(*x), (Fraction(r), Fraction(0))
        _check(a + r, (x[0] + r, x[1]))
        _check(r + a, (x[0] + r, x[1]))
        _check(a - r, (x[0] - r, x[1]))
        _check(r - a, (r - x[0], -x[1]))
        _check(a * r, _ref_mul(x, y))
        _check(r * a, _ref_mul(x, y))
        if r:
            _check(a / r, _ref_div(x, y))
        if not a.is_zero():
            _check(r / a, _ref_div(y, x))

    @PROPERTY
    @given(_pairs, st.integers(-4, 4))
    def test_powers_match_repeated_products(self, x, k):
        a = GaussianRational(*x)
        if a.is_zero() and k < 0:
            with pytest.raises(DivisionByZero):
                a ** k
        else:
            _check(a ** k, _ref_pow(x, k))

    @PROPERTY
    @given(_pairs)
    def test_printed_forms_match_fraction_pairs(self, x):
        a, (re, im) = GaussianRational(*x), x
        assert repr(a) == _ref_sexpr(re, im)
        assert complex(a) == complex(float(re), float(im))

    @PROPERTY
    @given(_pairs)
    def test_division_by_zero_raises(self, x):
        a = GaussianRational(*x)
        for zero in (GaussianRational(0), 0, Fraction(0)):
            with pytest.raises(DivisionByZero):
                a / zero
        with pytest.raises(DivisionByZero):
            1 / GaussianRational(0)

    def test_zero_is_one_triple(self):
        a = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
        for zero in (a - a, a * 0, GaussianRational(Fraction(0, 5)),
                     GaussianRational(0) / a):
            assert (zero.p, zero.q, zero.d) == (0, 0, 1)


# -- exact evaluation at rational points ---------------------------------------
#
# The reference is an evaluator of `terms` that shares no code with the
# kernel: a value at a real point is the pair (re, im) of Fractions.

_POINT_NAMES = ("HP", "F", "FI4", "XI1", "XI2", "XI3", "S")
_nonzero_frac = _frac.filter(bool)
points = st.fixed_dictionaries({n: _nonzero_frac for n in _POINT_NAMES})


def ev(e, point):
    vals = [(_pair(c), prod(point[NAMES[i]] ** k for i, k in m))
            for m, c in e.terms.items()]
    return (sum(re * v for (re, _), v in vals),
            sum(im * v for (_, im), v in vals))


@st.composite
def polys(draw, names=("HP", "F", "FI4", "XI1", "S")):
    """Sums of up to four terms c * F^k * (other names)^(0..3)."""
    out = ScalarExpr.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = ScalarExpr.const(GaussianRational(draw(_frac), draw(_frac)))
        for name in names:
            lo = -3 if name == "F" else 0
            term = term * ScalarExpr.var(name, draw(st.integers(lo, 3)))
        out = out + term
    return out


def _assert_canonical_terms(e):
    for mono, c in e.terms.items():
        assert mono == tuple(sorted(mono))
        assert all(k for _, k in mono) and not c.is_zero()


_SPHERE_POINTS = [(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)),
                  (Fraction(3, 7), Fraction(2, 7), Fraction(6, 7)),
                  (Fraction(-2, 3), Fraction(2, 3), Fraction(-1, 3)),
                  (Fraction(0), Fraction(3, 5), Fraction(-4, 5))]


class TestExactEvaluation:
    @PROPERTY
    @given(polys(), polys(), points)
    def test_product(self, a, b, point):
        p = a * b
        _assert_canonical_terms(p)
        assert ev(p, point) == _ref_mul(ev(a, point), ev(b, point))

    @PROPERTY
    @given(polys(), _pairs.filter(any), st.integers(-3, 3),
           st.integers(0, 2), points)
    def test_one_term_product(self, a, c, k, hp, point):
        # one factor with one term, on either side; with F^-k against the
        # F^k terms of `a` many products cancel to F^0
        one = (ScalarExpr.const(GaussianRational(*c))
               * ScalarExpr.var("F", -k) * ScalarExpr.var("HP", hp))
        a = a + ScalarExpr.var("F", k) * ScalarExpr.var("XI1")
        expected = _ref_mul(ev(a, point), ev(one, point))
        for p in (a * one, one * a):
            _assert_canonical_terms(p)
            assert ev(p, point) == expected

    @PROPERTY
    @given(polys(names=("HP", "F", "XI1", "XI2", "XI3")),
           st.sampled_from(_SPHERE_POINTS), points)
    def test_reduce_sphere(self, a, xi, point):
        point = {**point, "XI1": xi[0], "XI2": xi[1], "XI3": xi[2]}
        r = reduce_sphere(a)
        _assert_canonical_terms(r)
        assert all(k < 2 for m in r.terms for i, k in m
                   if NAMES[i] == "XI3")
        assert ev(r, point) == ev(a, point)
