"""Boundary symbol calculus: operator symbols, the order-by-order
parametrix against Lemma 4.1's closed forms, composition, and the golden
serialized forms."""

import operator
import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres4 import anchors, sexpr, symbols
from wres4.clifford import CliffordElem
from wres4.errors import (
    NonInvertibleLeadingSymbol,
    ShellViolation,
    UnsupportedOrder,
)
from wres4.scalars import GaussianRational, ScalarExpr, usq
from wres4.symbols import (
    D,
    DTILDE,
    OFF,
    ON,
    BoundarySymbol,
    Operator,
    build_sigma,
    c_xi_poly,
    compose_orders,
    d_x_parts,
    derive,
    jet_mid,
    parametrix,
    restrict_on_shell,
    sandwich,
    sigma0_dirac,
)

from helpers import against_str, assert_outcome, mul_shell, mul_w

# D + c(df): a third operator, which no closed form covers
P_V = Operator("P_V", 1, CliffordElem.c_df())

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".sexp")) as fh:
        return fh.read()


class TestClosedForms:
    @pytest.mark.parametrize("op, order", [(P_V, -2), (P_V, -1),
                                           (D, -3), (D, 1)],
                             ids=lambda v: getattr(v, "name", None))
    def test_lemma41_refuses_what_it_does_not_know(self, op, order):
        # only D and Dtilde at orders -1 and -2 have a printed closed form;
        # anything else, D + c(df) too, must not be answered with a
        # neighbouring one
        with pytest.raises(LookupError, match="Lemma 4.1"):
            anchors.lemma41(op, order)

    def test_leading_symbol_is_i_c_xi(self):
        s = build_sigma(D, 1)
        expected = BoundarySymbol(OFF, {0: c_xi_poly()}).scale(
            ScalarExpr.i_unit())
        assert s == expected

    def test_conformal_leading_scaling(self):
        sD = build_sigma(D, -1)
        sDt = build_sigma(DTILDE, -1)
        expected = sD.scale(ScalarExpr.const(2) * ScalarExpr.f_inverse())
        assert sDt.canonical() == expected.canonical()

    def test_composition_is_identity(self):
        for op in (D, DTILDE):
            a = {1: build_sigma(op, 1), 0: build_sigma(op, 0)}
            b = {-1: build_sigma(op, -1), -2: build_sigma(op, -2)}
            ident = compose_orders(a, b, 0).canonical()
            one = BoundarySymbol.from_clifford(CliffordElem.scalar(1))
            assert ident == one.canonical()
            assert compose_orders(a, b, -1).canonical().is_zero()

    @pytest.mark.parametrize("s1", [
        BoundarySymbol.from_clifford(CliffordElem.scalar(1)),
        BoundarySymbol(OFF, {0: {1: CliffordElem.c_dxn()}}),
    ], ids=["1", "xi_n c(dx_n)"])
    def test_parametrix_rejects_a_leading_symbol_without_inverse(self, s1):
        # only a square lam * |xi|^2 with scalar lam != 0 has an inverse
        with pytest.raises(NonInvertibleLeadingSymbol):
            parametrix(s1, BoundarySymbol.zero())

    def test_order_out_of_range_is_rejected(self):
        with pytest.raises(ValueError,
                           match="order must be one of 1, 0, -1, -2"):
            build_sigma(D, 2)

    def test_sigma0_dirac_value(self):
        expected = CliffordElem.c_dxn().scale(
            ScalarExpr.var("HP") * ScalarExpr.const(-3) / 4)
        assert sigma0_dirac() == expected


_BLADES = [m for k in range(5) for m in combinations((1, 2, 3, 4), k)]
_COEFF = st.builds(GaussianRational, st.integers(1, 4), st.integers(-4, 4))
_JET = st.sampled_from([ScalarExpr.one(), ScalarExpr.var("HP"),
                        ScalarExpr.f_inverse(),
                        ScalarExpr.var("FI4") * ScalarExpr.f_inverse(2),
                        ScalarExpr.var("FIJ12")])


@st.composite
def _potentials(draw):
    """V over 3 to 8 of the 16 blades, each with a nonzero rational times a
    rational, f-jet or h'(0) factor."""
    blades = draw(st.lists(st.sampled_from(_BLADES), min_size=3,
                           max_size=8, unique=True))
    return BoundarySymbol.from_clifford(CliffordElem(
        {m: ScalarExpr.const(draw(_COEFF)) * draw(_JET) for m in blades}))


def _s1_s0(op):
    return build_sigma(op, 1), build_sigma(op, 0)


POTENTIALS = settings(derandomize=True, database=None, max_examples=8,
                      deadline=None)


class TestLeftInverse:
    """The parametrix is built as a right inverse, sigma o r = 1 to order
    -1.  That it is a left inverse too, r o sigma = 1, restates none of its
    construction, so it checks sigma_-2 for D, Dtilde and Dtilde + V."""

    @staticmethod
    def _check(s1, s0, drop_derivative_term=False):
        """Whether the order -1 part of (r1 + r2) o (s1 + s0) vanishes;
        its order 0 part must be 1."""
        r1, r2 = parametrix(s1, s0)
        if drop_derivative_term:
            # sigma_-2 without the (-i) d_xi sigma_1 . d_x r1 term
            r2 = -(r1.mul(s0.mul(r1)))
        left, right = {-1: r1, -2: r2}, {1: s1, 0: s0}
        one = BoundarySymbol.from_clifford(CliffordElem.scalar(1))
        assert compose_orders(left, right, 0) == one
        return compose_orders(left, right, -1).is_zero()

    @pytest.mark.parametrize("op", [D, DTILDE], ids=lambda op: op.name)
    def test_parametrix_is_a_left_inverse(self, op):
        assert self._check(*_s1_s0(op))

    @POTENTIALS
    @given(_potentials())
    def test_left_inverse_with_a_potential(self, v):
        s1, s0 = _s1_s0(DTILDE)
        assert self._check(s1, s0 + v)

    @pytest.mark.parametrize("op", [D, DTILDE], ids=lambda op: op.name)
    def test_dropping_the_derivative_term_breaks_it(self, op):
        assert not self._check(*_s1_s0(op), drop_derivative_term=True)

    @POTENTIALS
    @given(_potentials())
    def test_dropping_the_derivative_term_breaks_it_with_a_potential(
            self, v):
        s1, s0 = _s1_s0(DTILDE)
        assert not self._check(s1, s0 + v, drop_derivative_term=True)


SYMBOLS = pytest.mark.parametrize("symbol", [
    lambda: build_sigma(D, -1),
    lambda: build_sigma(DTILDE, -1),
    lambda: sandwich(CliffordElem.c_df()),
], ids=["sigma_-1(D)", "sigma_-1(Dtilde)", "sandwich(c(df))"])


class TestDerivation:
    def test_second_x_derivative_rejected(self):
        s = derive(build_sigma(D, -1), x=(4,))
        with pytest.raises(UnsupportedOrder):
            derive(s, x=(4,))
        with pytest.raises(UnsupportedOrder):
            derive(build_sigma(D, -1), x=(4, 4))

    # sigma_0(D) = -(3/4) h'(0) c(dx_n) holds one collar derivative at
    # xder 0; its d_{x_n} is -(3/4) h''(0) c(dx_n), and h''(0) is not
    # tracked, so both routes raise rather than return zero
    def test_sigma0_symbol_x_derivative_raises(self):
        with pytest.raises(UnsupportedOrder, match="HP"):
            derive(build_sigma(D, 0), x=(4,))

    def test_sigma0_clifford_x_derivative_raises(self):
        with pytest.raises(UnsupportedOrder, match="HP"):
            sigma0_dirac().x_derivative(4)

    def test_x_derivative_of_a_symbol_holding_h_prime_raises(self):
        # sigma_-2(D^-1) carries h'(0), so neither half can be taken
        with pytest.raises(UnsupportedOrder, match="HP"):
            d_x_parts(build_sigma(D, -2), 4)

    @pytest.mark.parametrize("index", [{"x": (0,)}, {"x": (5,)},
                                       {"xi": (4, 0)}, {"xi": (-1,)}],
                             ids=["x0", "x5", "xi40", "xi-1"])
    def test_direction_outside_one_to_four_rejected(self, index):
        with pytest.raises(ValueError, match="1..4"):
            derive(build_sigma(D, -1), **index)

    @pytest.mark.parametrize("index", [{"x": (4,)}, {"x": (1,)},
                                       {"xi": (2,)}, {"xi": (4, 3)}],
                             ids=["x4", "x1", "xi2", "xi43"])
    def test_on_shell_symbol_takes_only_xi_n(self, index):
        s = restrict_on_shell(build_sigma(D, -1))
        with pytest.raises(ShellViolation):
            derive(s, **index)
        assert derive(s, xi=(4, 4)) == derive(derive(s, xi=(4,)), xi=(4,))

    def test_xi_n_derivative_lowers_decay(self):
        s = restrict_on_shell(build_sigma(D, -1))
        d = derive(s, xi=(4,))
        # every on-shell pole pair must deepen by exactly one in total
        assert max(a + b for a, b in d.terms) == max(
            a + b for a, b in s.terms) + 1

    def test_restrict_sets_unit_cosphere(self):
        # |xi'| = 1 only re-keys W**p as (xi_n - i)**p (xi_n + i)**p: every
        # numerator, |xi'|^2 in the x_n-derivative's included, is kept
        for s in (build_sigma(D, -1), build_sigma(DTILDE, -2),
                  derive(build_sigma(D, -1), x=(4,))):
            on = restrict_on_shell(s)
            assert on.shell == ON and on.xder == s.xder
            assert on.terms == {(p, p): poly for p, poly in s.terms.items()}

    def test_derivatives_commute(self):
        s = build_sigma(DTILDE, -1)
        ab = derive(s, xi=(1, 4))
        ba = derive(s, xi=(4, 1))
        assert ab.canonical() == ba.canonical()

    @SYMBOLS
    def test_x_derivative_halves_sum_to_derive(self, symbol):
        s = symbol()
        for j in (1, 2, 3, 4):
            jet, slot = d_x_parts(s, j)
            full = derive(s, x=(j,))
            assert jet + slot == full, j
            assert jet.xder == slot.xder == full.xder == s.xder + 1
            # only d_{x_n} reaches the |xi|^2 slot, through h'(0)
            assert slot.is_zero() == (j < 4), j

    @SYMBOLS
    def test_multi_index_is_the_chain_of_single_directions(self, symbol):
        # x first, then xi, each in its given order: the same steps, so
        # the same printed form
        s = symbol()
        for x, xi in [((4,), (1, 4)), ((2,), (3, 3, 4)), ((), (2, 1)),
                      ((1,), ())]:
            chained = s
            for j in x:
                chained = derive(chained, x=(j,))
            for i in xi:
                chained = derive(chained, xi=(i,))
            assert (sexpr.dumps(derive(s, x=x, xi=xi))
                    == sexpr.dumps(chained)), (x, xi)

    @pytest.mark.parametrize("symbol", [
        lambda: build_sigma(D, -1),
        lambda: build_sigma(DTILDE, -1),
        lambda: sandwich(CliffordElem.c_df()),
        lambda: build_sigma(D, -1) + sandwich(CliffordElem.c_df()),
    ], ids=["-1-D", "-1-Dtilde", "sandwich", "-1-D+sandwich"])
    def test_slot_half_is_h_prime_times_the_tangential_norm(self, symbol):
        # d_{x_n} W**-p = -p h'(0) |xi'|^2 / W**(p+1), key by key, with
        # |xi'|^2 written here from its three squares; the symbols are
        # free of h'(0), whose x-derivative is not tracked, and hold keys
        # 1, 2 or both
        norm = sum((ScalarExpr.var(f"XI{i}", 2) for i in (1, 2, 3)),
                   ScalarExpr.zero())
        s = symbol()
        _, slot = d_x_parts(s, 4)
        assert set(slot.terms) == {p + 1 for p in s.terms if p}
        for p, poly in s.terms.items():
            if not p:
                continue
            c = ScalarExpr.const(-p) * ScalarExpr.var("HP") * norm
            want = {d: e.scale(c) for d, e in poly.items()}
            assert (BoundarySymbol(OFF, {p + 1: slot.terms[p + 1]})
                    == BoundarySymbol(OFF, {p + 1: want})), p


class TestGoldenForms:
    @pytest.mark.parametrize("name,builder", [
        ("4.4", lambda: build_sigma(DTILDE, -1)),
        ("4.4b", lambda: build_sigma(DTILDE, -2)),
        ("4.14", lambda: derive(build_sigma(D, -1), xi=(4, 4))),
        ("4.15", lambda: derive(build_sigma(D, -1), x=(4,))),
        ("4.22", lambda: restrict_on_shell(
            derive(build_sigma(D, -1), x=(4,), xi=(4,)))),
    ])
    def test_symbol_golden_round_trip(self, name, builder):
        text = golden(name)
        value = builder()
        assert sexpr.dumps(value) + "\n" == text

    def test_case_c_factor_goldens(self):
        builders = {
            "4.42": restrict_on_shell(
                derive(sandwich(CliffordElem.c_df()), xi=(4,))),
            "4.43": restrict_on_shell(
                derive(build_sigma(D, -2), xi=(4,))),
            "4.48": restrict_on_shell(
                derive(sandwich(jet_mid()), xi=(4,))),
        }
        for name, value in builders.items():
            text = golden(name)
            assert sexpr.dumps(value) + "\n" == text


def _counting(monkeypatch, module, name):
    """Count the calls of module.name from here on; returns the count."""
    real, calls = getattr(module, name), [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestBuiltOnce:
    def test_sigma_minus_two_reuses_the_cached_inverse(self, monkeypatch):
        # sigma_-2 hands the cached sigma_-1 to the parametrix, so sigma_1
        # is inverted once per operator for both orders
        calls = _counting(monkeypatch, symbols, "_invert_leading")
        symbols._sigma.cache_clear()
        try:
            build_sigma(DTILDE, -1)
            r2 = build_sigma(DTILDE, -2)
        finally:
            symbols._sigma.cache_clear()
        assert calls == [1]
        _, ref = parametrix(build_sigma(DTILDE, 1),
                            build_sigma(DTILDE, 0))
        assert r2.canonical() == ref.canonical()

    def test_each_closed_form_is_built_once(self, monkeypatch):
        # Dtilde's sigma_-2 closed form takes D's from the cache: one
        # sandwich for D, two more for Dtilde
        calls = _counting(monkeypatch, symbols, "sandwich")
        anchors.lemma41.cache_clear()
        first = anchors.lemma41(D, -2)
        anchors.lemma41(DTILDE, -2)
        assert anchors.lemma41(D, -2) is first
        assert calls == [3]

    @pytest.mark.parametrize("s", [
        build_sigma(D, -1),
        restrict_on_shell(build_sigma(DTILDE, -1)),
    ], ids=["off", "on"])
    def test_canonical_form_of_one_key_is_itself(self, s):
        # a single key already sits at the common denominator: the product
        # by the constant 1 leaves its terms as they are
        assert s.canonical().terms == s.terms


class TestEquality:
    def test_xn_derivative_count_is_compared(self):
        # two symbols that differ only in their x_n-derivative count print
        # differently, so they must not compare equal
        one = {0: CliffordElem.scalar(1)}
        assert (BoundarySymbol(OFF, {0: one}, 0)
                != BoundarySymbol(OFF, {0: one}, 1))
        assert (BoundarySymbol(OFF, {0: one}, 1)
                == BoundarySymbol(OFF, {0: one}, 1))


_ENTRIES = st.sampled_from([CliffordElem.zero(), CliffordElem.scalar(1),
                            CliffordElem.c_dxn(), CliffordElem.c_xi_prime(),
                            CliffordElem.c_df()])
_FACTORS = st.sampled_from([ScalarExpr.zero(), ScalarExpr.one(),
                            ScalarExpr.const(-1), ScalarExpr.var("HP")])


@st.composite
def _raw_symbols(draw, shell):
    """A symbol over numerators that may hold zero coefficients, or none."""
    key = (st.integers(0, 2) if shell == OFF
           else st.tuples(st.integers(0, 2), st.integers(0, 2)))
    num = st.dictionaries(st.integers(0, 2), _ENTRIES, max_size=3)
    return BoundarySymbol(shell, draw(st.dictionaries(key, num, max_size=3)),
                          draw(st.integers(0, 1)))


_RAW_PAIRS = st.sampled_from([OFF, ON]).flatmap(
    lambda shell: st.tuples(_raw_symbols(shell), _raw_symbols(shell)))


class TestOneZeroFilter:
    """BoundarySymbol's constructor is the one place that drops zero
    coefficients and empty numerators; every operation relies on it."""

    @settings(derandomize=True, database=None, max_examples=50,
              deadline=None)
    @given(_RAW_PAIRS, _FACTORS)
    def test_no_operation_stores_a_zero(self, pair, c):
        a, b = pair
        results = [a + b, a - b, a - a, (a + b) - a, a.scale(c), a.mul(b),
                   a.mul(a), derive(a, xi=(4,)), a.canonical(),
                   (a - b).canonical()]
        if a.shell == OFF:
            results.append(restrict_on_shell(a))
        for s in results:
            for num in s.terms.values():
                assert num
                assert not any(e.is_zero() for e in num.values())


class TestNumeratorFactors:
    def test_mul_shell_expands_poles(self):
        p = {0: CliffordElem.scalar(1)}
        q = mul_shell(p, 1, 1)
        # (xi_n - i)(xi_n + i) = xi_n^2 + 1
        assert q[2] == CliffordElem.scalar(1)
        assert q[0] == CliffordElem.scalar(1)
        assert 1 not in q

    def test_mul_w(self):
        p = {0: CliffordElem.scalar(1)}
        q = mul_w(p, 1)
        assert q[2] == CliffordElem.scalar(1)
        assert q[0] == CliffordElem.scalar(usq())


def _off_on():
    off = build_sigma(D, -1)
    return off, restrict_on_shell(off)


@pytest.mark.parametrize("call,outcome", [
    (lambda: BoundarySymbol("both", {}), ValueError),
    (lambda: operator.add(*_off_on()), ShellViolation),
    (lambda: BoundarySymbol.mul(*_off_on()), ShellViolation),
    (lambda: restrict_on_shell(_off_on()[1]), ShellViolation),
    (lambda: against_str(_off_on()[1]), (NotImplemented, False)),
], ids=["shell-both", "off+on", "off.mul(on)", "restrict-on-shell",
        "eq-str"])
def test_guards_no_verb_reaches(call, outcome):
    assert_outcome(call, outcome)
