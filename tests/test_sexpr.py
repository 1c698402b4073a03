"""Serialization: deterministic printing that loses no information."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wres4 import sexpr
from wres4.clifford import CliffordElem
from wres4.scalars import (
    GAUSS_I,
    GAUSS_ONE,
    NAMES,
    GaussianRational,
    ScalarExpr,
)
from wres4.symbols import OFF, ON, BoundarySymbol, XinPoly


class TestRoundTrip:
    def test_printing_is_construction_independent(self):
        a = ScalarExpr.var("XI1") + ScalarExpr.var("HP")
        b = ScalarExpr.var("HP") + ScalarExpr.var("XI1")
        assert sexpr.dumps(a) == sexpr.dumps(b)

    def test_zero_and_constants(self):
        assert sexpr.dumps(ScalarExpr.zero()) == "0"
        assert sexpr.dumps(ScalarExpr.i_unit()) == "i"
        assert sexpr.dumps(ScalarExpr.const(-3) / 4) == "(/ -3 4)"


class TestParseErrors:
    def test_unknown_type(self):
        with pytest.raises(TypeError):
            sexpr.dumps(3.14)


# -- printing is injective: a one-step change of a value changes its bytes ----

PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)

_NAMES = ("F", "HP", "FI4", "XI1", "XI3", "S")
_small = st.integers(-3, 3)
_half = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
_step = st.sampled_from((1, -1))


@st.composite
def scalars(draw):
    out = ScalarExpr.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = (ScalarExpr.const(GaussianRational(draw(_half),
                                                  draw(st.just(0) | _half)))
                * ScalarExpr.var("F", draw(_small)))
        for name in _NAMES[1:]:
            term = term * ScalarExpr.var(name, draw(st.integers(0, 2)))
        out = out + term
    return out


_bases = st.lists(st.integers(1, 4), unique=True, max_size=4).map(
    lambda b: tuple(sorted(b)))


@st.composite
def cliffords(draw):
    return CliffordElem({b: draw(scalars())
                         for b in draw(st.lists(_bases, max_size=3))})


@st.composite
def symbols(draw):
    shell = draw(st.sampled_from((OFF, ON)))
    poles = (st.integers(0, 3) if shell == OFF
             else st.tuples(st.integers(0, 3), st.integers(0, 3)))
    xin = st.dictionaries(st.integers(0, 3), cliffords(), max_size=2)
    return BoundarySymbol(shell, draw(st.dictionaries(
        poles, xin.map(XinPoly), max_size=2)))


def perturb_scalar(draw, a: ScalarExpr) -> ScalarExpr:
    """One coefficient +-1 or +-i, or one exponent of one term +-1."""
    mono, c = draw(st.sampled_from(sorted(a.terms.items())
                                   or [((), GaussianRational(0))]))
    step = draw(_step)
    if draw(st.booleans()):
        unit = draw(st.sampled_from((GAUSS_ONE, GAUSS_I)))
        return a + ScalarExpr({mono: unit * step})
    term = ScalarExpr({mono: c})
    name = draw(st.sampled_from(_NAMES))
    if step > 0 or name == "F":
        moved = term * ScalarExpr.var(name, step)
    elif dict(mono).get(NAMES.index(name)):
        moved = term / ScalarExpr.var(name)
    else:
        moved = term * ScalarExpr.var(name)
    return a - term + moved


def perturb_clifford(draw, a: CliffordElem) -> CliffordElem:
    """One scalar coefficient perturbed, or one basis index changed."""
    basis, c = draw(st.sampled_from(sorted(a.terms.items())
                                    or [((), ScalarExpr.zero())]))
    free = [g for g in range(1, 5) if g not in basis]
    term = CliffordElem({basis: c})
    if basis and free and draw(st.booleans()):
        pos = draw(st.sampled_from(range(len(basis))))
        moved = basis[:pos] + (draw(st.sampled_from(free)),) + basis[pos + 1:]
        return a - term + CliffordElem({tuple(sorted(moved)): c})
    return a - term + CliffordElem({basis: perturb_scalar(draw, c)})


def perturb_symbol(draw, a: BoundarySymbol) -> BoundarySymbol:
    """One pole order +1, or one Clifford coefficient perturbed."""
    empty = 0 if a.shell == OFF else (0, 0)
    key, poly = draw(st.sampled_from(sorted(a.terms.items())
                                     or [(empty, XinPoly())]))
    term = BoundarySymbol(a.shell, {key: poly})
    if poly.coeffs and draw(st.booleans()):
        if a.shell == OFF:
            deeper = key + 1
        else:
            deeper = draw(st.sampled_from(((key[0] + 1, key[1]),
                                           (key[0], key[1] + 1))))
        return a - term + BoundarySymbol(a.shell, {deeper: poly})
    deg, elem = draw(st.sampled_from(sorted(poly.coeffs.items())
                                     or [(0, CliffordElem.zero())]))
    changed = XinPoly({**poly.coeffs, deg: perturb_clifford(draw, elem)})
    return a - term + BoundarySymbol(a.shell, {key: changed})


class TestPrintingIsInjective:
    @PROPERTY
    @given(scalars(), st.data())
    def test_scalar(self, a, data):
        b = perturb_scalar(data.draw, a)
        assume(a != b)
        assert sexpr.dumps(a) != sexpr.dumps(b)

    @PROPERTY
    @given(cliffords(), st.data())
    def test_clifford(self, a, data):
        b = perturb_clifford(data.draw, a)
        assume(a != b)
        assert sexpr.dumps(a) != sexpr.dumps(b)

    @PROPERTY
    @given(symbols(), st.data())
    def test_symbol(self, a, data):
        b = perturb_symbol(data.draw, a)
        assume(a != b)
        assert sexpr.dumps(a) != sexpr.dumps(b)
