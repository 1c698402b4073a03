"""Half-plane projection and real-line residue integration.

On-shell symbols are rational in xi_n with poles only at +-i.  pi_plus
retains the principal part at +i (the component analytic in the lower
half-plane); the real-line integral of a decaying rational is 2*pi*i times
the sum of its upper half-plane residues, computed by exact differentiation.
"""

from __future__ import annotations

from typing import Dict

from .clifford import CliffordElem, spin_trace
from .errors import DecayViolation, ShellViolation
from .scalars import GAUSS_I, GaussianRational, PI_SYM, ScalarExpr
from .symbols import ON, BoundarySymbol, XinPoly


class PoleDecomposition:
    """Exact split into principal parts at +-i plus a polynomial part."""

    def __init__(self,
                 principal_plus: Dict[int, CliffordElem],
                 principal_minus: Dict[int, CliffordElem],
                 polynomial_part: XinPoly):
        self.principal_plus = {k: v for k, v in principal_plus.items()
                               if not v.is_zero()}
        self.principal_minus = {k: v for k, v in principal_minus.items()
                                if not v.is_zero()}
        self.polynomial_part = polynomial_part

    def recombine(self) -> BoundarySymbol:
        out = BoundarySymbol.zero(ON)
        for k, elem in self.principal_plus.items():
            out = out + BoundarySymbol.on_shell_term(XinPoly.const(elem), k, 0)
        for k, elem in self.principal_minus.items():
            out = out + BoundarySymbol.on_shell_term(XinPoly.const(elem), 0, k)
        if not self.polynomial_part.is_zero():
            out = out + BoundarySymbol.on_shell_term(self.polynomial_part, 0, 0)
        return out


def _check_on_shell(s: BoundarySymbol):
    if s.shell != ON:
        raise ShellViolation("operation requires an on-shell symbol")


def _poly_divmod(num: XinPoly, a: int, b: int):
    """Long division of a Clifford-coefficient polynomial by the monic
    pole factor (xi_n - i)**a (xi_n + i)**b."""
    den = XinPoly.const(CliffordElem.one()).mul_shell(a, b).coeffs
    dd = a + b
    rem = dict(num.coeffs)
    quo: Dict[int, CliffordElem] = {}
    while rem and max(rem) >= dd:
        d = max(rem)
        lead = rem.pop(d)
        shift = d - dd
        quo[shift] = quo.get(shift, CliffordElem.zero()) + lead
        for dk, ck in den.items():
            if dk == dd:
                continue
            tgt = shift + dk
            delta = lead.scale(-ck.scalar_part())
            cur = rem.get(tgt, CliffordElem.zero()) + delta
            if cur.is_zero():
                rem.pop(tgt, None)
            else:
                rem[tgt] = cur
    return XinPoly(quo), XinPoly(rem)


def _principal_part(num: XinPoly, order_here: int, order_other: int,
                    pole: GaussianRational,
                    other_pole: GaussianRational) -> Dict[int, CliffordElem]:
    """Principal-part coefficients at `pole` of
    num / ((xi - pole)^order_here (xi - other_pole)^order_other)
    via Taylor expansion: A_k = g^(order_here - k)(pole) / (order_here - k)!
    with g = num / (xi - other_pole)^order_other.
    """
    out: Dict[int, CliffordElem] = {}
    p_num, m = num, order_other
    fact = 1
    for step in range(order_here):
        k = order_here - step
        # evaluate current derivative at the pole
        base = (pole - other_pole) ** m
        val = p_num.eval_at(pole).scale(
            ScalarExpr.const(GaussianRational(1) / base)
        )
        out[k] = val.scale(ScalarExpr.const(GaussianRational(1, 0) / fact))
        # differentiate g once: (P' (xi - q) - m P) / (xi - q)^(m+1)
        shifted = p_num.d_xin().shift(1) + p_num.d_xin().scale(
            ScalarExpr.const(-other_pole)
        )
        p_num = shifted + p_num.scale(ScalarExpr.const(GaussianRational(-m)))
        m += 1
        fact *= step + 1
    return out


def partial_fractions(s: BoundarySymbol) -> PoleDecomposition:
    """Exact decomposition of an on-shell symbol into poles at +-i."""
    _check_on_shell(s)
    s = s.canonical()
    plus: Dict[int, CliffordElem] = {}
    minus: Dict[int, CliffordElem] = {}
    poly_part = XinPoly()
    for (a, b), num in s.terms.items():
        if num.degree() >= a + b and a + b > 0:
            quo, num = _poly_divmod(num, a, b)
            poly_part = poly_part + quo
        elif a + b == 0:
            poly_part = poly_part + num
            continue
        i = GAUSS_I
        for k, elem in _principal_part(num, a, b, i, -i).items():
            cur = plus.get(k, CliffordElem.zero()) + elem
            plus[k] = cur
        for k, elem in _principal_part(num, b, a, -i, i).items():
            cur = minus.get(k, CliffordElem.zero()) + elem
            minus[k] = cur
    return PoleDecomposition(plus, minus, poly_part)


def pi_plus(s: BoundarySymbol) -> BoundarySymbol:
    """Principal part at +i; the projection onto functions analytic in the
    lower half-plane.  Idempotent."""
    dec = partial_fractions(s)
    if not dec.polynomial_part.is_zero():
        raise DecayViolation(
            "pi_plus requires deg(num) <= deg(den) - 1"
        )
    return BoundarySymbol(ON, {(k, 0): XinPoly.const(elem)
                               for k, elem in dec.principal_plus.items()},
                          s.xder)


def _contour_integral(s: BoundarySymbol,
                      pole: GaussianRational) -> ScalarExpr:
    """Real-line integral of a scalar on-shell symbol from its residue at
    `pole`: 2*pi*pole times the residue, since the contour closes above
    +i counterclockwise and below -i clockwise.  Convergence needs a
    numerator degree at least 2 below the denominator degree."""
    _check_on_shell(s)
    res = CliffordElem.zero()
    for (a, b), num in s.canonical().terms.items():
        if num.degree() > a + b - 2:
            raise DecayViolation(
                "integrand needs degree gap >= 2 for convergence"
            )
        here, other = (a, b) if pole == GAUSS_I else (b, a)
        if here:
            res = res + _principal_part(num, here, other, pole, -pole)[1]
    if set(res.terms) - {()}:
        raise ValueError("line_integral expects a scalar integrand")
    return ScalarExpr.const(2 * pole) * PI_SYM * res.scalar_part()


def line_integral(s: BoundarySymbol) -> ScalarExpr:
    """Integral over the real line of a decaying on-shell rational:
    2*pi*i times the sum of residues in the upper half-plane."""
    return _contour_integral(s, GAUSS_I)


def line_integral_lower(s: BoundarySymbol) -> ScalarExpr:
    """Same integral computed by closing the contour below: -2*pi*i times
    the lower residues.  Used as an exactness cross-check."""
    return _contour_integral(s, -GAUSS_I)


def trace_symbol(s: BoundarySymbol) -> BoundarySymbol:
    """Apply the spinor trace coefficient-wise, keeping the xi_n structure."""
    return BoundarySymbol(
        s.shell,
        {key: poly.map_coeffs(lambda e: CliffordElem.scalar(spin_trace(e)))
         for key, poly in s.terms.items()},
        s.xder,
    )
