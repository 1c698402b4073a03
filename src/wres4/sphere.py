"""Exact integration of polynomials over the unit sphere |xi'| = 1.

The tangential cotangent space is three-dimensional.  Monomial averages
follow the double-factorial rule

    avg(xi_1^(2a) xi_2^(2b) xi_3^(2c))
        = (2a-1)!! (2b-1)!! (2c-1)!! / (2(a+b+c)+1)!!

and any odd exponent kills the term.  The total surface volume stays the
formal indeterminate OMEGA; numeric evaluation binds it later.
"""

from __future__ import annotations

from math import prod

from .scalars import (
    OMEGA,
    GaussianRational,
    ScalarExpr,
    _INDEX,
    _mono_exp,
    _product_into,
    _wrap,
    rational,
)

_XI_IDX = tuple(_INDEX[name] for name in ("XI1", "XI2", "XI3"))


def _double_factorial(k: int) -> int:
    return prod(range(k, 1, -2))


def moment(a: int, b: int, c: int) -> GaussianRational:
    """Average of xi_1^a xi_2^b xi_3^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return rational(0)
    num = (_double_factorial(a - 1) * _double_factorial(b - 1)
           * _double_factorial(c - 1))
    return rational(num, _double_factorial(a + b + c + 1))


def integrate_sphere(e: ScalarExpr) -> ScalarExpr:
    """Integral over |xi'| = 1, expressed as a multiple of OMEGA.

    Each monomial in XI1, XI2, XI3 is replaced by its sphere average, so
    |xi'|^2 = XI1^2 + XI2^2 + XI3^2 integrates as 1 without a reduction.
    """
    t: dict = {}
    for m, coeff in e.terms.items():
        w = moment(*(_mono_exp(m, idx) for idx in _XI_IDX))
        if w.is_zero():
            continue
        rest = tuple(p for p in m if p[0] not in _XI_IDX)
        _product_into(t, {rest: coeff}, {(): w})
    return _wrap(t) * OMEGA
