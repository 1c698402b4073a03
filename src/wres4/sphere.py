"""Exact integration of polynomials over the unit sphere |xi'| = 1.

The tangential cotangent space is three-dimensional.  Monomial averages
follow the double-factorial rule

    avg(xi_1^(2a) xi_2^(2b) xi_3^(2c))
        = (2a-1)!! (2b-1)!! (2c-1)!! / (2(a+b+c)+1)!!

and any odd exponent kills the term.  The total surface volume stays the
formal indeterminate OMEGA; numeric evaluation binds it later.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResidualXiN
from .scalars import (
    NAMES,
    OMEGA,
    ScalarExpr,
    _mono_set,
)

_XI_NAMES = ("XI1", "XI2", "XI3")


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def moment(a: int, b: int, c: int) -> Fraction:
    """Average of xi_1^a xi_2^b xi_3^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    num = (_double_factorial(a - 1) * _double_factorial(b - 1)
           * _double_factorial(c - 1))
    return Fraction(num, _double_factorial(a + b + c + 1))


def integrate_sphere(e: ScalarExpr) -> ScalarExpr:
    """Integral over |xi'| = 1, expressed as a multiple of OMEGA.

    The integrand must already be on-shell: U is identified with 1, while
    any surviving xi_n or W denominator is an upstream pipeline error.
    """
    names = e.free_names()
    if "XIN" in names:
        raise ResidualXiN("xi_n survived into a sphere integrand")
    if "W" in names:
        raise ResidualXiN("an off-shell denominator survived on the sphere")
    if "U" in names:
        e = e.substitute({"U": ScalarExpr.one()})
    out = ScalarExpr.zero()
    for m, coeff in e.terms.items():
        exps = []
        rest = m
        for name in _XI_NAMES:
            idx = NAMES.index(name)
            exp = 0
            for j, k in m:
                if j == idx:
                    exp = k
            exps.append(exp)
            rest = _mono_set(rest, idx, 0)
        w = moment(*exps)
        if w == 0:
            continue
        out = out + ScalarExpr({rest: coeff * w})
    return out * OMEGA
