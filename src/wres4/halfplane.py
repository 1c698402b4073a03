"""Half-plane projection and real-line residue integration.

On-shell symbols are rational in xi_n with poles only at +-i, so every
operation here reads one Laurent expansion: the principal part of
num / ((xi_n - p)^here (xi_n + p)^other) at p = +-i is the Taylor series of
num(p + z) (2p + z)^-other at z = 0.  Only proper fractions are accepted: a
decaying symbol is the sum of its two principal parts, and anything else
raises DecayViolation.  pi_plus retains the principal part at +i (the
component analytic in the lower half-plane); the real-line integral of a
rational decaying like xi_n^-2 is 2*pi*i times its residue at +i.
"""

from __future__ import annotations

from math import comb
from typing import Dict, NamedTuple

from .clifford import (CliffordElem, _cmul_into, _cscalar_into, _elem,
                       spin_trace)
from .errors import DecayViolation, ShellViolation
from .scalars import GAUSS_I, GaussianRational, PI_SYM, ScalarExpr
from .symbols import ON, BoundarySymbol


class PoleDecomposition(NamedTuple):
    """Exact split of a proper fraction into its principal parts at +-i."""

    principal_plus: Dict[int, CliffordElem]
    principal_minus: Dict[int, CliffordElem]


def _canonical_term(s: BoundarySymbol, gap: int):
    """(num, a, b) with s = num / ((xi_n - i)^a (xi_n + i)^b), where s must
    decay like xi_n^-gap: the one decay rule of this module."""
    if s.shell != ON:
        raise ShellViolation("operation requires an on-shell symbol")
    terms = s.canonical().terms
    if not terms:
        return {}, 0, 0
    ((a, b), num), = terms.items()
    if max(num) > a + b - gap:
        raise DecayViolation(f"needs deg(num) <= deg(den) - {gap}")
    return num, a, b


def _principal_part(num: dict, here: int, other: int,
                    pole: GaussianRational) -> Dict[int, CliffordElem]:
    """{k: A_k} for the principal part sum_k A_k (xi - pole)^-k of
    num / ((xi - pole)^here (xi + pole)^other).  A_k is the z^(here - k)
    coefficient of num(pole + z) (2 pole + z)^-other."""
    # Taylor shift: num(pole + z) = sum_n c_n z^n
    sums: list = [{} for _ in range(here)]
    for d, e in num.items():
        for n in range(min(d + 1, here)):
            w = ScalarExpr.const(comb(d, n) * pole ** (d - n))
            _cmul_into(sums[n], e.terms, {(): w})
    c = [_elem(t).terms for t in sums]
    # binomial series: (2 pole + z)^-other = sum_j beta_j z^j; a zero
    # beta_j (every j > 0 when other = 0) adds nothing
    beta = [(2 * pole) ** -other]
    for j in range(1, here):
        beta.append(beta[-1] * -(other + j - 1) / (2 * pole * j))
    out: Dict[int, CliffordElem] = {}
    for k in range(here, 0, -1):
        acc: dict = {}
        for n in range(here - k + 1):
            w = ScalarExpr.const(beta[here - k - n])
            _cmul_into(acc, c[n], {(): w})
        out[k] = _elem(acc)
    return out


def partial_fractions(s: BoundarySymbol) -> PoleDecomposition:
    """Exact decomposition of a decaying on-shell symbol into poles at
    +-i."""
    num, a, b = _canonical_term(s, 1)
    return PoleDecomposition(_principal_part(num, a, b, GAUSS_I),
                             _principal_part(num, b, a, -GAUSS_I))


def pi_plus(s: BoundarySymbol) -> BoundarySymbol:
    """Principal part at +i; the projection onto functions analytic in the
    lower half-plane.  Idempotent."""
    # Only the +i part is kept.  Reading it through partial_fractions
    # computes the -i part too, but keeps report's path through the
    # halfplane.partial_fractions span that perfbench's per-layer metric
    # pins; a single _principal_part call waits for that metric to go.
    dec = partial_fractions(s)
    return BoundarySymbol(ON, {(k, 0): {0: elem}
                               for k, elem in dec.principal_plus.items()},
                          s.xder)


def line_integral(s: BoundarySymbol) -> ScalarExpr:
    """Integral over the real line of a scalar on-shell rational: 2*pi*i
    times its residue at +i, the one pole in the upper half-plane.  It
    needs a numerator degree at least 2 below the denominator degree."""
    num, a, b = _canonical_term(s, 2)
    if any(set(e.terms) - {()} for e in num.values()):
        raise ValueError("line_integral expects a scalar integrand")
    res = _principal_part(num, a, b, GAUSS_I).get(1, CliffordElem.zero())
    return ScalarExpr.const(2 * GAUSS_I) * PI_SYM * res.scalar_part()


def trace_symbol(left: BoundarySymbol,
                 right: BoundarySymbol) -> BoundarySymbol:
    """The spinor trace of left * right, coefficient-wise, keeping the xi_n
    structure.  Only the scalar blade of each coefficient product is
    formed."""
    t = left.products(right, _cscalar_into)
    return BoundarySymbol(left.shell, {
        key: {d: CliffordElem.scalar(spin_trace(_elem(acc)))
              for d, acc in c.items()}
        for key, c in t.items()}, left.xder + right.xder)
