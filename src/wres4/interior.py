"""Interior Lichnerowicz-type decomposition and residue prefactor.

Everything is evaluated at a fixed interior point in normal coordinates:
the spin connection and Christoffel data vanish there, the metric is the
identity, and interior frame vectors are covariantly constant (no collar
scaling).  The operator under study is the conjugated square

    Dbar^2 = D^2 + c(df) D f^-1 - |df|^2 / f^2,

a Laplace-type operator whose endomorphism E is computed here from the
raw (A, B) data through the canonical connection.  The functions return
plain engine values only.  The CLI judges them against references built
apart in `anchors`: the paper's closed forms of E (3.19) and of its trace
(3.22), both ledgered discrepancies, and the Kastler-Kalau-Walze value of
the trace (`kkw_trace`), which the engine matches.
"""

from __future__ import annotations

import functools

from .clifford import CliffordElem, spin_trace
from .scalars import (
    S_CURV,
    PI_SYM,
    ScalarExpr,
    fi,
    frac,
    half,
)

_FINV = ScalarExpr.f_inverse


def df_norm_sq() -> ScalarExpr:
    """|df|^2 = sum_j (d_j f)^2."""
    out = ScalarExpr.zero()
    for j in range(1, 5):
        out = out + ScalarExpr.var(fi(j)) ** 2
    return out


@functools.cache
def compute_E_at_x0() -> CliffordElem:
    """E = B - sum_j (d_j(omega_j) + omega_j^2) at the base point from the
    raw data of Dbar^2: the coefficient of d_j, A_j = c(df) c(e_j) f^-1,
    the connection omega_j = -A_j/2, and

        B = -s/4 + |df|^2/f^2 - sum_j c(df) c(e_j) d_j(f^-1).

    The spin-connection contributions cancel identically between B and the
    connection terms, so they are dropped on both sides; what remains is
    the f-jet structure plus the formal scalar-curvature term.  The frame
    is constant in normal coordinates, so d_j(omega_j) differentiates the
    coefficients only.  Built once per process and shared: never mutate.
    """
    cdf = CliffordElem.c_df()
    E = CliffordElem.scalar(frac(-1, 4) * S_CURV + df_norm_sq() * _FINV(2))
    for j in range(1, 5):
        cdf_ej = cdf * CliffordElem.gen(j)
        E = E - cdf_ej.scale(_FINV().x_derivative(j))
        w = cdf_ej.scale(-half() * _FINV())
        E = E - w.map_scalars(lambda c: c.x_derivative(j)) - w * w
    return E


def trace_interior() -> ScalarExpr:
    """spin_trace(s/6 + E)."""
    return spin_trace(CliffordElem.scalar(frac(1, 6) * S_CURV)
                      + compute_E_at_x0())


def theorem32_prefactor() -> ScalarExpr:
    """The -512 pi^2 / f^2 normalization in front of the braces: the
    heat-kernel bridge 32 pi^2 (n = 4) times the conformal scaling factor
    4 f^-2, times the -4 of the braces."""
    return (ScalarExpr.const(32) * PI_SYM ** 2 * ScalarExpr.const(4)
            * _FINV(2) * ScalarExpr.const(-4))
