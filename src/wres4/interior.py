"""Interior Lichnerowicz-type decomposition and residue integrand.

Everything is evaluated at a fixed interior point in normal coordinates:
the spin connection and Christoffel data vanish there, the metric is the
identity, and interior frame vectors are covariantly constant (no collar
scaling).  The operator under study is the conjugated square

    Dbar^2 = D^2 + c(df) D f^-1 - |df|^2 / f^2,

a Laplace-type operator whose endomorphism E is computed twice: once from
the raw (A, B) data through the canonical connection, and once from the
closed form; their exact agreement is the decomposition theorem.  The
functions here return plain engine values; the reference forms
(``E_closed_form``, ``trace_braces``) are built only for the CLI, which
judges each engine value against its reference.
"""

from __future__ import annotations

import functools

from .clifford import CliffordElem, spin_trace
from .scalars import (
    S_CURV,
    PI_SYM,
    ScalarExpr,
    fi,
    fij,
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


def laplacian_f() -> ScalarExpr:
    """Delta f at the base point with the geometer's sign: -sum_j d_j d_j f."""
    out = ScalarExpr.zero()
    for j in range(1, 5):
        out = out - ScalarExpr.var(fij(j, j))
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


def _closed_form(mixed_sign: int) -> CliffordElem:
    cdf = CliffordElem.c_df()
    out = CliffordElem.scalar(frac(-1, 4) * S_CURV
                              + df_norm_sq() * _FINV(2))
    for j in range(1, 5):
        hess_j = CliffordElem({(k,): ScalarExpr.var(fij(j, k))
                               for k in range(1, 5)})
        out = out + (hess_j * CliffordElem.gen(j)).scale(half() * _FINV())
        sq = (cdf * CliffordElem.gen(j)).scale(_FINV())
        out = out - (sq * sq).scale(frac(1, 4))
    out = out + (cdf * CliffordElem.c_dfinv()).scale(frac(mixed_sign, 2))
    return out


def E_closed_form() -> CliffordElem:
    """The reference closed form

        -s/4 + |df|^2/f^2 + (1/2)[sum_j c(Hessian_j f) c(e_j) f^-1
        + c(df) c(df^-1)] - (1/4) sum_j [c(df) c(e_j) f^-1]^2,

    with the mixed term carried at +1/2 as in the golden reference."""
    return _closed_form(+1)


def E_closed_form_engine() -> CliffordElem:
    """The closed form the raw (A, B) data actually produce: identical to
    the reference form except the mixed term enters with -1/2.

    The sign is fixed independently by evaluating the operator on constant
    and coordinate-linear spinors, which pins A_j = -c(df) c(e_j) f^-1 and
    B; the canonical E = B - sum_j (d_j omega_j + omega_j^2) then carries
    -1/2 c(df) c(df^-1).  Since c(df) c(df^-1) = +|df|^2/f^2 is a scalar,
    the two forms differ by exactly |df|^2/f^2."""
    return _closed_form(-1)


def trace_interior() -> ScalarExpr:
    """spin_trace(s/6 + E)."""
    return spin_trace(CliffordElem.scalar(frac(1, 6) * S_CURV)
                      + compute_E_at_x0())


def trace_braces() -> ScalarExpr:
    """The printed value of the trace,

        -4 * { s/12 + Delta f/(2f) + (1/2) g(df, df^-1) + 2|df|^2/f^2 },

    with Delta f = -sum_j d_j d_j f and g(df, df^-1) = -|df|^2/f^2."""
    g_df_dfinv = -df_norm_sq() * _FINV(2)
    braces = (frac(1, 12) * S_CURV
              + laplacian_f() * half() * _FINV()
              + half() * g_df_dfinv
              + ScalarExpr.const(2) * df_norm_sq() * _FINV(2))
    return ScalarExpr.const(-4) * braces


def theorem32_value(trace: ScalarExpr) -> ScalarExpr:
    """Apply the heat-kernel bridge 32 pi^2 (n = 4) times the conformal
    scaling factor 4 f^-2 to the engine trace, yielding the interior
    residue integrand."""
    return (ScalarExpr.const(32) * PI_SYM ** 2 * ScalarExpr.const(4)
            * _FINV(2) * trace)


def theorem32_prefactor() -> ScalarExpr:
    """The -512 pi^2 / f^2 normalization in front of the braces."""
    return theorem32_value(ScalarExpr.const(-4))
