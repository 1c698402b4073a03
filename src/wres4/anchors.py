"""Golden reference values, built apart from the engine they check.

Each reference rebuilds a printed closed form from the Clifford algebra
and the scalar alphabet: no engine rule (`interior`, the symbol layer's
sigma_0, `derive` and parametrix, the jet rule) enters one, so an engine
fault cannot reach its own reference.  Only the CLI looks a reference up
and gives the verdict; a mismatch is reported, never patched.

A verb pays only for what it looks up: `compare` and the interior forms
(3.19, 3.22, `kkw_trace`) need nothing else; Lemma 4.1's closed forms
(`lemma41`) load the symbol layer for its types; the table of ids lives in
`anchor_table`, which the first `anchor` or `has_anchor` call imports and
builds, so only `report` and `compute-phi` compile it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .clifford import CliffordElem
from .scalars import HP, S_CURV, ScalarExpr, fi, fij, frac, half, usq

if TYPE_CHECKING:
    from .symbols import BoundarySymbol, Operator

_FINV = ScalarExpr.f_inverse


def _sum_j(term) -> ScalarExpr:
    return sum((term(j) for j in range(1, 5)), ScalarExpr.zero())


def _df_sq() -> ScalarExpr:
    """|df|^2 = sum_j (d_j f)^2."""
    return _sum_j(lambda j: ScalarExpr.var(fi(j)) ** 2)


def E_closed_form() -> CliffordElem:
    """The printed closed form (3.19) of the interior endomorphism,

        -s/4 + |df|^2/f^2 + (1/2)[sum_j c(Hessian_j f) c(e_j) f^-1
        + c(df) c(df^-1)] - (1/4) sum_j [c(df) c(e_j) f^-1]^2,

    with the mixed term at +1/2 as printed."""
    cdf = CliffordElem.c_df()
    out = CliffordElem.scalar(frac(-1, 4) * S_CURV + _df_sq() * _FINV(2))
    for j in range(1, 5):
        hess_j = CliffordElem({(k,): ScalarExpr.var(fij(j, k))
                               for k in range(1, 5)})
        out = out + (hess_j * CliffordElem.gen(j)).scale(half() * _FINV())
        sq = (cdf * CliffordElem.gen(j)).scale(_FINV())
        out = out - (sq * sq).scale(frac(1, 4))
    # c(df^-1) = -f^-2 c(df)
    return out + (cdf * cdf.scale(-_FINV(2))).scale(half())


def trace_braces() -> ScalarExpr:
    """The printed value (3.22) of the interior trace,

        -4 * { s/12 + Delta f/(2f) + (1/2) g(df, df^-1) + 2|df|^2/f^2 },

    with Delta f = -sum_j d_j d_j f and g(df, df^-1) = -|df|^2/f^2."""
    df_sq = _df_sq()
    laplacian = -_sum_j(lambda j: ScalarExpr.var(fij(j, j)))
    braces = (frac(1, 12) * S_CURV + laplacian * half() * _FINV()
              + half() * (-df_sq * _FINV(2))
              + ScalarExpr.const(2) * df_sq * _FINV(2))
    return ScalarExpr.const(-4) * braces


def kkw_trace() -> ScalarExpr:
    """The Kastler-Kalau-Walze value of tr(s/6 + E), from the conformal
    change of scalar curvature (Lee & Parker, Bull. AMS 17, 1987):
    -(f^2/3)(6 phi Delta phi + s phi^2), phi = f^-1, Delta = -sum_j d_j^2,
    with sum_j d_j^2(f^-1) = 2|df|^2 f^-3 - f^-2 sum_j FIJjj."""
    phi = _FINV()
    delta_phi = (_FINV(2) * _sum_j(lambda j: ScalarExpr.var(fij(j, j)))
                 - ScalarExpr.const(2) * _df_sq() * _FINV(3))
    return frac(-1, 3) * ScalarExpr.var("F", 2) * (
        ScalarExpr.const(6) * phi * delta_phi + S_CURV * phi ** 2)


@functools.cache
def lemma41(op: Operator, order: int) -> BoundarySymbol:
    """Lemma 4.1's closed form of sigma_order(op^-1), order -1 or -2, op D
    or DTILDE: the reference of the parametrix[op,order] rows.  Each is
    built once per process and shared between callers: never mutate.  Any
    other op or order raises LookupError."""
    from .symbols import (D, DTILDE, OFF, BoundarySymbol, _scaled, c_xi_poly,
                          sandwich)

    if (op is not D and op is not DTILDE) or order not in (-1, -2):
        name = getattr(op, "name", op)
        raise LookupError(f"Lemma 4.1 gives no sigma_{order}({name}^-1)")

    two_over_f = ScalarExpr.const(2) * ScalarExpr.f_inverse()
    if order == -1:
        s = BoundarySymbol(OFF,
                           {1: _scaled(c_xi_poly(), ScalarExpr.i_unit())})
        return s if op is D else s.scale(two_over_f)
    if op is DTILDE:
        # 2/f sigma_-2(D^-1) + 4/f^2 c(xi)c(df)c(xi)/W^2
        # + c(xi) sum_j c(dx_j) 2 d_j(f^-1) c(xi) / W^2, where
        # sum_j c(dx_j) 2 d_j(f^-1) = -2 f^-2 c(df)
        four_over_f2 = ScalarExpr.const(4) * ScalarExpr.f_inverse(2)
        cdf = CliffordElem.c_df()
        return (lemma41(D, -2).scale(two_over_f)
                + sandwich(cdf).scale(four_over_f2)
                + sandwich(cdf.scale(ScalarExpr.const(-2) * _FINV(2))))
    # c(xi) sigma_0(D) c(xi)/W^2, sigma_0(D)(x_0) = -(3/4)h'(0)c(dx_n) (Wang,
    # Lett. Math. Phys. 80, 2007), plus the one x-derivative term alive at
    # x_0: c(xi)/W c(dx_n) d_{x_n}(c(xi)/W), which is 4.15 / i
    c4 = CliffordElem.c_dxn()
    # d_{x_n}(c(xi)/W) = (h'/2) c(xi')/W - h'|xi'|^2 c(xi)/W^2
    d_cxi = BoundarySymbol(OFF, {
        1: {0: CliffordElem.c_xi_prime().scale(half() * HP)},
        2: _scaled(c_xi_poly(), -HP * usq())}, xder=1)
    cxi = BoundarySymbol(OFF, {1: c_xi_poly()})
    return (sandwich(c4.scale(frac(-3, 4) * HP))
            + cxi.mul(BoundarySymbol.from_clifford(c4)).mul(d_cxi))


def anchor(label: str):
    """Reference value for one opaque id; None when no anchor exists."""
    from .anchor_table import _build_anchors

    return _build_anchors().get(label)


def has_anchor(label: str) -> bool:
    from .anchor_table import _build_anchors

    return label in _build_anchors()


def compare(engine_value, ref) -> str:
    """Verdict for an engine value against a reference value."""
    if ref is None:
        return "no_anchor"
    return "match" if engine_value == ref else "mismatch"
