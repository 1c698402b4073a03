"""The table of reference values that `anchors.anchor` looks up by id.

Each entry rebuilds one printed intermediate or case value of the boundary
computation inside the engine's IR.  Only a lookup imports this module,
and the table is built once per process.
"""

from __future__ import annotations

import functools

from .clifford import CliffordElem
from .scalars import (
    HP,
    OMEGA,
    PI_SYM,
    ScalarExpr,
    fi,
    frac,
    half,
    usq,
    xi,
)
from .symbols import OFF, ON, BoundarySymbol, jet_mid

_I = ScalarExpr.i_unit()
_cxp = CliffordElem.c_xi_prime
_c4 = CliffordElem.c_dxn
_on = functools.partial(BoundarySymbol, ON)
_off = functools.partial(BoundarySymbol, OFF)


def _sandwich_pi_plus(mid: CliffordElem) -> BoundarySymbol:
    """Printed principal part of c(xi) mid c(xi) / |xi|^4 on |xi'| = 1:

        -(i xi_n + 2)/(4(xi_n-i)^2) c(xi') mid c(xi')
        - i/(4(xi_n-i)^2) [c(dx_n) mid c(xi') + c(xi') mid c(dx_n)]
        - i xi_n/(4(xi_n-i)^2) c(dx_n) mid c(dx_n)
    """
    a = _cxp() * mid * _cxp()
    b = _c4() * mid * _cxp() + _cxp() * mid * _c4()
    c = _c4() * mid * _c4()
    q = frac(-1, 4)
    poly = {
        0: a.scale(q * ScalarExpr.const(2)) + b.scale(q * _I),
        1: a.scale(q * _I) + c.scale(q * _I),
    }
    return _on({(2, 0): poly})


def _sandwich_xin_derivative(mid: CliffordElem) -> BoundarySymbol:
    """Printed xi_n-derivative of c(xi) mid c(xi) / |xi|^4 on |xi'| = 1."""
    a = _cxp() * mid * _cxp()
    b = _cxp() * mid * _c4() + _c4() * mid * _cxp()
    c = _c4() * mid * _c4()
    # -4 xi_n a / W^3 + (1/W^2 - 4 xi_n^2/W^3) b + (2 xi_n/W^2 - 4 xi_n^3/W^3) c
    t22 = {0: b, 1: c.scale(ScalarExpr.const(2))}
    t33 = {
        1: a.scale(ScalarExpr.const(-4)),
        2: b.scale(ScalarExpr.const(-4)),
        3: c.scale(ScalarExpr.const(-4)),
    }
    return _on({(2, 2): t22, (3, 3): t33})


@functools.cache
def _build_anchors() -> dict:
    cxp, c4, cdf = _cxp(), _c4(), CliffordElem.c_df()
    # the normal derivative of c(xi') at the base point: (h'(0)/2) c(xi')
    dxn_cxp = cxp.scale(half() * HP)
    mid = jet_mid()
    anchors: dict = {}

    # ---- case (a)(I) intermediates ------------------------------------
    for i in (1, 2, 3):
        ci = CliffordElem.gen(i)
        # c(dx_i)/(2(xi_n-i)) - [xi_i(xi_n-2i)c(xi') + xi_i c(dx_n)]/(2(xi_n-i)^2)
        anchors[f"4.9[{i}]"] = _on({
            (1, 0): {0: ci.scale(half())},
            (2, 0): {
                0: cxp.scale(_I * xi(i)) - c4.scale(half() * xi(i)),
                1: cxp.scale(-half() * xi(i)),
            },
        })
        # trace combination, times -4 from each Clifford square
        anchors[f"4.11[{i}]"] = _on({
            (3, 2): {1: CliffordElem.scalar(
                ScalarExpr.const(4) * _I * xi(i))},
            (4, 2): {
                0: CliffordElem.scalar(ScalarExpr.const(2) * _I * xi(i)),
                1: CliffordElem.scalar(ScalarExpr.const(-8) * xi(i)),
                2: CliffordElem.scalar(ScalarExpr.const(-6) * _I * xi(i)),
            },
        })

    # d_{xi_n} sigma_-1(D^-1) on |xi'| = 1
    anchors["4.10"] = _on({(2, 2): {
        0: c4.scale(_I),
        1: cxp.scale(ScalarExpr.const(-2) * _I),
        2: c4.scale(-_I),
    }})
    anchors["4.27"] = anchors["4.10"]

    # ---- case (a)(II) intermediates -----------------------------------
    anchors["4.14"] = _off({
        2: {0: cxp.scale(ScalarExpr.const(-2) * _I),
            1: c4.scale(ScalarExpr.const(-6) * _I)},
        3: {2: cxp.scale(ScalarExpr.const(8) * _I),
            3: c4.scale(ScalarExpr.const(8) * _I)},
    })
    anchors["4.15"] = _off({
        1: {0: dxn_cxp.scale(_I)},
        2: {0: cxp.scale(-_I * HP * usq()),
            1: c4.scale(-_I * HP * usq())},
    }, xder=1)
    anchors["4.16"] = _on({
        (1, 0): {0: dxn_cxp.scale(half())
                 + cxp.scale(frac(-1, 4) * HP)},
        (2, 0): {0: (cxp.scale(_I) - c4).scale(frac(1, 4) * HP)},
    }, xder=1)
    # known tension: the sign convention below disagrees with the engine's
    # half-plane projection and with 4.23/4.40
    anchors["4.19"] = _on({(1, 0): {
        0: (cxp + c4.scale(_I)).scale(-half())}})

    # ---- case (a)(III) intermediates ----------------------------------
    anchors["4.22"] = _on({
        (2, 2): {0: c4.scale(-_I * HP),
                 1: dxn_cxp.scale(ScalarExpr.const(-2) * _I)},
        (3, 3): {1: cxp.scale(ScalarExpr.const(4) * _I * HP),
                 2: c4.scale(ScalarExpr.const(4) * _I * HP)},
    }, xder=1)
    anchors["4.23"] = _on({(2, 0): {
        0: (cxp + c4.scale(_I)).scale(-half())}})
    anchors["4.24"] = _on({(4, 3): {
        0: CliffordElem.scalar(ScalarExpr.const(2) * _I * HP),
        1: CliffordElem.scalar(ScalarExpr.const(-6) * HP),
    }}, xder=1)
    anchors["4.25"] = _on({(4, 2): {
        1: CliffordElem.scalar(ScalarExpr.const(-2) * _I * HP),
    }}, xder=1)

    # ---- case (b) intermediates ---------------------------------------
    anchors["4.31"] = _sandwich_pi_plus(cdf)
    anchors["4.32"] = _on({(2, 2): {
        0: c4.scale(ScalarExpr.const(2) * _I * ScalarExpr.f_inverse()),
        1: cxp.scale(ScalarExpr.const(-4) * _I * ScalarExpr.f_inverse()),
        2: c4.scale(ScalarExpr.const(-2) * _I * ScalarExpr.f_inverse()),
    }})
    tr_c4 = ScalarExpr.const(-4) * ScalarExpr.var(fi(4))
    tr_cxp = ScalarExpr.const(-4) * (
        xi(1) * ScalarExpr.var(fi(1)) + xi(2) * ScalarExpr.var(fi(2))
        + xi(3) * ScalarExpr.var(fi(3)))
    finv = ScalarExpr.f_inverse()
    anchors["4.33"] = _on({(2, 2): {0: CliffordElem.scalar(
        finv * (_I * tr_c4 + tr_cxp))}})
    anchors["4.35"] = _sandwich_pi_plus(mid)
    four = ScalarExpr.const(4)
    tr_mid_c4 = (c4 * mid).scalar_part() * four
    tr_mid_cxp = (cxp * mid).scalar_part() * four
    anchors["4.36"] = _on({(2, 2): {0: CliffordElem.scalar(
        finv * (_I * tr_mid_c4 + tr_mid_cxp))}})

    # ---- case (c) intermediates ---------------------------------------
    anchors["4.40"] = _on({(1, 0): {
        0: (cxp + c4.scale(_I)).scale(finv)}})
    anchors["4.42"] = _sandwich_xin_derivative(cdf)
    s0 = c4.scale(frac(-3, 4) * HP)  # sigma_0(D)(x_0)
    # c(xi) c(dx_n) c(xi) expanded by xi_n-degree
    sand = {
        0: cxp * c4 * cxp,
        1: cxp * c4 * c4 + c4 * c4 * cxp,
        2: c4 * c4 * c4,
    }
    anchors["4.43"] = _on({
        (3, 3): {
            0: c4 * s0 * cxp + cxp * s0 * c4 + dxn_cxp.scale(-1)
               + cxp.scale(ScalarExpr.const(2) * HP),
            1: (c4 * s0 * c4).scale(ScalarExpr.const(2))
               - (cxp * s0 * cxp).scale(ScalarExpr.const(4))
               - (cxp * c4 * dxn_cxp).scale(ScalarExpr.const(4))
               + c4.scale(ScalarExpr.const(2) * HP),
            2: (c4 * s0 * cxp + cxp * s0 * c4).scale(ScalarExpr.const(-3))
               + dxn_cxp.scale(ScalarExpr.const(3)),
            3: (c4 * s0 * c4).scale(ScalarExpr.const(-2)),
        },
        (4, 4): {d + 1: e.scale(ScalarExpr.const(6) * HP)
                 for d, e in sand.items()},
    }, xder=1)
    anchors["4.44"] = _on({
        (3, 3): {
            0: CliffordElem.scalar(ScalarExpr.const(-24) * _I * HP
                                   * ScalarExpr.f_inverse(2)),
            1: CliffordElem.scalar(ScalarExpr.const(12) * HP
                                   * ScalarExpr.f_inverse(2)),
            2: CliffordElem.scalar(ScalarExpr.const(12) * _I * HP
                                   * ScalarExpr.f_inverse(2)),
        },
        (3, 4): {1: CliffordElem.scalar(
            ScalarExpr.const(48) * _I * HP * ScalarExpr.f_inverse(2))},
    }, xder=1)
    two_f = ScalarExpr.const(2) * finv

    def _traced(tr4, trp, sign):
        # 2/f [(1 + 3i xi_n - 3 xi_n^2 - i xi_n^3) tr4
        #      + (sign i (1 - 3 xi_n^2) - 3 xi_n + xi_n^3) trp]
        rows = ((1, sign * _I), (3 * _I, -3), (-3, -3 * sign * _I), (-_I, 1))
        return {d: CliffordElem.scalar(two_f * (tr4 * a + trp * b))
                for d, (a, b) in enumerate(rows)}

    anchors["4.46"] = _on({(4, 3): _traced(tr_c4, tr_cxp, -1)})
    anchors["4.48"] = _sandwich_xin_derivative(mid)
    anchors["4.49"] = _on({(4, 3): _traced(tr_mid_c4, tr_mid_cxp, 1)})

    # ---- case totals and the assembled boundary term -------------------
    pi_hp = PI_SYM * HP * OMEGA
    f2 = ScalarExpr.f_inverse(2)
    f3 = ScalarExpr.f_inverse(3)
    fjet_b = (ScalarExpr.const(2) * PI_SYM * f3 * tr_c4
              + half() * PI_SYM * finv * tr_mid_c4) * OMEGA
    # the f-jet term of case (a)(III), which is also the assembled total
    jet_a3 = (half(1) * (ScalarExpr.const(9) * _I - ScalarExpr.const(6))
              * finv * finv.x_derivative(4) * OMEGA)
    anchors["case_a1"] = ScalarExpr.zero()
    anchors["case_a2"] = frac(-3, 2) * pi_hp * f2
    anchors["case_a3"] = frac(3, 2) * pi_hp * f2 + jet_a3
    anchors["case_b"] = frac(9, 2) * pi_hp * f2 + fjet_b
    anchors["case_c"] = frac(-9, 2) * pi_hp * f2 - fjet_b
    anchors["4.52"] = jet_a3
    return anchors
