"""Golden reference values for the boundary computation.

Each reference rebuilds a printed expression inside the engine's own IR,
keyed by an opaque id.  No engine module imports this one: only the CLI
looks a reference up, so that every independently computed value can be
compared and given a verdict.  A mismatch is reported, never patched.

A verb pays only for what it looks up.  `compare` needs nothing else;
Lemma 4.1's closed forms (`lemma41`) load the symbol layer; the table of
ids lives in `anchor_table`, which the first `anchor` or `has_anchor`
call imports and builds, so only `report` and `compute-phi` compile it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .clifford import CliffordElem
from .scalars import ScalarExpr

if TYPE_CHECKING:
    from .symbols import BoundarySymbol


@functools.cache
def lemma41(op: str, order: int) -> BoundarySymbol:
    """Lemma 4.1's closed form of sigma_order(op^-1), order -1 or -2, op D
    or Dtilde: the reference of the parametrix[op,order] rows.  Each is
    built once per process and shared between callers: never mutate."""
    from .symbols import (BoundarySymbol, c_xi_poly, derive, jet_mid,
                          sandwich, sigma0_dirac)

    two_over_f = ScalarExpr.const(2) * ScalarExpr.f_inverse()
    if order == -1:
        s = BoundarySymbol.from_poly(c_xi_poly().scale(ScalarExpr.i_unit()),
                                     wpow=1)
        return s if op == "D" else s.scale(two_over_f)
    if op == "Dtilde":
        # 2/f sigma_-2(D^-1) + 4/f^2 c(xi)c(df)c(xi)/W^2
        # + c(xi) sum_j c(dx_j) 2 d_j(f^-1) c(xi) / W^2
        four_over_f2 = ScalarExpr.const(4) * ScalarExpr.f_inverse(2)
        return (lemma41("D", -2).scale(two_over_f)
                + sandwich(CliffordElem.c_df()).scale(four_over_f2)
                + sandwich(jet_mid()))
    # sigma_0(D) sandwiched, plus sum_j (c(xi)/W) c(dx_j) d_{x_j}(c(xi)/W)
    cxi = BoundarySymbol.from_poly(c_xi_poly(), wpow=1)
    out = sandwich(sigma0_dirac())
    for j, x in enumerate(("x_1", "x_2", "x_3", "x_n"), 1):
        cj = BoundarySymbol.from_clifford(CliffordElem.gen(j))
        out = out + cxi.mul(cj).mul(derive(cxi, x))
    return out


def anchor(label: str):
    """Reference value for one opaque id; KeyError when no anchor exists."""
    from .anchor_table import _build_anchors

    return _build_anchors()[label]


def has_anchor(label: str) -> bool:
    from .anchor_table import _build_anchors

    return label in _build_anchors()


def compare(engine_value, ref) -> str:
    """Verdict for an engine value against a reference value."""
    if ref is None:
        return "no_anchor"
    return "match" if engine_value == ref else "mismatch"
