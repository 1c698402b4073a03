"""Helpers the tests share that are not checks themselves: one numeric
evaluator for every symbolic type, the ledger's ids, the W-power and
pole-factor products and the one-key on-shell symbol."""

from wres4.cli import load_discrepancies
from wres4.clifford import CliffordElem
from wres4.oracle import eval_clifford, eval_scalar, eval_symbol
from wres4.scalars import ScalarExpr
from wres4.symbols import ON, BoundarySymbol, XinPoly, _pole_factor, _w_power


def evaluate(sym, ctx, point=None):
    """Dispatch on the symbolic type; 4x4 matrices (tuples of rows of
    complex) for Clifford-valued data, complex scalars for ScalarExpr."""
    if isinstance(sym, ScalarExpr):
        return eval_scalar(sym, ctx, point)
    if isinstance(sym, CliffordElem):
        return eval_clifford(sym, ctx, point)
    if isinstance(sym, BoundarySymbol):
        return eval_symbol(sym, ctx, point)
    raise TypeError(f"cannot evaluate {type(sym).__name__}")


def known_ids() -> frozenset:
    """The ids of the shipped discrepancy ledger."""
    return frozenset(d["id"] for d in load_discrepancies()["discrepancies"])


def mul_w(p: XinPoly, k: int) -> XinPoly:
    """p times W**k = (XI1^2 + XI2^2 + XI3^2 + xi_n^2)**k."""
    return p.mul(_w_power(k))


def mul_shell(p: XinPoly, da: int, db: int) -> XinPoly:
    """p times (xi_n - i)**da (xi_n + i)**db, the pole factor that
    on-shell canonical forms multiply by."""
    return p.mul(_pole_factor(da, db))


def on_shell_term(poly: XinPoly, a: int, b: int,
                  xder: int = 0) -> BoundarySymbol:
    """poly / ((xi_n - i)**a (xi_n + i)**b)."""
    return BoundarySymbol(ON, {(a, b): poly}, xder)
