"""S-expression printing for the symbolic value types.

Scalar expressions print as fully parenthesized s-expressions whose atoms
are integer literals, the imaginary unit `i`, and indeterminate names, and
whose heads are `+ * / ^`.  Clifford elements print as a `clifford` form
holding (index-set, scalar) pairs, and boundary symbols as a `symbol` form
recording the shell state, the x_n-derivative count, and the per-pole
xi_n-polynomials.  There is no reader: printing is deterministic and
distinct values print differently, and the golden-file tests compare the
printed bytes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Tuple, Union

from .clifford import CliffordElem
from .scalars import NAMES, GaussianRational, ScalarExpr

if TYPE_CHECKING:
    from .symbols import BoundarySymbol, XinPoly

SExpr = Union[int, str, Tuple["SExpr", ...]]


def _fraction_sexpr(q: Fraction) -> SExpr:
    if q.denominator == 1:
        return int(q)
    return ("/", int(q.numerator), int(q.denominator))


def _gauss_sexpr(c: GaussianRational) -> SExpr:
    re, im = c.re, c.im
    if im == 0:
        return _fraction_sexpr(re)
    if im == 1:
        ipart: SExpr = "i"
    else:
        ipart = ("*", _fraction_sexpr(im), "i")
    if re == 0:
        return ipart
    return ("+", _fraction_sexpr(re), ipart)


def _term_sexpr(mono, coeff: GaussianRational) -> SExpr:
    factors: List[SExpr] = []
    if not (coeff.re == 1 and coeff.im == 0) or not mono:
        factors.append(_gauss_sexpr(coeff))
    for idx, exp in mono:
        name = NAMES[idx]
        factors.append(name if exp == 1 else ("^", name, exp))
    if len(factors) == 1:
        return factors[0]
    return ("*", *factors)


def _poly_sexpr(p: ScalarExpr) -> SExpr:
    if p.is_zero():
        return 0
    terms = sorted(p.terms.items(), key=lambda kv: kv[0])
    parts = [_term_sexpr(m, c) for m, c in terms]
    if len(parts) == 1:
        return parts[0]
    return ("+", *parts)


def scalar_sexpr(e: ScalarExpr) -> SExpr:
    k = e.fpow
    body = _poly_sexpr(e.times_f(k))
    if k == 0:
        return body
    return ("/", body, ("^", "F", k))


def clifford_sexpr(a: CliffordElem) -> SExpr:
    pairs: List[SExpr] = []
    for basis in sorted(a.terms):
        pairs.append((tuple(basis), scalar_sexpr(a.terms[basis])))
    return ("clifford", *pairs)


def _xin_sexpr(p: XinPoly) -> SExpr:
    return tuple((deg, clifford_sexpr(p.coeffs[deg]))
                 for deg in sorted(p.coeffs))


def symbol_sexpr(s: BoundarySymbol) -> SExpr:
    entries: List[SExpr] = []
    for key in sorted(s.terms, key=lambda k: (k,) if isinstance(k, int) else k):
        skey: SExpr = key if isinstance(key, int) else tuple(key)
        entries.append((skey, _xin_sexpr(s.terms[key])))
    return ("symbol", s.shell, s.xder, *entries)


def _render(node: SExpr) -> str:
    if isinstance(node, tuple):
        return "(" + " ".join(_render(x) for x in node) + ")"
    return str(node)


def dumps(value) -> str:
    """Serialize a ScalarExpr, CliffordElem, or BoundarySymbol."""
    if isinstance(value, ScalarExpr):
        return _render(scalar_sexpr(value))
    if isinstance(value, CliffordElem):
        return _render(clifford_sexpr(value))
    from .symbols import BoundarySymbol

    if isinstance(value, BoundarySymbol):
        return _render(symbol_sexpr(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")

