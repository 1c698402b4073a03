"""S-expression printing for the symbolic value types.

Scalar expressions print as fully parenthesized s-expressions whose atoms
are integer literals, the imaginary unit `i`, and indeterminate names, and
whose heads are `+ * / ^`.  Clifford elements print as a `clifford` form
holding (index-set, scalar) pairs, and boundary symbols as a `symbol` form
recording the shell state, the x_n-derivative count, and the per-pole
xi_n-polynomials.  There is no reader: printing is deterministic and
distinct values print differently, and the golden-file tests compare the
printed bytes.  Each value is written to a string in one pass.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from .clifford import CliffordElem
from .scalars import NAMES, GaussianRational, ScalarExpr

if TYPE_CHECKING:
    from .symbols import BoundarySymbol


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"(/ {n // g} {d // g})"


def _gauss(c: GaussianRational) -> str:
    p, q, d = c.p, c.q, c.d
    if not q:
        return _ratio(p, d)
    ipart = "i" if q == d else f"(* {_ratio(q, d)} i)"
    if not p:
        return ipart
    return f"(+ {_ratio(p, d)} {ipart})"


def _term(mono, c: GaussianRational) -> str:
    # a coefficient of 1 is the canonical triple (1, 0, 1)
    factors = [] if mono and c.p == c.d and not c.q else [_gauss(c)]
    for idx, exp in mono:
        factors.append(NAMES[idx] if exp == 1 else f"(^ {NAMES[idx]} {exp})")
    if len(factors) == 1:
        return factors[0]
    return "(* " + " ".join(factors) + ")"


def _scalar(e: ScalarExpr) -> str:
    k = e.fpow
    terms = e.times_f(k).terms
    parts = [_term(m, terms[m]) for m in sorted(terms)]
    if not parts:
        body = "0"
    elif len(parts) == 1:
        body = parts[0]
    else:
        body = "(+ " + " ".join(parts) + ")"
    return f"(/ {body} (^ F {k}))" if k else body


def _clifford(a: CliffordElem) -> str:
    return "(clifford" + "".join(
        f" (({' '.join(map(str, basis))}) {_scalar(a.terms[basis])})"
        for basis in sorted(a.terms)) + ")"


def _xin(num: dict) -> str:
    return "(" + " ".join(f"({deg} {_clifford(num[deg])})"
                          for deg in sorted(num)) + ")"


def _symbol(s: BoundarySymbol) -> str:
    entries = []
    # one symbol's keys are all ints (off shell) or all pairs (on shell)
    for key in sorted(s.terms):
        skey = key if isinstance(key, int) else f"({' '.join(map(str, key))})"
        entries.append(f" ({skey} {_xin(s.terms[key])})")
    return f"(symbol {s.shell} {s.xder}" + "".join(entries) + ")"


def dumps(value) -> str:
    """Serialize a ScalarExpr, CliffordElem, or BoundarySymbol."""
    if isinstance(value, ScalarExpr):
        return _scalar(value)
    if isinstance(value, CliffordElem):
        return _clifford(value)
    from .symbols import BoundarySymbol

    if isinstance(value, BoundarySymbol):
        return _symbol(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
