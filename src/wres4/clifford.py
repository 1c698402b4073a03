"""Clifford algebra on four generators with c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij.

Elements are finite sums of the 16 basis monomials (sorted subsets of
{1,2,3,4}) with ScalarExpr coefficients.  The normalized spinor trace is
4 times the scalar component; every nonempty basis monomial is traceless,
including the volume monomial, as in the irreducible 4x4 representation.
"""

from __future__ import annotations

import functools
from typing import Mapping, Tuple

from .scalars import (
    HP,
    ScalarExpr,
    _coerce_scalar,
    _product_into,
    _wrap,
    fi,
    half,
    xi,
)

Basis = Tuple[int, ...]

N_GENERATORS = 4
TRACE_DIM = 4  # dim of the spinor space, 2^(4/2)


@functools.cache
def _basis_mul(a: Basis, b: Basis) -> Tuple[int, Basis]:
    """c(e_A) c(e_B) = (-1)^(n + |A & B|) c(e_{A ^ B}), n the pairs a in A,
    b in B with a > b: n swaps sort A B, and each shared generator squares
    to -1.  Returns (sign, A ^ B)."""
    n = sum(x > y for x in a for y in b) + len(set(a) & set(b))
    return (-1) ** n, tuple(sorted(set(a) ^ set(b)))


class CliffordElem:
    """Sum of Clifford basis monomials with exact scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Basis, ScalarExpr] | None = None):
        self.terms = {tuple(m): s for m, c in (terms or {}).items()
                      if not (s := _coerce_scalar(c)).is_zero()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "CliffordElem":
        return CliffordElem()

    @staticmethod
    def scalar(c) -> "CliffordElem":
        return CliffordElem({(): _coerce_scalar(c)})

    @staticmethod
    def gen(i: int) -> "CliffordElem":
        if not 1 <= i <= N_GENERATORS:
            raise ValueError("generator index must be 1..4")
        return CliffordElem({(i,): ScalarExpr.one()})

    @staticmethod
    def c_xi_prime() -> "CliffordElem":
        """c(xi') = sum_{i<4} xi_i c(e_i)."""
        return CliffordElem({(i,): xi(i) for i in (1, 2, 3)})

    @staticmethod
    def c_dxn() -> "CliffordElem":
        return CliffordElem.gen(4)

    @staticmethod
    def c_df() -> "CliffordElem":
        """c(df) = sum_j (d_j f) c(e_j), all four directions."""
        return CliffordElem({(j,): ScalarExpr.var(fi(j)) for j in range(1, 5)})

    @staticmethod
    def c_dfinv() -> "CliffordElem":
        """c(d f^-1) = sum_j d_j(f^-1) c(e_j) = -f^-2 c(df)."""
        return CliffordElem({(j,): ScalarExpr.f_inverse().x_derivative(j)
                             for j in range(1, 5)})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "CliffordElem") -> "CliffordElem":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t[m] + c if m in t else c
            if s.is_zero():
                t.pop(m, None)
            else:
                t[m] = s
        return _of(t)

    def __neg__(self) -> "CliffordElem":
        return _of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "CliffordElem") -> "CliffordElem":
        return self + (-other)

    def __mul__(self, other):
        """Element times element; a scalar factor goes through `scale`."""
        if isinstance(other, CliffordElem):
            return _elem(_cmul_into({}, self.terms, other.terms))
        return NotImplemented

    def scale(self, c) -> "CliffordElem":
        c = _coerce_scalar(c)
        if c.is_zero():
            return CliffordElem.zero()
        return _of({m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> ScalarExpr:
        return self.terms.get((), ScalarExpr.zero())

    def __eq__(self, other):
        if isinstance(other, CliffordElem):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        from .sexpr import dumps

        return dumps(self)

    # -- calculus ----------------------------------------------------------
    def map_scalars(self, fn) -> "CliffordElem":
        return CliffordElem({m: fn(c) for m, c in self.terms.items()})

    def xi_derivative(self, i: int) -> "CliffordElem":
        return self.map_scalars(lambda c: c.xi_derivative(i))

    def x_derivative(self, j: int) -> "CliffordElem":
        """Spatial derivative at the base point under the boundary collar
        rule: the coefficients follow the jet table, and the tangential
        coframe scales, d_{x_n} c(e_i) = (h'(0)/2) c(e_i) for i < 4, while
        c(e_4) is constant.  Where the frame is constant (interior normal
        coordinates), map ScalarExpr.x_derivative over the coefficients.
        """
        out = self.map_scalars(lambda c: c.x_derivative(j))
        if j != 4:
            return out
        # one (h'(0)/2) n term per blade with n tangential generators
        return out + _of({m: c * half() * HP * n
                          for m, c in self.terms.items()
                          if (n := sum(1 for i in m if i < 4))})


def _cmul_into(t: dict, a: Mapping, b: Mapping) -> dict:
    """Add a * b (two elements' terms) into t, a {blade: {monomial:
    coefficient}} accumulator, and return t: each blade pair's coefficient
    product, with its blade sign, is added in place by left blade, right
    blade, then _product_into's order."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            sign, m = _basis_mul(ma, mb)
            acc = t.setdefault(m, {})
            _product_into(acc, ca.terms, cb.terms, sign)
            if not acc:
                del t[m]
    return t


def _cscalar_into(t: dict, a: Mapping, b: Mapping) -> None:
    """Add only the scalar blade of a * b into t, as _cmul_into does: two
    blades multiply to a scalar only when they are equal."""
    for m, c in a.items():
        if m in b:
            _cmul_into(t, {m: c}, {m: b[m]})


def _of(terms: dict) -> CliffordElem:
    """A CliffordElem over terms that already hold no zero coefficient."""
    out = CliffordElem.__new__(CliffordElem)
    out.terms = terms
    return out


def _elem(t: dict) -> CliffordElem:
    """The element of an accumulator."""
    return _of({m: _wrap(s) for m, s in t.items()})


def spin_trace(a: CliffordElem) -> ScalarExpr:
    """Normalized spinor trace: 4 x (scalar component)."""
    return ScalarExpr.const(TRACE_DIM) * a.scalar_part()
