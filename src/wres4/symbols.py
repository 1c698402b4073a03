"""Boundary symbol calculus in (xi', xi_n) at a fixed boundary point.

Symbols are finite sums of Clifford-valued terms

    off-shell:  P(xi_n) / W**p          with W = |xi|^2 = |xi'|^2 + xi_n^2
    on-shell:   P(xi_n) / ((xi_n - i)**a (xi_n + i)**b)

where P, the numerator, is a {xi_n degree: CliffordElem} dict.  |xi'|^2
has one spelling, XI1^2 + XI2^2 + XI3^2 (`scalars.usq`), and restricting
to |xi'| = 1 only re-keys W**p as (xi_n - i)**p (xi_n + i)**p; on-shell
coefficients are reduced on the sphere when they are compared.  Spatial
behaviour at the base point is encoded by first-order jet rules: the collar
metric scales the tangential coframe, W picks up h'(0)|xi'|^2 under the
normal derivative (this module is that rule's one home), and f contributes
its first and second jets.  Second x-derivatives are rejected; the
computation never needs them.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Mapping

from .clifford import CliffordElem, _cmul_into, _elem
from .errors import (
    NonInvertibleLeadingSymbol,
    ShellViolation,
    UnsupportedOrder,
)
from .scalars import (
    GAUSS_I,
    GAUSS_ONE,
    HP,
    ScalarExpr,
    frac,
    half,
    reduce_sphere,
    usq,
    xi,
)

OFF = "off"
ON = "on"

def _mul_into(c: dict, p: dict, q: dict, kernel) -> dict:
    """Add the numerator product p * q into c, a {degree: accumulator}
    dict, and return c, with kernel(acc, left terms, right terms) adding
    each coefficient product."""
    for d1, e1 in p.items():
        for d2, e2 in q.items():
            acc = c.setdefault(d1 + d2, {})
            kernel(acc, e1.terms, e2.terms)
            if not acc:
                del c[d1 + d2]
    return c


def _xin(c: dict) -> dict:
    """The numerator of a {degree: accumulator} dict."""
    return {d: _elem(t) for d, t in c.items()}


def _scaled(num: dict, s: ScalarExpr) -> dict:
    """The numerator num times the scalar s."""
    return {d: e.scale(s) for d, e in num.items()}


@functools.cache
def _pole_factor(da: int, db: int) -> dict:
    """(xi_n - i)**da (xi_n + i)**db expanded.  Shared: never mutate."""
    coeffs = [GAUSS_ONE]
    for root in [GAUSS_I] * da + [-GAUSS_I] * db:
        # times (xi_n - root)
        coeffs = [(coeffs[n - 1] if n else 0) - root * c
                  for n, c in enumerate(coeffs + [0])]
    return {n: CliffordElem.scalar(c) for n, c in enumerate(coeffs)}


@functools.cache
def _w_power(k: int) -> dict:
    """W**k expanded.  Shared: never mutate."""
    u = usq()
    return {2 * j: CliffordElem.scalar(comb(k, j) * u ** (k - j))
            for j in range(k + 1)}


class BoundarySymbol:
    """Clifford-valued rational symbol in xi_n with derivation context.

    `terms` maps each pole key to its numerator, a {xi_n degree:
    CliffordElem} dict.  The constructor is the one place that drops zero
    coefficients and empty numerators, so the rules that build a symbol
    may leave either behind."""

    __slots__ = ("shell", "terms", "xder")

    def __init__(self, shell: str, terms: Mapping, xder: int = 0):
        if shell not in (OFF, ON):
            raise ValueError("shell must be 'off' or 'on'")
        self.shell = shell
        self.terms = {k: num for k, p in terms.items()
                      if (num := {d: e for d, e in p.items()
                                  if not e.is_zero()})}
        self.xder = xder

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(shell: str = OFF) -> "BoundarySymbol":
        return BoundarySymbol(shell, {})

    @staticmethod
    def from_clifford(elem: CliffordElem) -> "BoundarySymbol":
        return BoundarySymbol(OFF, {0: {0: elem}})

    # -- ring structure ----------------------------------------------------
    def _check_same_shell(self, other: "BoundarySymbol"):
        if self.shell != other.shell:
            raise ShellViolation("mixing off-shell and on-shell symbols")

    def __add__(self, other: "BoundarySymbol") -> "BoundarySymbol":
        self._check_same_shell(other)
        t: dict = {}
        for terms in (self.terms, other.terms):
            for key, num in terms.items():
                _acc(t, key, num)
        return BoundarySymbol(self.shell, t, max(self.xder, other.xder))

    def __neg__(self) -> "BoundarySymbol":
        return BoundarySymbol(self.shell,
                              {k: {d: -e for d, e in p.items()}
                               for k, p in self.terms.items()},
                              self.xder)

    def __sub__(self, other: "BoundarySymbol") -> "BoundarySymbol":
        return self + (-other)

    def products(self, other: "BoundarySymbol", kernel) -> dict:
        """{key: {degree: accumulator}} of self * other, each coefficient
        product added by kernel(acc, left terms, right terms)."""
        self._check_same_shell(other)
        off = self.shell == OFF
        t: dict = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                key = k1 + k2 if off else (k1[0] + k2[0], k1[1] + k2[1])
                _mul_into(t.setdefault(key, {}), p1, p2, kernel)
        return t

    def mul(self, other: "BoundarySymbol") -> "BoundarySymbol":
        t = self.products(other, _cmul_into)
        return BoundarySymbol(self.shell, {k: _xin(c) for k, c in t.items()},
                              self.xder + other.xder)

    def scale(self, s) -> "BoundarySymbol":
        return BoundarySymbol(self.shell,
                              {k: _scaled(p, s)
                               for k, p in self.terms.items()},
                              self.xder)

    # -- canonical form and equality ---------------------------------------
    def canonical(self) -> "BoundarySymbol":
        """Single-term form over the common denominator.

        Off-shell, W powers are expanded in XI1^2+XI2^2+XI3^2, the spelling
        of |xi'|^2 that Clifford squares of c(xi') produce, so the two
        cancel exactly; on-shell, coefficients are reduced on the sphere.
        Each key is multiplied by its cached W-power or pole factor.
        """
        if not self.terms:
            return BoundarySymbol(self.shell, {}, self.xder)
        total: dict = {}
        if self.shell == OFF:
            top = max(self.terms)
            for p, poly in self.terms.items():
                _mul_into(total, poly, _w_power(top - p), _cmul_into)
        else:
            top = tuple(map(max, zip(*self.terms)))
            for (a, b), poly in self.terms.items():
                poly = {d: e.map_scalars(reduce_sphere)
                        for d, e in poly.items()}
                _mul_into(total, poly, _pole_factor(top[0] - a, top[1] - b),
                          _cmul_into)
        return BoundarySymbol(self.shell, {top: _xin(total)}, self.xder)

    def is_zero(self) -> bool:
        return not self.canonical().terms

    def __eq__(self, other):
        if isinstance(other, BoundarySymbol):
            if self.shell != other.shell or self.xder != other.xder:
                return False
            return (self - other).is_zero()
        return NotImplemented

    def __repr__(self):
        from .sexpr import dumps

        return dumps(self)


# -- derivatives -----------------------------------------------------------

def derive(s: BoundarySymbol, x=(), xi=()) -> BoundarySymbol:
    """d_xi^xi d_x^x s: one x-derivative per entry of x, then one
    xi-derivative per entry of xi.

    Each entry is a direction 1..4, with 4 the normal one.  These are the
    first-order jet rules at the base point; every other first derivative
    of a tracked atom vanishes (W along x_i, c(e_i) along x_i, c(e_4)
    along x_n):

        atom             direction   derivative
        W = |xi'|^2      x_n         HP*(XI1^2 + XI2^2 + XI3^2)
            + xi_n^2     xi_i        2*XI_i
                         xi_n        2*xi_n
        c(e_i), i < n    x_n         (HP/2)*c(e_i)
        F                x_j         FI_j
        FI_k             x_j         FIJ_{j,k}

    Only xi_n acts on an on-shell symbol, and a second x-derivative
    raises UnsupportedOrder.  `xder` guards tangential directions too:
    d_1 d_2 of c(xi)/|xi|^2 needs the boundary metric's second jets, which
    no table tracks.  A symbol holding HP, as sigma_0(D) does, raises too.
    """
    if not {*x, *xi} <= {1, 2, 3, 4}:
        raise ValueError(f"directions must be 1..4, not x={x}, xi={xi}")
    if s.shell == ON and (x or set(xi) - {4}):
        raise ShellViolation(
            "x- and xi'-derivatives require an off-shell symbol")
    if s.xder + len(x) > 1:
        raise UnsupportedOrder(
            "second x-derivative exceeds the first-order jet tables")
    for j in x:
        jet, slot = d_x_parts(s, j)
        s = jet + slot
    for i in xi:
        s = _d_xin(s) if i == 4 else _d_xi_tangent(s, i)
    return s


def _acc(t: dict, key, num: dict) -> None:
    """Add the numerator num into t[key] in place.  An empty num adds no
    key, so each key sits where its first contribution put it; a sum that
    cancels keeps its slot until BoundarySymbol drops it."""
    if num:
        into = t.setdefault(key, {})
        for d, e in num.items():
            into[d] = into[d] + e if d in into else e


def _d_xin(s: BoundarySymbol) -> BoundarySymbol:
    t: dict = {}
    for key, poly in s.terms.items():
        d_poly = {d - 1: e.scale(ScalarExpr.const(d))
                  for d, e in poly.items() if d}
        if s.shell == OFF:
            p = key
            _acc(t, p, d_poly)
            if p:
                # d(W^-p) = -p * 2 xi_n / W^(p+1)
                c = ScalarExpr.const(-2 * p)
                _acc(t, p + 1, {d + 1: e.scale(c) for d, e in poly.items()})
        else:
            a, b = key
            _acc(t, (a, b), d_poly)
            if a:
                # d (xi_n - i)^-a = -a (xi_n - i)^-(a+1)
                _acc(t, (a + 1, b), _scaled(poly, ScalarExpr.const(-a)))
            if b:
                _acc(t, (a, b + 1), _scaled(poly, ScalarExpr.const(-b)))
    return BoundarySymbol(s.shell, t, s.xder)


def _d_xi_tangent(s: BoundarySymbol, i: int) -> BoundarySymbol:
    t: dict = {}
    for p, poly in s.terms.items():
        _acc(t, p, {d: e.xi_derivative(i) for d, e in poly.items()})
        if p:
            _acc(t, p + 1, _scaled(poly, ScalarExpr.const(-2 * p) * xi(i)))
    return BoundarySymbol(OFF, t, s.xder)


def d_x_parts(s: BoundarySymbol,
              j: int) -> tuple[BoundarySymbol, BoundarySymbol]:
    """The two halves of d_{x_j} of an off-shell symbol: the numerator-jet
    half and the |xi|^2-slot half, which is zero unless j = 4."""
    jet: dict = {}
    slot: dict = {}
    for p, poly in s.terms.items():
        _acc(jet, p, {d: e.x_derivative(j) for d, e in poly.items()})
        if p and j == 4:
            # d_{x_n} W = h'(0) |xi'|^2
            c = ScalarExpr.const(-p) * HP * usq()
            _acc(slot, p + 1, _scaled(poly, c))
    return (BoundarySymbol(OFF, jet, s.xder + 1),
            BoundarySymbol(OFF, slot, s.xder + 1))


def restrict_on_shell(s: BoundarySymbol) -> BoundarySymbol:
    """Impose |xi'| = 1: W -> (xi_n - i)(xi_n + i), so key p becomes
    (p, p).  Every numerator is kept as it is: on-shell `canonical`
    reduces |xi'|^2 on the sphere, and the sphere moments read it as 1."""
    if s.shell == ON:
        raise ShellViolation("symbol is already on-shell")
    return BoundarySymbol(ON, {(p, p): poly for p, poly in s.terms.items()},
                          s.xder)


# -- operator symbols and the parametrix recursion -------------------------

def c_xi_poly() -> dict:
    """c(xi) = c(xi') + xi_n c(dx_n) as a numerator."""
    return {0: CliffordElem.c_xi_prime(), 1: CliffordElem.c_dxn()}


def jet_mid() -> CliffordElem:
    """sum_j c(dx_j) * 2 d_{x_j}(f^-1), the f-jet middle factor of
    sigma_-2(Dtilde^-1)."""
    return CliffordElem.c_dfinv().scale(ScalarExpr.const(2))


def sigma0_dirac() -> CliffordElem:
    """Zeroth-order symbol of the Dirac operator from the collar connection
    table: the only nonzero connection entries are the +-h'(0)/2 pairs mixing
    each tangential direction with the normal one."""
    out = CliffordElem.zero()
    c4 = CliffordElem.c_dxn()
    for i in (1, 2, 3):
        ci = CliffordElem.gen(i)
        # omega_{n,i}(e_i) = HP/2, omega_{i,n}(e_i) = -HP/2
        out = out + (ci * c4 * ci).scale(half() * HP)
        out = out + (ci * ci * c4).scale(-half() * HP)
    return out.scale(frac(-1, 4))


def sandwich(mid: CliffordElem) -> BoundarySymbol:
    """c(xi) mid c(xi) / |xi|^4 as an off-shell symbol."""
    cxi = BoundarySymbol(OFF, {1: c_xi_poly()})
    return cxi.mul(BoundarySymbol.from_clifford(mid)).mul(cxi)


class Operator:
    """P = scale * D + potential, with sigma_1(P) = scale * i c(xi) and
    sigma_0(P) = scale * sigma_0(D) + potential; Dtilde = (f/2) D + c(df).
    It has no __eq__, so it hashes by identity: each operator is its own
    cache key."""

    __slots__ = ("name", "scale", "potential")

    def __init__(self, name: str, scale, potential: CliffordElem):
        self.name, self.scale, self.potential = name, scale, potential


D = Operator("D", 1, CliffordElem.zero())
DTILDE = Operator("Dtilde", ScalarExpr.var("F") * half(),
                  CliffordElem.c_df())


def build_sigma(op: Operator, order: int) -> BoundarySymbol:
    """sigma_1 or sigma_0 of op, or sigma_-1 or sigma_-2 of its inverse,
    which the parametrix derives from the first two.

    Each (op, order) is built once per process, and sigma_-1 alone never
    forms sigma_-2; the returned symbol is shared between callers, so it
    must not be mutated."""
    return _sigma(op, order)


@functools.cache
def _sigma(op: Operator, order: int, /) -> BoundarySymbol:
    if order == -1:
        return _invert_leading(_sigma(op, 1))
    if order == -2:
        return parametrix(_sigma(op, 1), _sigma(op, 0), r1=_sigma(op, -1))[1]
    if order == 1:
        return BoundarySymbol(
            OFF, {0: _scaled(c_xi_poly(), ScalarExpr.i_unit() * op.scale)})
    if order != 0:
        raise ValueError("order must be one of 1, 0, -1, -2")
    # sigma_0(D) is built on first use, never while the module imports
    return BoundarySymbol.from_clifford(
        sigma0_dirac().scale(op.scale) + op.potential)


def _invert_leading(sigma1: BoundarySymbol) -> BoundarySymbol:
    """Invert a leading symbol whose square is lam * |xi|^2 for a nonzero
    scalar lam, as (scalar) * i c(xi) is."""
    sq = sigma1.mul(sigma1).canonical()
    lam_elem = sq.terms.get(0, {}).get(2)
    lam = ScalarExpr.zero() if lam_elem is None else lam_elem.scalar_part()
    if lam.is_zero() or sq.terms != {0: {
            0: CliffordElem.scalar(lam * usq()),
            2: CliffordElem.scalar(lam)}}:
        raise NonInvertibleLeadingSymbol("square is not scalar * |xi|^2")
    return BoundarySymbol(
        OFF,
        {p + 1: {d: e.map_scalars(lambda c: c / lam) for d, e in q.items()}
         for p, q in sigma1.terms.items()},
        sigma1.xder,
    )


def parametrix(s1: BoundarySymbol, s0: BoundarySymbol, *,
               r1: BoundarySymbol | None = None):
    """(sigma_-1, sigma_-2) of the inverse of an operator with symbols
    s1 + s0 (r1: s1's inverse, if known), by order-by-order inversion of
    the composition identity (Shubin 2001, sec. 5; Gilkey 1995, sec. 1.7)."""
    r1 = _invert_leading(s1) if r1 is None else r1
    # the order -1 coefficient of the composed symbol must vanish:
    # s1*r2 + [s0*r1 + sum_j (-i) d_{xi_j} s1 * d_{x_j} r1] = 0, and r1 is
    # the inverse of s1
    correction = compose_orders({1: s1, 0: s0}, {-1: r1}, -1)
    return r1, -(r1.mul(correction))


def compose_orders(a_parts, b_parts, target: int) -> BoundarySymbol:
    """Order-`target` coefficient of the composed symbol of two operators.

    a_parts, b_parts: dicts order -> off-shell BoundarySymbol.  Uses the
    standard expansion sum_alpha (-i)^|alpha|/alpha! d_xi^alpha a d_x^alpha b,
    truncated at |alpha| <= 1 (all that two negative orders require): the
    |alpha| = 1 terms are derive(a, xi=(j,)) * derive(b, x=(j,)), j = 1..4.
    """
    minus_i = ScalarExpr.const(-GAUSS_I)
    out = BoundarySymbol.zero()
    for oa, sa in a_parts.items():
        for ob, sb in b_parts.items():
            if oa + ob == target:
                out = out + sa.mul(sb)
            if oa + ob - 1 == target:
                for j in range(1, 5):
                    out = out + derive(sa, xi=(j,)).mul(
                        derive(sb, x=(j,))).scale(minus_i)
    return out
