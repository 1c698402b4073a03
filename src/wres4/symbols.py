"""Boundary symbol calculus in (xi', xi_n) at a fixed boundary point.

Symbols are finite sums of Clifford-valued terms

    off-shell:  P(xi_n) / W**p          with W = |xi|^2 = U + xi_n^2
    on-shell:   P(xi_n) / ((xi_n - i)**a (xi_n + i)**b)

where P is a polynomial in xi_n with CliffordElem coefficients.  Spatial
behaviour at the base point is encoded by first-order jet rules: the collar
metric scales the tangential coframe, W picks up h'(0)|xi'|^2 under the
normal derivative, and f contributes its first and second jets.  Second
x-derivatives are rejected; the computation never needs them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .clifford import CliffordElem, cmul
from .errors import (
    NonInvertibleLeadingSymbol,
    ShellViolation,
    UnsupportedOrder,
)
from .scalars import (
    GAUSS_I,
    GaussianRational,
    HP,
    ScalarExpr,
    U_VAR,
    _coerce_scalar,
    half,
    reduce_sphere,
    usq,
    xi,
)

OFF = "off"
ON = "on"

class XinPoly:
    """Polynomial in xi_n with CliffordElem coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, CliffordElem] | None = None):
        c = {}
        if coeffs:
            for d, elem in coeffs.items():
                if not elem.is_zero():
                    c[d] = elem
        self.coeffs = c

    @staticmethod
    def const(elem: CliffordElem) -> "XinPoly":
        return XinPoly({0: elem})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def __add__(self, other: "XinPoly") -> "XinPoly":
        c = dict(self.coeffs)
        for d, elem in other.coeffs.items():
            s = c.get(d)
            s = elem if s is None else s + elem
            if s.is_zero():
                c.pop(d, None)
            else:
                c[d] = s
        out = XinPoly.__new__(XinPoly)
        out.coeffs = c
        return out

    def __neg__(self) -> "XinPoly":
        out = XinPoly.__new__(XinPoly)
        out.coeffs = {d: -e for d, e in self.coeffs.items()}
        return out

    def __sub__(self, other: "XinPoly") -> "XinPoly":
        return self + (-other)

    def mul(self, other: "XinPoly") -> "XinPoly":
        c: dict = {}
        for d1, e1 in self.coeffs.items():
            for d2, e2 in other.coeffs.items():
                p = cmul(e1, e2)
                if p.is_zero():
                    continue
                d = d1 + d2
                s = c.get(d)
                s = p if s is None else s + p
                if s.is_zero():
                    c.pop(d, None)
                else:
                    c[d] = s
        return XinPoly(c)

    def scale(self, s) -> "XinPoly":
        s = _coerce_scalar(s)
        return XinPoly({d: e.scale(s) for d, e in self.coeffs.items()})

    def shift(self, k: int) -> "XinPoly":
        """Multiply by xi_n**k."""
        return XinPoly({d + k: e for d, e in self.coeffs.items()})

    def map_coeffs(self, fn) -> "XinPoly":
        return XinPoly({d: fn(e) for d, e in self.coeffs.items()})

    def d_xin(self) -> "XinPoly":
        return XinPoly({d - 1: e.scale(ScalarExpr.const(d))
                        for d, e in self.coeffs.items() if d})

    def mul_w(self, k: int) -> "XinPoly":
        """Multiply by W**k = (XI1^2 + XI2^2 + XI3^2 + xi_n^2)**k."""
        u = usq()
        out = self
        for _ in range(k):
            out = out.scale(u) + out.shift(2)
        return out

    def mul_shell(self, da: int, db: int) -> "XinPoly":
        """Multiply by (xi_n - i)**da (xi_n + i)**db."""
        out = self
        for _ in range(da):
            out = out.shift(1) + out.scale(ScalarExpr.const(-GAUSS_I))
        for _ in range(db):
            out = out.shift(1) + out.scale(ScalarExpr.const(GAUSS_I))
        return out

    def eval_at(self, z: GaussianRational) -> CliffordElem:
        out = CliffordElem.zero()
        for d, e in self.coeffs.items():
            out = out + e.scale(ScalarExpr.const(z ** d))
        return out

    def __eq__(self, other):
        if isinstance(other, XinPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"XinPoly({self.coeffs!r})"


class BoundarySymbol:
    """Clifford-valued rational symbol in xi_n with derivation context."""

    __slots__ = ("shell", "terms", "xder")

    def __init__(self, shell: str, terms: Mapping, xder: int = 0):
        if shell not in (OFF, ON):
            raise ValueError("shell must be 'off' or 'on'")
        t = {}
        for key, poly in terms.items():
            if not poly.is_zero():
                t[key] = poly
        self.shell = shell
        self.terms = t
        self.xder = xder

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(shell: str = OFF) -> "BoundarySymbol":
        return BoundarySymbol(shell, {})

    @staticmethod
    def from_clifford(elem: CliffordElem, wpow: int = 0) -> "BoundarySymbol":
        return BoundarySymbol(OFF, {wpow: XinPoly.const(elem)})

    @staticmethod
    def from_poly(poly: XinPoly, wpow: int = 0) -> "BoundarySymbol":
        return BoundarySymbol(OFF, {wpow: poly})

    @staticmethod
    def on_shell_term(poly: XinPoly, a: int, b: int,
                      xder: int = 0) -> "BoundarySymbol":
        return BoundarySymbol(ON, {(a, b): poly}, xder)

    # -- ring structure ----------------------------------------------------
    def _check_same_shell(self, other: "BoundarySymbol"):
        if self.shell != other.shell:
            raise ShellViolation("mixing off-shell and on-shell symbols")

    def __add__(self, other: "BoundarySymbol") -> "BoundarySymbol":
        self._check_same_shell(other)
        t = dict(self.terms)
        for key, poly in other.terms.items():
            s = t.get(key)
            s = poly if s is None else s + poly
            if s.is_zero():
                t.pop(key, None)
            else:
                t[key] = s
        return BoundarySymbol(self.shell, t, max(self.xder, other.xder))

    def __neg__(self) -> "BoundarySymbol":
        return BoundarySymbol(self.shell,
                              {k: -p for k, p in self.terms.items()},
                              self.xder)

    def __sub__(self, other: "BoundarySymbol") -> "BoundarySymbol":
        return self + (-other)

    def mul(self, other: "BoundarySymbol") -> "BoundarySymbol":
        self._check_same_shell(other)
        t: dict = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                if self.shell == OFF:
                    key = k1 + k2
                else:
                    key = (k1[0] + k2[0], k1[1] + k2[1])
                prod = p1.mul(p2)
                s = t.get(key)
                s = prod if s is None else s + prod
                t[key] = s
        return BoundarySymbol(self.shell, t, self.xder + other.xder)

    def scale(self, s) -> "BoundarySymbol":
        s = _coerce_scalar(s)
        return BoundarySymbol(self.shell,
                              {k: p.scale(s) for k, p in self.terms.items()},
                              self.xder)

    # -- canonical form and equality ---------------------------------------
    def canonical(self) -> "BoundarySymbol":
        """Single-term form over the common denominator.

        Off-shell, the opaque U is expanded to XI1^2+XI2^2+XI3^2 so that
        Clifford squares of c(xi') cancel exactly against W powers.
        """
        if not self.terms:
            return BoundarySymbol(self.shell, {}, self.xder)
        if self.shell == OFF:
            expand = {"U": usq()}
            pmax = max(self.terms)
            total = XinPoly()
            for p, poly in self.terms.items():
                poly = poly.map_coeffs(lambda e: e.substitute(expand))
                total = total + poly.mul_w(pmax - p)
            return BoundarySymbol(OFF, {pmax: total}, self.xder)
        amax = max(a for a, _ in self.terms)
        bmax = max(b for _, b in self.terms)
        total = XinPoly()
        for (a, b), poly in self.terms.items():
            poly = poly.map_coeffs(
                lambda e: e.map_scalars(reduce_sphere))
            total = total + poly.mul_shell(amax - a, bmax - b)
        return BoundarySymbol(ON, {(amax, bmax): total}, self.xder)

    def is_zero(self) -> bool:
        return not self.canonical().terms

    def __eq__(self, other):
        if isinstance(other, BoundarySymbol):
            if self.shell != other.shell:
                return False
            return (self - other).is_zero()
        return NotImplemented

    def __repr__(self):
        return f"BoundarySymbol({self.shell!r}, {self.terms!r})"


# -- derivatives -----------------------------------------------------------

_TANGENT_X = ("x_1", "x_2", "x_3")
_TANGENT_XI = ("xi_1", "xi_2", "xi_3")


def derive(s: BoundarySymbol, direction: str, order: int = 1) -> BoundarySymbol:
    """Apply d^order along one direction.

    Directions: x_1..x_3 tangential, x_n normal, xi_1..xi_3 tangential
    cotangent, xi_n normal cotangent.  These are the first-order jet rules
    at the base point; every other first derivative of a tracked atom
    vanishes (W and U along x_i, U along x_n, c(e_i) along x_i, c(e_4)
    along x_n):

        atom             direction   derivative
        W = U + xi_n^2   x_n         HP*U
                         xi_i        2*XI_i
                         xi_n        2*XIN
        U                xi_i        2*XI_i
        c(e_i), i < n    x_n         (HP/2)*c(e_i)
        F                x_j         FI_j
        FI_k             x_j         FIJ_{j,k}

    A second x-derivative raises UnsupportedOrder.
    """
    out = s
    for _ in range(order):
        out = _derive_once(out, direction)
    return out


def _derive_once(s: BoundarySymbol, direction: str) -> BoundarySymbol:
    if direction == "xi_n":
        return _d_xin(s)
    if s.shell == ON:
        raise ShellViolation(
            f"{direction}-derivative requires an off-shell symbol"
        )
    if direction in _TANGENT_XI:
        return _d_xi_tangent(s, int(direction[-1]))
    if direction in _TANGENT_X or direction == "x_n":
        if s.xder >= 1:
            raise UnsupportedOrder(
                "second x-derivative exceeds the first-order jet tables"
            )
        j = 4 if direction == "x_n" else int(direction[-1])
        return _d_x(s, j)
    raise ValueError(f"unknown direction {direction!r}")


def _acc(t: dict, key, poly: XinPoly) -> None:
    """Add poly to t[key], skipping zero contributions."""
    if poly.is_zero():
        return
    cur = t.get(key)
    t[key] = poly if cur is None else cur + poly


def _d_xin(s: BoundarySymbol) -> BoundarySymbol:
    t: dict = {}
    for key, poly in s.terms.items():
        if s.shell == OFF:
            p = key
            _acc(t, p, poly.d_xin())
            if p:
                # d(W^-p) = -p * 2 xi_n / W^(p+1)
                _acc(t, p + 1, poly.shift(1).scale(ScalarExpr.const(-2 * p)))
        else:
            a, b = key
            _acc(t, (a, b), poly.d_xin())
            if a:
                # d (xi_n - i)^-a = -a (xi_n - i)^-(a+1)
                _acc(t, (a + 1, b), poly.scale(ScalarExpr.const(-a)))
            if b:
                _acc(t, (a, b + 1), poly.scale(ScalarExpr.const(-b)))
    return BoundarySymbol(s.shell, t, s.xder)


def _d_xi_tangent(s: BoundarySymbol, i: int) -> BoundarySymbol:
    t: dict = {}
    for p, poly in s.terms.items():
        _acc(t, p, poly.map_coeffs(lambda e: e.xi_derivative(i)))
        if p:
            _acc(t, p + 1, poly.scale(ScalarExpr.const(-2 * p) * xi(i)))
    return BoundarySymbol(OFF, t, s.xder)


def _d_x(s: BoundarySymbol, j: int) -> BoundarySymbol:
    t: dict = {}
    for p, poly in s.terms.items():
        _acc(t, p, poly.map_coeffs(lambda e: e.x_derivative(j)))
        if p and j == 4:
            # d_{x_n} W = HP * U
            _acc(t, p + 1, poly.scale(ScalarExpr.const(-p) * HP * U_VAR))
    return BoundarySymbol(OFF, t, s.xder + 1)


def restrict_on_shell(s: BoundarySymbol) -> BoundarySymbol:
    """Impose |xi'| = 1: U -> 1 and W -> (xi_n - i)(xi_n + i)."""
    if s.shell == ON:
        raise ShellViolation("symbol is already on-shell")
    binding = {"U": ScalarExpr.one()}
    return BoundarySymbol(
        ON,
        {(p, p): poly.map_coeffs(lambda e: e.substitute(binding))
         for p, poly in s.terms.items()},
        s.xder,
    )


# -- closed-form symbols and the parametrix recursion ----------------------

def c_xi_poly() -> XinPoly:
    """c(xi) = c(xi') + xi_n c(dx_n) as a XinPoly."""
    return XinPoly({0: CliffordElem.c_xi_prime(), 1: CliffordElem.c_dxn()})


def jet_mid() -> CliffordElem:
    """sum_j c(dx_j) * 2 d_{x_j}(f^-1), the f-jet middle factor of
    sigma_-2(Dtilde^-1)."""
    out = CliffordElem.zero()
    for j in range(1, 5):
        dj = ScalarExpr.f_inverse().x_derivative(j)
        out = out + CliffordElem.gen(j).scale(ScalarExpr.const(2) * dj)
    return out


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
    return out.scale(ScalarExpr.const(Fraction(-1, 4)))


def build_sigma(op: str, order: int) -> BoundarySymbol:
    """Closed-form symbols of D, Dtilde and their inverses."""
    if op not in ("D", "Dtilde"):
        raise ValueError("op must be 'D' or 'Dtilde'")
    i_unit = ScalarExpr.i_unit()
    if order == 1:
        lead = BoundarySymbol.from_poly(c_xi_poly().scale(i_unit))
        if op == "Dtilde":
            lead = lead.scale(ScalarExpr.var("F") * half())
        return lead
    if order == 0:
        s0 = BoundarySymbol.from_clifford(sigma0_dirac())
        if op == "Dtilde":
            s0 = s0.scale(ScalarExpr.var("F") * half())
            s0 = s0 + BoundarySymbol.from_clifford(CliffordElem.c_df())
        return s0
    if order == -1:
        s = BoundarySymbol.from_poly(c_xi_poly().scale(i_unit), wpow=1)
        if op == "Dtilde":
            s = s.scale(ScalarExpr.const(2) * ScalarExpr.f_inverse())
        return s
    if order == -2:
        return _sigma_minus2_closed(op)
    raise ValueError("order must be one of 1, 0, -1, -2")


def _sigma_minus2_closed(op: str) -> BoundarySymbol:
    cxi = BoundarySymbol.from_poly(c_xi_poly())
    if op == "D":
        s0 = build_sigma("D", 0)
        first = _shift_w(cxi.mul(s0).mul(cxi), 2)
        second = BoundarySymbol.zero()
        for j in range(1, 5):
            dname = "x_n" if j == 4 else f"x_{j}"
            dcxi = derive(cxi, dname)          # d_{x_j} c(xi)
            dw = _dx_w(j)                      # d_{x_j} |xi|^2 as scalar
            cj = BoundarySymbol.from_clifford(CliffordElem.gen(j))
            # c(xi) c(dx_j) [d_{x_j}c(xi) |xi|^2 - c(xi) d_{x_j}|xi|^2] / W^3
            second = second + _shift_w(cxi.mul(cj).mul(dcxi), 2)
            if not dw.is_zero():
                second = second - _shift_w(
                    cxi.mul(cj).mul(cxi).scale(dw), 3
                )
        out = first + second
        return BoundarySymbol(OFF, out.terms, xder=1)
    # Dtilde: 2/f * sigma_-2(D^-1) + 4/f^2 c(xi)c(df)c(xi)/W^2
    #         + c(xi) sum_j c(dx_j) 2 d_j(f^-1) c(xi) / W^2
    two_over_f = ScalarExpr.const(2) * ScalarExpr.f_inverse()
    out = _sigma_minus2_closed("D").scale(two_over_f)
    cdf = BoundarySymbol.from_clifford(CliffordElem.c_df())
    out = out + _shift_w(cxi.mul(cdf).mul(cxi), 2).scale(
        ScalarExpr.const(4) * ScalarExpr.f_inverse(2)
    )
    mid = BoundarySymbol.from_clifford(jet_mid())
    out = out + _shift_w(cxi.mul(mid).mul(cxi), 2)
    return BoundarySymbol(OFF, out.terms, xder=1)


def _shift_w(s: BoundarySymbol, k: int) -> BoundarySymbol:
    """Divide a symbol by W**k (raise every denominator power by k)."""
    return BoundarySymbol(s.shell,
                          {p + k: poly for p, poly in s.terms.items()},
                          s.xder)


def _dx_w(j: int) -> ScalarExpr:
    """d_{x_j} |xi|^2 at the base point."""
    if j == 4:
        return HP * U_VAR
    return ScalarExpr.zero()


def _invert_leading(sigma1: BoundarySymbol) -> BoundarySymbol:
    """Invert a leading symbol of the form (scalar) * i c(xi)."""
    sq = sigma1.mul(sigma1).canonical()
    if sq.is_zero():
        raise NonInvertibleLeadingSymbol("leading symbol squares to zero")
    ((wpow, poly),) = sq.terms.items()
    if wpow != 0:
        raise NonInvertibleLeadingSymbol("unexpected denominator in square")
    # expect lambda * (U + xi_n^2) with scalar lambda
    lam_elem = poly.coeffs.get(2)
    if lam_elem is None or set(lam_elem.terms) != {()}:
        raise NonInvertibleLeadingSymbol("square is not scalar * |xi|^2")
    lam = lam_elem.scalar_part()
    expected = XinPoly({0: CliffordElem.scalar(lam * usq()),
                        2: CliffordElem.scalar(lam)})
    if XinPoly(poly.coeffs) != expected:
        raise NonInvertibleLeadingSymbol("square is not scalar * |xi|^2")
    inv = BoundarySymbol(
        OFF,
        {p + 1: q.map_coeffs(lambda e: e.map_scalars(lambda c: c / lam))
         for p, q in sigma1.terms.items()},
        sigma1.xder,
    )
    return inv


def parametrix(op: str):
    """Order-by-order inversion of the symbol expansion.

    Returns (sigma_-1, sigma_-2) of op**-1 obtained from the composition
    identity; must agree with the closed forms of build_sigma.
    """
    s1 = build_sigma(op, 1)
    s0 = build_sigma(op, 0)
    r1 = _invert_leading(s1)
    # the order -1 coefficient of the composed symbol must vanish:
    # s1*r2 + [s0*r1 + sum_j (-i) d_{xi_j} s1 * d_{x_j} r1] = 0, and r1 is
    # the inverse of s1
    correction = compose_orders({1: s1, 0: s0}, {-1: r1}, -1)
    return r1, -(r1.mul(correction))


def compose_orders(a_parts, b_parts, target: int) -> BoundarySymbol:
    """Order-`target` coefficient of the composed symbol of two operators.

    a_parts, b_parts: dicts order -> off-shell BoundarySymbol.  Uses the
    standard expansion sum_alpha (-i)^|alpha|/alpha! d_xi^alpha a d_x^alpha b,
    truncated at |alpha| <= 1 (all that two negative orders require).
    """
    minus_i = ScalarExpr.const(-GAUSS_I)
    out = BoundarySymbol.zero()
    for oa, sa in a_parts.items():
        for ob, sb in b_parts.items():
            if oa + ob == target:
                out = out + sa.mul(sb)
            if oa + ob - 1 == target:
                for j in range(1, 5):
                    xi_dir = "xi_n" if j == 4 else f"xi_{j}"
                    x_dir = "x_n" if j == 4 else f"x_{j}"
                    out = out + derive(sa, xi_dir).mul(
                        derive(sb, x_dir)
                    ).scale(minus_i)
    return out
