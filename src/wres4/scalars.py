"""Exact scalar coefficient field.

Gaussian rationals (a + b*i with arbitrary-precision rational a, b) and
multivariate rational functions in a fixed alphabet of formal indeterminates.
Denominators are restricted to monomials in F, so every expression has a
unique canonical form and equality is syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    DivisionByZero,
    NonMonomialDenominator,
    UnsupportedOrder,
    ZeroDenominator,
)

# Fixed, totally ordered alphabet.  FIJ names are stored with sorted index
# pairs (the Hessian is symmetric).
NAMES = (
    "HP",
    "F",
    "FI1", "FI2", "FI3", "FI4",
    "FIJ11", "FIJ12", "FIJ13", "FIJ14",
    "FIJ22", "FIJ23", "FIJ24",
    "FIJ33", "FIJ34",
    "FIJ44",
    "S",
    "XI1", "XI2", "XI3",
    "XIN",
    "U",
    "W",
    "OMEGA",
    "PI",
)

_INDEX = {name: k for k, name in enumerate(NAMES)}

IntLike = Union[int, Fraction]


def fij(j: int, k: int) -> str:
    """Canonical Hessian indeterminate name for directions j, k (1-based)."""
    a, b = sorted((j, k))
    return f"FIJ{a}{b}"


def fi(j: int) -> str:
    return f"FI{j}"


class GaussianRational:
    """a + b*i with exact rational a, b; i*i = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re: IntLike = 0, im: IntLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def i() -> "GaussianRational":
        return GaussianRational(0, 1)

    def __add__(self, other):
        other = _coerce_gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce_gauss(other))

    def __rsub__(self, other):
        return _coerce_gauss(other) + (-self)

    def __mul__(self, other):
        other = _coerce_gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise DivisionByZero("division by zero Gaussian rational")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return _coerce_gauss(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce_gauss(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}+{self.im}*i)"


def _coerce_gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


GAUSS_ZERO = GaussianRational(0)
GAUSS_ONE = GaussianRational(1)
GAUSS_I = GaussianRational(0, 1)

# A monomial is a sorted tuple of (variable index, positive exponent).
Monomial = tuple

MONOMIAL_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for idx, e in b:
        d[idx] = d.get(idx, 0) + e
    return tuple(sorted((idx, e) for idx, e in d.items() if e))


def _mono_exp(m: Monomial, idx: int) -> int:
    for j, e in m:
        if j == idx:
            return e
    return 0


def _mono_set(m: Monomial, idx: int, exp: int) -> Monomial:
    rest = [(j, e) for j, e in m if j != idx]
    if exp:
        rest.append((idx, exp))
    return tuple(sorted(rest))


class Poly:
    """Sparse multivariate polynomial over GaussianRational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    t[m] = c
        self.terms = t

    @staticmethod
    def const(c) -> "Poly":
        c = _coerce_gauss(c)
        return Poly({MONOMIAL_ONE: c})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if name not in _INDEX:
            raise KeyError(f"unknown indeterminate {name!r}")
        if exp < 0:
            raise ValueError("negative exponent in Poly.var")
        if exp == 0:
            return Poly.const(1)
        return Poly({((_INDEX[name], exp),): GAUSS_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, GAUSS_ZERO) + c
            if s.is_zero():
                t.pop(m, None)
            else:
                t[m] = s
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = t.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    t.pop(m, None)
                else:
                    t[m] = s
        out = Poly.__new__(Poly)
        out.terms = t
        return out

    def scale(self, c) -> "Poly":
        c = _coerce_gauss(c)
        if c.is_zero():
            return Poly()
        out = Poly.__new__(Poly)
        out.terms = {m: c * v for m, v in self.terms.items()}
        return out

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of Poly")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def min_exp(self, name: str) -> int:
        """Minimum exponent of `name` over all monomials (0 for empty poly)."""
        if not self.terms:
            return 0
        idx = _INDEX[name]
        return min(_mono_exp(m, idx) for m in self.terms)

    def shift_down(self, name: str, k: int) -> "Poly":
        """Divide by name**k; every monomial must be divisible."""
        if k == 0:
            return self
        idx = _INDEX[name]
        t = {}
        for m, c in self.terms.items():
            e = _mono_exp(m, idx)
            if e < k:
                raise ValueError(f"monomial not divisible by {name}^{k}")
            t[_mono_set(m, idx, e - k)] = c
        return Poly(t)

    def derivative(self, name: str) -> "Poly":
        idx = _INDEX[name]
        t: dict = {}
        for m, c in self.terms.items():
            e = _mono_exp(m, idx)
            if e == 0:
                continue
            m2 = _mono_set(m, idx, e - 1)
            s = t.get(m2, GAUSS_ZERO) + c * e
            if s.is_zero():
                t.pop(m2, None)
            else:
                t[m2] = s
        return Poly(t)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Poly<0>"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(
                f"{NAMES[j]}^{e}" if e > 1 else NAMES[j] for j, e in m
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "Poly<" + " + ".join(bits) + ">"


class ScalarExpr:
    """Canonical rational function num / F**fpow.

    The denominator alphabet is restricted to powers of F; all other
    denominator structure (|xi|^2 powers, xi_n pole factors) is owned by the
    boundary-symbol layer.
    """

    __slots__ = ("num", "fpow")

    def __init__(self, num: Poly, fpow: int = 0):
        if fpow < 0:
            raise ValueError("fpow must be nonnegative")
        if num.is_zero():
            self.num = num
            self.fpow = 0
            return
        k = min(num.min_exp("F"), fpow)
        if k:
            num = num.shift_down("F", k)
            fpow -= k
        self.num = num
        self.fpow = fpow

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "ScalarExpr":
        return ScalarExpr(Poly())

    @staticmethod
    def one() -> "ScalarExpr":
        return ScalarExpr(Poly.const(1))

    @staticmethod
    def const(c) -> "ScalarExpr":
        return ScalarExpr(Poly.const(c))

    @staticmethod
    def i_unit() -> "ScalarExpr":
        return ScalarExpr(Poly.const(GAUSS_I))

    @staticmethod
    def var(name: str, exp: int = 1) -> "ScalarExpr":
        return ScalarExpr(Poly.var(name, exp))

    @staticmethod
    def f_inverse(k: int = 1) -> "ScalarExpr":
        return ScalarExpr(Poly.const(1), k)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = _coerce_scalar(other)
        k = max(self.fpow, other.fpow)
        a = self.num * Poly.var("F", k - self.fpow)
        b = other.num * Poly.var("F", k - other.fpow)
        return ScalarExpr(a + b, k)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(-self.num, self.fpow)

    def __sub__(self, other):
        return self + (-_coerce_scalar(other))

    def __rsub__(self, other):
        return _coerce_scalar(other) + (-self)

    def __mul__(self, other):
        other = _coerce_scalar(other)
        return ScalarExpr(self.num * other.num, self.fpow + other.fpow)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other.is_zero():
            raise DivisionByZero("division by zero ScalarExpr")
        if len(other.num.terms) != 1:
            raise NonMonomialDenominator(
                "division only by single-term expressions"
            )
        (mono, coeff), = other.num.terms.items()
        num = self.num.scale(GAUSS_ONE / coeff)
        fpow = self.fpow
        # F part of the divisor monomial moves into the denominator; any
        # other variable must divide the numerator exactly.
        for idx, e in mono:
            name = NAMES[idx]
            if name == "F":
                fpow += e
            else:
                if num.min_exp(name) < e:
                    raise NonMonomialDenominator(
                        f"cannot divide exactly by {name}^{e}"
                    )
                num = num.shift_down(name, e)
        return ScalarExpr(num * Poly.var("F", other.fpow), fpow)

    def __rtruediv__(self, other):
        return _coerce_scalar(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return ScalarExpr.one() / self ** (-k)
        out = ScalarExpr.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, ScalarExpr)):
            other = _coerce_scalar(other)
            return self.fpow == other.fpow and self.num == other.num
        return NotImplemented

    def __hash__(self):
        return hash((self.fpow, self.num))

    def __repr__(self):
        if self.fpow == 0:
            return f"ScalarExpr({self.num!r})"
        return f"ScalarExpr({self.num!r} / F^{self.fpow})"

    # -- calculus ----------------------------------------------------------
    def derivative(self, name: str) -> "ScalarExpr":
        """Formal partial derivative treating every name as independent."""
        d_num = ScalarExpr(self.num.derivative(name), self.fpow)
        if name == "F" and self.fpow:
            d_num = d_num - ScalarExpr(
                self.num.scale(self.fpow), self.fpow + 1
            )
        return d_num

    def x_derivative(self, j: int) -> "ScalarExpr":
        """Spatial derivative at the base point through the jet table.

        F -> FI{j}, FI{k} -> FIJ{j,k}; everything else in the alphabet is
        constant in x.  The F-power denominator follows the quotient rule.
        """
        if j not in (1, 2, 3, 4):
            raise ValueError("direction must be 1..4")
        out = ScalarExpr.zero()
        dF = ScalarExpr.var(fi(j))
        # numerator: term-by-term product rule over jet atoms
        for m, c in self.num.terms.items():
            for idx, e in m:
                name = NAMES[idx]
                if name == "F":
                    datom = dF
                elif name.startswith("FIJ"):
                    raise UnsupportedOrder(
                        "third-order jets of f are not tracked"
                    )
                elif name.startswith("FI"):
                    k = int(name[2:])
                    datom = ScalarExpr.var(fij(j, k))
                elif name == "W":
                    raise UnsupportedOrder(
                        "W must live in the symbol denominator slot"
                    )
                else:
                    continue
                rest = Poly({_mono_set(m, idx, e - 1): c * e})
                out = out + ScalarExpr(rest, self.fpow) * datom
        if self.fpow:
            out = out - ScalarExpr(
                self.num.scale(self.fpow), self.fpow + 1
            ) * dF
        return out

    def xi_derivative(self, i: int) -> "ScalarExpr":
        """Derivative along xi_i.

        Tangential directions (i < 4) see both the explicit XI{i} dependence
        and the chain rule through U = |xi'|^2; direction 4 is d/d xi_n.
        """
        if i == 4:
            return self.derivative("XIN")
        if i not in (1, 2, 3):
            raise ValueError("direction must be 1..4")
        d = self.derivative(f"XI{i}")
        dU = self.derivative("U")
        if not dU.is_zero():
            d = d + ScalarExpr.const(2) * ScalarExpr.var(f"XI{i}") * dU
        return d

    def substitute(self, binding: Mapping[str, "ScalarExpr"]) -> "ScalarExpr":
        """Homomorphic substitution of indeterminates by expressions."""
        bind = {k: _coerce_scalar(v) for k, v in binding.items()}
        if "F" in bind and bind["F"].is_zero():
            raise ZeroDenominator("substitution maps F to zero")
        out = ScalarExpr.zero()
        for m, c in self.num.terms.items():
            term = ScalarExpr.const(c)
            for idx, e in m:
                name = NAMES[idx]
                rep = bind.get(name)
                if rep is None:
                    term = term * ScalarExpr.var(name, e)
                else:
                    term = term * rep ** e
            out = out + term
        if self.fpow:
            den = bind.get("F", ScalarExpr.var("F")) ** self.fpow
            if den.is_zero():
                raise ZeroDenominator("substitution annihilates a denominator")
            out = out / den
        return out

    def free_names(self) -> set:
        ns = set()
        for m in self.num.terms:
            for idx, _ in m:
                ns.add(NAMES[idx])
        if self.fpow:
            ns.add("F")
        return ns


def _coerce_scalar(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return ScalarExpr.const(x)
    raise TypeError(f"cannot coerce {x!r} to ScalarExpr")


# Shorthand constants used across the engine.
HP = ScalarExpr.var("HP")
S_CURV = ScalarExpr.var("S")
OMEGA = ScalarExpr.var("OMEGA")
PI_SYM = ScalarExpr.var("PI")
U_VAR = ScalarExpr.var("U")


def xi(i: int) -> ScalarExpr:
    return ScalarExpr.var(f"XI{i}")


def usq() -> ScalarExpr:
    """|xi'|^2 written out as XI1^2 + XI2^2 + XI3^2."""
    return xi(1) ** 2 + xi(2) ** 2 + xi(3) ** 2


def reduce_sphere(e: ScalarExpr) -> ScalarExpr:
    """Reduce modulo the unit-sphere relation XI1^2 + XI2^2 + XI3^2 = 1 by
    eliminating even powers of XI3.  Valid only for on-shell data."""
    idx3 = _INDEX["XI3"]
    rel = (ScalarExpr.one() - ScalarExpr.var("XI1", 2)
           - ScalarExpr.var("XI2", 2))
    out = ScalarExpr.zero()
    for m, c in e.num.terms.items():
        e3 = _mono_exp(m, idx3)
        q, r = divmod(e3, 2)
        base = ScalarExpr(Poly({_mono_set(m, idx3, r): c}), e.fpow)
        out = out + base * rel ** q
    return out


def half(x=1) -> ScalarExpr:
    return ScalarExpr.const(Fraction(x, 2))


def frac(a: int, b: int) -> ScalarExpr:
    return ScalarExpr.const(Fraction(a, b))
