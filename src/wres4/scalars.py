"""Exact scalar coefficient field.

Gaussian rationals (a + b*i with arbitrary-precision rational a, b) and
sparse polynomials in a fixed alphabet of formal indeterminates, where F
(the conformal factor f) alone may carry a negative exponent.  A scalar is
one such Laurent polynomial in F, so every expression has a unique
canonical form, equality is syntactic, and powers of 1/f need no quotient
rule.
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
_F_IDX = _INDEX["F"]

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

# A monomial is a sorted tuple of (variable index, nonzero exponent); only
# F's exponent may be negative.
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
        if exp < 0 and name != "F":
            raise ValueError("only F may carry a negative exponent")
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
                f"{NAMES[j]}^{e}" if e != 1 else NAMES[j] for j, e in m
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "Poly<" + " + ".join(bits) + ">"


class ScalarExpr:
    """Exact coefficient: a Poly in which F, and only F, may carry a
    negative exponent (a Laurent polynomial in F).

    Every other denominator (|xi|^2 powers, xi_n pole factors) is owned by
    the boundary-symbol layer.  The printed forms read the derived
    num / F**fpow view, in which num shares no factor of F with F**fpow.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: Poly):
        self.poly = poly

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
        return ScalarExpr(Poly.var("F", -k))

    # -- the num / F**fpow view --------------------------------------------
    @property
    def fpow(self) -> int:
        """Exponent of the F-power denominator."""
        return max(0, -min([e for m in self.poly.terms
                            for idx, e in m if idx == _F_IDX], default=0))

    @property
    def num(self) -> Poly:
        """The polynomial numerator self * F**fpow."""
        return self.poly * Poly.var("F", self.fpow)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.poly.is_zero()

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        return ScalarExpr(self.poly + _coerce_scalar(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(-self.poly)

    def __sub__(self, other):
        return self + (-_coerce_scalar(other))

    def __rsub__(self, other):
        return _coerce_scalar(other) + (-self)

    def __mul__(self, other):
        return ScalarExpr(self.poly * _coerce_scalar(other).poly)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other.is_zero():
            raise DivisionByZero("division by zero ScalarExpr")
        if len(other.poly.terms) != 1:
            raise NonMonomialDenominator(
                "division only by single-term expressions"
            )
        (mono, coeff), = other.poly.terms.items()
        inverse = tuple((idx, -e) for idx, e in mono)
        q = self.poly * Poly({inverse: GAUSS_ONE / coeff})
        # Only F may be left with a negative exponent.
        for m in q.terms:
            for idx, e in m:
                if e < 0 and idx != _F_IDX:
                    raise NonMonomialDenominator(
                        f"cannot divide exactly by {NAMES[idx]}"
                    )
        return ScalarExpr(q)

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
            return self.poly == other.poly
        return NotImplemented

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        k = self.fpow
        if k == 0:
            return f"ScalarExpr({self.poly!r})"
        return f"ScalarExpr({self.num!r} / F^{k})"

    # -- calculus ----------------------------------------------------------
    def derivative(self, name: str) -> "ScalarExpr":
        """Formal partial derivative treating every name as independent."""
        return ScalarExpr(self.poly.derivative(name))

    def x_derivative(self, j: int) -> "ScalarExpr":
        """Spatial derivative at the base point through the jet table.

        F -> FI{j}, FI{k} -> FIJ{j,k}; everything else in the alphabet is
        constant in x.  Negative powers of F follow the same power rule.
        """
        if j not in (1, 2, 3, 4):
            raise ValueError("direction must be 1..4")
        out = ScalarExpr.zero()
        # term-by-term product rule over jet atoms
        for m, c in self.poly.terms.items():
            for idx, e in m:
                name = NAMES[idx]
                if name == "F":
                    datom = ScalarExpr.var(fi(j))
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
                out = out + ScalarExpr(rest) * datom
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
        for m, c in self.poly.terms.items():
            term = ScalarExpr.const(c)
            for idx, e in m:
                name = NAMES[idx]
                rep = bind.get(name)
                if rep is None:
                    term = term * ScalarExpr.var(name, e)
                else:
                    term = term * rep ** e
            out = out + term
        return out

    def free_names(self) -> set:
        return {NAMES[idx] for m in self.poly.terms for idx, _ in m}


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
    for m, c in e.poly.terms.items():
        e3 = _mono_exp(m, idx3)
        q, r = divmod(e3, 2)
        base = ScalarExpr(Poly({_mono_set(m, idx3, r): c}))
        out = out + base * rel ** q
    return out


def half(x=1) -> ScalarExpr:
    return ScalarExpr.const(Fraction(x, 2))


def frac(a: int, b: int) -> ScalarExpr:
    return ScalarExpr.const(Fraction(a, b))
