"""Exact scalar coefficient field.

Gaussian rationals and one scalar class, ScalarExpr.  A Gaussian rational
(p + q*i)/d is stored as three arbitrary-precision Python ints in lowest
terms (d > 0, gcd(p, q, d) == 1), so its arithmetic is integer arithmetic
with one gcd per operation.  A ScalarExpr is a sparse polynomial over the
Gaussian rationals in a fixed alphabet of formal indeterminates, where F
(the conformal factor f) alone may carry a negative exponent.  A scalar is
thus a Laurent polynomial in F, so every expression has a unique canonical
form, equality is syntactic, and powers of 1/f need no quotient rule.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
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
    "U",
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
    """(p + q*i)/d with Python ints p, q, d; i*i = -1.

    The triple is canonical: d > 0 and gcd(p, q, d) == 1, and zero is
    (0, 0, 1), so equal values have equal triples.  Each +, -, * and /
    works on the integers and normalises its result with one gcd, never
    building a Fraction.  `re` and `im` are read-only Fraction views.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re: IntLike = 0, im: IntLike = 0):
        if type(re) is int and type(im) is int:
            self.p, self.q, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        a, b = re.denominator, im.denominator
        # Over the lcm of two reduced denominators no prime divides all
        # three of p, q, d.
        d = a * b // gcd(a, b)
        self.p = re.numerator * (d // a)
        self.q = im.numerator * (d // b)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __add__(self, other):
        return _gadd(self, _coerce_gauss(other))

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return _gadd(self, -_coerce_gauss(other))

    def __rsub__(self, other):
        return _gadd(_coerce_gauss(other), -self)

    def __mul__(self, other):
        return _gmul(self, _coerce_gauss(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_gauss(other)
        p2, q2 = other.p, other.q
        n = p2 * p2 + q2 * q2
        if n == 0:
            raise DivisionByZero("division by zero Gaussian rational")
        # (p1 + q1 i)/d1 * d2 (p2 - q2 i) / (p2^2 + q2^2)
        p1, q1, d2 = self.p, self.q, other.d
        return _reduced(d2 * (p1 * p2 + q1 * q2), d2 * (q1 * p2 - p1 * q2),
                        self.d * n)

    def __rtruediv__(self, other):
        return _coerce_gauss(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GAUSS_ONE / self ** (-k)
        out = GAUSS_ONE
        base = self
        while k:
            if k & 1:
                out = _gmul(out, base)
            base = _gmul(base, base)
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce_gauss(other)
            return (self.p == other.p and self.q == other.q
                    and self.d == other.d)
        return NotImplemented

    def __hash__(self):
        # A real value hashes like the int or Fraction it equals.
        if self.q:
            return hash((self.p, self.q, self.d))
        return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))

    def __complex__(self):
        return complex(self.p / self.d, self.q / self.d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.q == 0:
            return str(self.re)
        if self.p == 0:
            return f"{self.im}*i"
        return f"({self.re}+{self.im}*i)"


_new = object.__new__


def _raw(p: int, q: int, d: int) -> GaussianRational:
    """(p + q*i)/d from a triple that is already canonical."""
    out = _new(GaussianRational)
    out.p = p
    out.q = q
    out.d = d
    return out


def _reduced(p: int, q: int, d: int) -> GaussianRational:
    """(p + q*i)/d for d > 0, normalised by one three-argument gcd."""
    g = gcd(p, q, d)
    if g != 1:
        p //= g
        q //= g
        d //= g
    return _raw(p, q, d)


def _gadd(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    da, db = a.d, b.d
    if da == db:
        return _reduced(a.p + b.p, a.q + b.q, da)
    return _reduced(a.p * db + b.p * da, a.q * db + b.q * da, da * db)


def _gmul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    pa, qa, pb, qb = a.p, a.q, b.p, b.q
    return _reduced(pa * pb - qa * qb, pa * qb + qa * pb, a.d * b.d)


def _coerce_gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


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


class ScalarExpr:
    """Exact coefficient: a sparse polynomial over GaussianRational in which
    F, and only F, may carry a negative exponent (a Laurent polynomial in F).

    `terms` maps each monomial to its nonzero coefficient.  Every other
    denominator (|xi|^2 powers, xi_n pole factors) is owned by the
    boundary-symbol layer.  The printed forms read the derived
    num / F**fpow view, in which num shares no factor of F with F**fpow.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items()
                      if not c.is_zero()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "ScalarExpr":
        return ScalarExpr()

    @staticmethod
    def one() -> "ScalarExpr":
        return ScalarExpr.const(1)

    @staticmethod
    def const(c) -> "ScalarExpr":
        return ScalarExpr({MONOMIAL_ONE: _coerce_gauss(c)})

    @staticmethod
    def i_unit() -> "ScalarExpr":
        return ScalarExpr.const(GAUSS_I)

    @staticmethod
    def var(name: str, exp: int = 1) -> "ScalarExpr":
        if name not in _INDEX:
            raise KeyError(f"unknown indeterminate {name!r}")
        if exp < 0 and name != "F":
            raise ValueError("only F may carry a negative exponent")
        if exp == 0:
            return ScalarExpr.one()
        return _wrap({((_INDEX[name], exp),): GAUSS_ONE})

    @staticmethod
    def f_inverse(k: int = 1) -> "ScalarExpr":
        return ScalarExpr.var("F", -k)

    # -- the num / F**fpow view --------------------------------------------
    @property
    def fpow(self) -> int:
        """Exponent of the F-power denominator."""
        return max(0, -min([e for m in self.terms
                            for idx, e in m if idx == _F_IDX], default=0))

    @property
    def num(self) -> "ScalarExpr":
        """The polynomial numerator self * F**fpow."""
        return self.times_f(self.fpow)

    def times_f(self, k: int) -> "ScalarExpr":
        """self * F**k, by shifting F's exponent in each monomial.  The
        shift is injective, so no two terms merge and they keep their
        order."""
        if not k:
            return self
        f = ((_F_IDX, k),)
        return _wrap({_mono_mul(m, f): c for m, c in self.terms.items()})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        t = dict(self.terms)
        for m, c in _coerce_scalar(other).terms.items():
            s = t.get(m)
            if s is None:
                t[m] = c
                continue
            s = _gadd(s, c)
            if s.is_zero():
                del t[m]
            else:
                t[m] = s
        return _wrap(t)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce_scalar(other))

    def __rsub__(self, other):
        return _coerce_scalar(other) + (-self)

    def __mul__(self, other):
        other = _coerce_scalar(other)
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = _gmul(c1, c2)
                s = t.get(m)
                if s is None:
                    t[m] = c
                    continue
                s = _gadd(s, c)
                if s.is_zero():
                    del t[m]
                else:
                    t[m] = s
        return _wrap(t)

    def __rmul__(self, other):
        # A def, not `__rmul__ = __mul__`: k * a then goes through the
        # class's __mul__, so the call counter that perfbench/tracer.py
        # installs there sees every product.
        return self * other

    def __truediv__(self, other):
        other = _coerce_scalar(other)
        if other.is_zero():
            raise DivisionByZero("division by zero ScalarExpr")
        if len(other.terms) != 1:
            raise NonMonomialDenominator(
                "division only by single-term expressions"
            )
        (mono, coeff), = other.terms.items()
        inverse = tuple((idx, -e) for idx, e in mono)
        q = self * _wrap({inverse: GAUSS_ONE / coeff})
        # Only F may be left with a negative exponent.
        for m in q.terms:
            for idx, e in m:
                if e < 0 and idx != _F_IDX:
                    raise NonMonomialDenominator(
                        f"cannot divide exactly by {NAMES[idx]}"
                    )
        return q

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
            return self.terms == _coerce_scalar(other).terms
        return NotImplemented

    def __repr__(self):
        k = self.fpow
        terms = self.times_f(k).terms
        bits = []
        for m in sorted(terms):
            mono = "*".join(
                f"{NAMES[j]}^{e}" if e != 1 else NAMES[j] for j, e in m
            )
            bits.append(f"{terms[m]}*{mono}" if mono else str(terms[m]))
        body = "Poly<" + (" + ".join(bits) or "0") + ">"
        return f"ScalarExpr({body} / F^{k})" if k else f"ScalarExpr({body})"

    # -- calculus ----------------------------------------------------------
    def derivative(self, name: str) -> "ScalarExpr":
        """Formal partial derivative treating every name as independent."""
        idx = _INDEX[name]
        t: dict = {}
        for m, c in self.terms.items():
            e = _mono_exp(m, idx)
            if e == 0:
                continue
            m2 = _mono_set(m, idx, e - 1)
            c = _reduced(c.p * e, c.q * e, c.d)
            s = t.get(m2)
            if s is None:
                t[m2] = c
                continue
            s = _gadd(s, c)
            if s.is_zero():
                del t[m2]
            else:
                t[m2] = s
        return _wrap(t)

    def x_derivative(self, j: int) -> "ScalarExpr":
        """Spatial derivative at the base point: the chain rule over
        ``derivative`` through the jet table F -> FI{j}, FI{k} -> FIJ{j,k};
        everything else in the alphabet is constant in x.
        """
        if j not in (1, 2, 3, 4):
            raise ValueError("direction must be 1..4")
        out = ScalarExpr.zero()
        # alphabet order: the same sum under any string-hash seed
        for name in sorted(self.free_names(), key=_INDEX.__getitem__):
            if name == "F":
                datom = fi(j)
            elif name.startswith("FIJ"):
                raise UnsupportedOrder(
                    "third-order jets of f are not tracked"
                )
            elif name.startswith("FI"):
                datom = fij(j, int(name[2:]))
            else:
                continue
            out = out + self.derivative(name) * ScalarExpr.var(datom)
        return out

    def xi_derivative(self, i: int) -> "ScalarExpr":
        """Derivative along xi_i, i in 1..3: the explicit XI{i} dependence
        plus the chain rule through U = |xi'|^2.  No scalar holds xi_n;
        the symbol layer keeps it in xi_n degrees and pole keys.
        """
        if i not in (1, 2, 3):
            raise ValueError("direction must be 1..3")
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
        for m, c in self.terms.items():
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
        return {NAMES[idx] for m in self.terms for idx, _ in m}


def _coerce_scalar(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return ScalarExpr.const(x)
    raise TypeError(f"cannot coerce {x!r} to ScalarExpr")


def _wrap(terms: dict) -> "ScalarExpr":
    """A ScalarExpr over terms that already hold no zero coefficient."""
    out = ScalarExpr.__new__(ScalarExpr)
    out.terms = terms
    return out


# perfbench/tracer.py counts products through scalars.Poly.__mul__ and
# BENCHMARK.json names the metric scalars.Poly.mul, so the old class name
# stays bound to the one polynomial class.
Poly = ScalarExpr

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
    out = ScalarExpr.zero()
    for m, c in e.terms.items():
        e3 = _mono_exp(m, idx3)
        q, r = divmod(e3, 2)
        base = ScalarExpr({_mono_set(m, idx3, r): c})
        out = out + base * _xi3_squared_power(q)
    return out


@functools.cache
def _xi3_squared_power(q: int) -> ScalarExpr:
    """(1 - XI1^2 - XI2^2)^q, the value of XI3^(2q) on the unit sphere."""
    rel = (ScalarExpr.one() - ScalarExpr.var("XI1", 2)
           - ScalarExpr.var("XI2", 2))
    return rel ** q


def half(x=1) -> ScalarExpr:
    return ScalarExpr.const(Fraction(x, 2))


def frac(a: int, b: int) -> ScalarExpr:
    return ScalarExpr.const(Fraction(a, b))
