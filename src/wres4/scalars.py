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
from math import gcd
from typing import Mapping

from .errors import DivisionByZero, NonMonomialDenominator, UnsupportedOrder

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
    "OMEGA",
    "PI",
)

_INDEX = {name: k for k, name in enumerate(NAMES)}
_F_IDX = _INDEX["F"]
_XI_IDX = tuple(_INDEX[f"XI{i}"] for i in (1, 2, 3))


def fij(j: int, k: int) -> str:
    """Canonical Hessian indeterminate name for directions j, k (1-based)."""
    a, b = sorted((j, k))
    return f"FIJ{a}{b}"


def fi(j: int) -> str:
    return f"FI{j}"


# The jet table: each index of a name that varies in x maps to the indices
# of its d_{x_j}, j = 1..4 (F -> FI{j}, FI{k} -> FIJ{j,k}); a Hessian
# index maps to None, since third-order jets of f are not tracked.
_JET = {_F_IDX: tuple(_INDEX[fi(j)] for j in range(1, 5)),
        **{_INDEX[fi(k)]: tuple(_INDEX[fij(j, k)] for j in range(1, 5))
           for k in range(1, 5)},
        **{k: None for k, name in enumerate(NAMES) if name.startswith("FIJ")}}


class GaussianRational:
    """(p + q*i)/d with Python ints p, q, d; i*i = -1.

    The triple is canonical: d > 0 and gcd(p, q, d) == 1, and zero is
    (0, 0, 1), so equal values have equal triples.  Each +, -, * and /
    works on the integers and normalises its result with one gcd, never
    building a Fraction.  The parts may be ints or any rationals with
    `numerator` and `denominator` (a Fraction among them), never floats.
    `fractions` is imported only where one is built.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.p, self.q, self.d = re, im, 1
            return
        if not (hasattr(re, "denominator") and hasattr(im, "denominator")):
            raise TypeError(f"not a Gaussian rational: {re!r}, {im!r}")
        a, b = re.denominator, im.denominator
        g = _reduced(re.numerator * b, im.numerator * a, a * b)
        self.p, self.q, self.d = g.p, g.q, g.d

    def __add__(self, other):
        return _gadd(self, _coerce_gauss(other))

    __radd__ = __add__

    def __neg__(self):
        out = _new(GaussianRational)  # still canonical: no gcd
        out.p, out.q, out.d = -self.p, -self.q, self.d
        return out

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
        return _power(self, k, GAUSS_ONE)

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __eq__(self, other):
        if _exact(other):
            other = _coerce_gauss(other)
            return (self.p == other.p and self.q == other.q
                    and self.d == other.d)
        return NotImplemented

    def __hash__(self):
        # A real value hashes like the int or Fraction it equals.
        if self.q:
            return hash((self.p, self.q, self.d))
        if self.d == 1:
            return hash(self.p)
        from fractions import Fraction

        return hash(Fraction(self.p, self.d))

    def __complex__(self):
        return complex(self.p / self.d, self.q / self.d)

    def __float__(self):
        if self.q:
            raise TypeError(f"{self} is not real")
        return self.p / self.d

    def __repr__(self):
        from .sexpr import dumps

        return dumps(ScalarExpr.const(self))


_new = object.__new__


def _power(x, k: int, one):
    """x ** k for either scalar class, by square-and-multiply from `one`;
    a negative k is one / x ** -k."""
    if k < 0:
        return one / _power(x, -k, one)
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _exact(x) -> bool:
    """Whether x is a GaussianRational or an int, Fraction or other
    rational with `numerator` and `denominator`; a float is not."""
    return isinstance(x, GaussianRational) or hasattr(x, "denominator")


def rational(n: int, d: int = 1) -> GaussianRational:
    """The real Gaussian rational n/d, in lowest terms."""
    if not d:
        raise DivisionByZero("zero denominator")
    return _reduced(-n, 0, -d) if d < 0 else _reduced(n, 0, d)


def _reduced(p: int, q: int, d: int) -> GaussianRational:
    """(p + q*i)/d for d > 0, normalised by one three-argument gcd (none
    when d == 1)."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    out = _new(GaussianRational)
    out.p, out.q, out.d = p, q, d
    return out


def _gadd(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    da, db = a.d, b.d
    return _reduced(a.p * db + b.p * da, a.q * db + b.q * da, da * db)


def _gmul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    pa, qa, pb, qb = a.p, a.q, b.p, b.q
    return _reduced(pa * pb - qa * qb, pa * qb + qa * pb, a.d * b.d)


def _coerce_gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if _exact(x):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


GAUSS_ONE = GaussianRational(1)
GAUSS_I = GaussianRational(0, 1)

# A monomial is a sorted tuple of (variable index, nonzero exponent); only
# F's exponent may be negative.
Monomial = tuple

MONOMIAL_ONE: Monomial = ()


@functools.cache
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
    boundary-symbol layer.  The printed form (`sexpr.dumps`) reads the
    derived num / F**fpow view, in which num shares no factor of F with
    F**fpow.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        self.terms = {m: g for m, c in (terms or {}).items()
                      if not (g := _coerce_gauss(c)).is_zero()}

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
            _acc(t, m, c)
        return _wrap(t)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce_scalar(other))

    def __mul__(self, other):
        return _wrap(_product_into({}, self.terms,
                                   _coerce_scalar(other).terms))

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

    def __pow__(self, k: int):
        return _power(self, k, ScalarExpr.one())

    def __eq__(self, other):
        if isinstance(other, ScalarExpr) or _exact(other):
            return self.terms == _coerce_scalar(other).terms
        return NotImplemented

    def __repr__(self):
        from .sexpr import dumps

        return dumps(self)

    # -- calculus ----------------------------------------------------------
    def derivative(self, name: str) -> "ScalarExpr":
        """Formal partial derivative treating every name as independent."""
        return _derivative(self, _INDEX[name])

    def x_derivative(self, j: int) -> "ScalarExpr":
        """Spatial derivative at the base point: the chain rule over the
        formal derivatives through the jet table `_JET`; every name not in
        it is constant in x.
        """
        if j not in (1, 2, 3, 4):
            raise ValueError("direction must be 1..4")
        t: dict = {}
        # alphabet order: the same sum under any string-hash seed
        for idx in sorted({idx for m in self.terms for idx, _ in m
                           if idx in _JET}):
            if _JET[idx] is None:
                raise UnsupportedOrder("third-order jets of f are not tracked")
            _product_into(t, _derivative(self, idx).terms,
                          {((_JET[idx][j - 1], 1),): GAUSS_ONE})
        return _wrap(t)

    def xi_derivative(self, i: int) -> "ScalarExpr":
        """Derivative along xi_i, i in 1..3.  |xi'|^2 is always spelled
        out in XI1, XI2, XI3, and no scalar holds xi_n (the symbol layer
        keeps it in xi_n degrees and pole keys), so this is d/dXI{i}.
        """
        if i not in (1, 2, 3):
            raise ValueError("direction must be 1..3")
        return _derivative(self, _XI_IDX[i - 1])


def _derivative(e: ScalarExpr, idx: int) -> ScalarExpr:
    """d/d(NAMES[idx]) of e, treating every name as independent."""
    t: dict = {}
    for m, c in e.terms.items():
        k = _mono_exp(m, idx)
        if k:
            _acc(t, _mono_set(m, idx, k - 1), _reduced(c.p * k, c.q * k, c.d))
    return _wrap(t)


def _coerce_scalar(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if _exact(x):
        return ScalarExpr.const(x)
    raise TypeError(f"cannot coerce {x!r} to ScalarExpr")


def _wrap(terms: dict) -> "ScalarExpr":
    """A ScalarExpr over terms that already hold no zero coefficient."""
    out = ScalarExpr.__new__(ScalarExpr)
    out.terms = terms
    return out


def _acc(t: dict, m: Monomial, c: GaussianRational) -> None:
    """Add c to t[m] in place; a sum of zero drops the entry."""
    s = t.get(m)
    if s is None:
        t[m] = c
        return
    s = _gadd(s, c)
    if s.p or s.q:
        t[m] = s
    else:
        del t[m]


def _product_into(t: dict, a: Mapping, b: Mapping, sign: int = 1) -> dict:
    """Add sign * a * b into t, all three {monomial: GaussianRational} term
    sets, and return t.  Products are added in the order of a's terms,
    then b's, with _acc's key order: a zero sum drops its monomial and a
    new one is appended.  Each costs one _reduced on the integer triples."""
    right = [(m2, sign * c2.p, sign * c2.q, c2.d) for m2, c2 in b.items()]
    for m1, c1 in a.items():
        p1, q1, d1 = c1.p, c1.q, c1.d
        for m2, p2, q2, d2 in right:
            m = _mono_mul(m1, m2)
            p, q, d = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2
            s = t.get(m)
            if s is not None:
                p, q, d = p * s.d + s.p * d, q * s.d + s.q * d, d * s.d
                if not (p or q):
                    del t[m]
                    continue
            t[m] = _reduced(p, q, d)
    return t


# perfbench/tracer.py counts products through scalars.Poly.__mul__ and
# BENCHMARK.json names the metric scalars.Poly.mul, so the old class name
# stays bound to the one polynomial class.
Poly = ScalarExpr

# Shorthand constants used across the engine.
HP = ScalarExpr.var("HP")
S_CURV = ScalarExpr.var("S")
OMEGA = ScalarExpr.var("OMEGA")
PI_SYM = ScalarExpr.var("PI")


def xi(i: int) -> ScalarExpr:
    return ScalarExpr.var(f"XI{i}")


def usq() -> ScalarExpr:
    """|xi'|^2 written out as XI1^2 + XI2^2 + XI3^2, its one spelling: the
    alphabet has no name for it."""
    return xi(1) ** 2 + xi(2) ** 2 + xi(3) ** 2


def reduce_sphere(e: ScalarExpr) -> ScalarExpr:
    """Reduce modulo the unit-sphere relation XI1^2 + XI2^2 + XI3^2 = 1 by
    eliminating even powers of XI3.  Valid only for on-shell data."""
    t: dict = {}
    for m, c in e.terms.items():
        q, r = divmod(_mono_exp(m, _XI_IDX[2]), 2)
        if not q:
            _acc(t, m, c)
            continue
        _product_into(t, {_mono_set(m, _XI_IDX[2], r): c},
                      _xi3_squared_power(q).terms)
    return _wrap(t)


@functools.cache
def _xi3_squared_power(q: int) -> ScalarExpr:
    """(1 - XI1^2 - XI2^2)^q, the value of XI3^(2q) on the unit sphere."""
    rel = (ScalarExpr.one() - ScalarExpr.var("XI1", 2)
           - ScalarExpr.var("XI2", 2))
    return rel ** q


def half(x: int = 1) -> ScalarExpr:
    return frac(x, 2)


def frac(a: int, b: int) -> ScalarExpr:
    return ScalarExpr.const(rational(a, b))
