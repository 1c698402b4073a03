"""Helpers the tests share.  Most are not checks themselves: one numeric
evaluator for every symbolic type, the ledger's ids, the W-power and
pole-factor products, the one-key on-shell symbol and the pure-Dirac
limit.  The referee's matrix-valued evaluators and its contour form of
pi+ live here too, since no verb runs them; they are checks, against
which the tests hold the referee's scalar trace path and the engine's
pi+.  So are the two inverses of the half-plane layer's steps: the
lower-contour line integral, -2*pi*i times the residue at -i that the
partial fractions give (the engine reads only +i), and the recombined
partial fractions.  `assert_outcome` checks the guards that no verb
reaches, and `xi_rule_defect` holds derive's xi-rules against central
differences of the symbols' values, read off shell by `eval_off_shell`
(the referee lowers on-shell symbols only)."""

import cmath
import functools
import math
import random

import pytest

from wres4.cli import load_discrepancies
from wres4.clifford import CliffordElem, _cmul_into
from wres4.errors import MissingBinding
from wres4.halfplane import (PoleDecomposition, _canonical_term, pi_plus,
                             partial_fractions)
from wres4.oracle import (
    CompiledSymbol,
    LoweredSymbol,
    NumericContext,
    _horner,
    _monomials,
    eval_scalar,
)
from wres4.scalars import GAUSS_I, NAMES, PI_SYM, ScalarExpr
from wres4.symbols import (D, DTILDE, ON, BoundarySymbol, _mul_into,
                           _pole_factor, _w_power, _xin, build_sigma, derive,
                           restrict_on_shell, sandwich)


def eval_clifford(a: CliffordElem, ctx, point=None):
    """a as a 4x4 matrix (a tuple of rows of complex) in ctx's gamma
    representation, each coefficient evaluated by eval_scalar."""
    out = [[0j] * 4 for _ in range(4)]
    for basis, coeff in a.terms.items():
        w = eval_scalar(coeff, ctx, point)
        for row, mat_row in zip(out, ctx.rep.basis_matrix(basis)):
            for j, m in enumerate(mat_row):
                row[j] += w * m
    return tuple(map(tuple, out))


class MatrixSymbol(CompiledSymbol):
    """A compiled symbol at one tangential covector xi' = (x1, x2, x3)
    that also gives its 4x4 value: `matrix(xi_n)` is the numerator's
    coefficients at this point (computed on first use) by Horner's rule in
    xi_n, times the shared reciprocal denominator."""

    def __init__(self, lowered: LoweredSymbol, xi_prime):
        super().__init__(lowered)
        self.point = xi_prime

    @functools.cached_property
    def numerator(self):
        """The flattened 4x4 coefficients of xi_n**0, xi_n**1, ... here."""
        lift = self.lowered.lift
        weights = _monomials(self.point, [exps for _, exps in lift])
        coeffs = [[0j] * 16 for _ in range(1 + max((n for n, _ in lift),
                                                   default=-1))]
        for ((n, _), vec), w in zip(lift.items(), weights):
            for f, v in enumerate(vec):
                coeffs[n][f] += w * v
        return coeffs

    def matrix(self, xi_n: complex):
        recip = self(xi_n)
        flat = [recip * _horner([vec[f] for vec in self.numerator], xi_n)
                for f in range(16)]
        return tuple(tuple(flat[4 * i:4 * i + 4]) for i in range(4))


def eval_symbol(s: BoundarySymbol, ctx, point):
    """An on-shell symbol's 4x4 value at a full point (xi', xi_n)."""
    if point is None or point[1] is None:
        raise MissingBinding("boundary symbols need a full (xi', xi_n) point")
    return MatrixSymbol(LoweredSymbol(s, ctx), point[0]).matrix(point[1])


def eval_off_shell(s: BoundarySymbol, ctx, point):
    """An off-shell symbol's 4x4 value at a full point (xi', xi_n): each
    coefficient by eval_clifford, times xi_n**d / W**p with W = |xi'|^2 +
    xi_n^2."""
    xi_prime, xi_n = point
    w = sum(x * x for x in xi_prime) + xi_n * xi_n
    out = [[0j] * 4 for _ in range(4)]
    for p, poly in s.terms.items():
        for d, e in poly.items():
            weight = xi_n ** d / w ** p
            for row, mat_row in zip(out, eval_clifford(e, ctx, point)):
                for j, m in enumerate(mat_row):
                    row[j] += weight * m
    return tuple(map(tuple, out))


# the symbols whose xi-derivatives are held against central differences:
# off shell along xi_1..xi_4, on shell along xi_n at a unit xi'
XI_RULE_OFF_SHELL = {
    "-1-D": lambda: build_sigma(D, -1),
    "-2-D": lambda: build_sigma(D, -2),
    "-1-Dtilde": lambda: build_sigma(DTILDE, -1),
    "-2-Dtilde": lambda: build_sigma(DTILDE, -2),
    "sandwich": lambda: sandwich(CliffordElem.c_df()),
}
XI_RULE_ON_SHELL = {
    "pi+-1-Dtilde": lambda: pi_plus(restrict_on_shell(
        build_sigma(DTILDE, -1))),
    "on-2-D": lambda: restrict_on_shell(build_sigma(D, -2)),
    "on-2-Dtilde": lambda: restrict_on_shell(build_sigma(DTILDE, -2)),
}
XI_RULE_CASES = ([(name, i) for name in XI_RULE_OFF_SHELL
                  for i in (1, 2, 3, 4)]
                 + [(name, 4) for name in XI_RULE_ON_SHELL])


def xi_rule_defect(name: str, i: int, seeds=(42, 7), h=1e-5) -> float:
    """The worst relative gap, over one seeded point per seed, between
    derive(s, xi=(i,)) and the central difference of s along xi_i with step
    h, s the symbol `name` of XI_RULE_CASES: the largest entry gap over the
    largest entry of the derivative.  Each seed also draws the bindings."""
    on = name in XI_RULE_ON_SHELL
    s = (XI_RULE_ON_SHELL if on else XI_RULE_OFF_SHELL)[name]()
    value = eval_symbol if on else eval_off_shell
    worst = 0.0
    for seed in seeds:
        ctx, rng = NumericContext(seed), random.Random(seed)
        xi_prime = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        if on:
            xi_prime = [x / math.hypot(*xi_prime) for x in xi_prime]
        point = [*xi_prime, rng.uniform(-1.5, 1.5)]

        def at(sym, t=0.0):
            moved = [x + t * (k == i - 1) for k, x in enumerate(point)]
            return value(sym, ctx, (tuple(moved[:3]), moved[3]))

        exact = at(derive(s, xi=(i,)))
        gaps = [abs((u - d) / (2 * h) - z)
                for rows in zip(at(s, h), at(s, -h), exact)
                for u, d, z in zip(*rows)]
        size = max(abs(z) for row in exact for z in row)
        worst = max(worst, max(gaps) / size)
    return worst


def quad_contour_pi_plus(h, xi0: float) -> complex:
    """The half-plane projection as a contour integral: average of
    h(xi)/(xi0 + iu - xi) over the circle of radius 0.8 around +i at 4096
    trapezoid nodes, with u = -1e-12 standing for u -> 0^-.

    The circle encloses exactly the upper-half-plane pole at +i, so the
    trapezoid rule converges spectrally for the rational integrands at
    hand.
    """
    radius, n, u = 0.8, 4096, -1e-12
    total = 0j
    for k in range(n):
        theta = 2.0 * math.pi * k / n
        e = cmath.exp(1j * theta)
        z = 1j + radius * e
        dz = radius * 1j * e
        total += h(z) / (xi0 + 1j * u - z) * dz
    return total * (2.0 * math.pi / n) / (2j * math.pi)


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


def mul_w(p: dict, k: int) -> dict:
    """The numerator p times W**k = (XI1^2 + XI2^2 + XI3^2 + xi_n^2)**k."""
    return _xin(_mul_into({}, p, _w_power(k), _cmul_into))


def mul_shell(p: dict, da: int, db: int) -> dict:
    """The numerator p times (xi_n - i)**da (xi_n + i)**db, the pole factor
    that on-shell canonical forms multiply by."""
    return _xin(_mul_into({}, p, _pole_factor(da, db), _cmul_into))


def on_shell_term(poly: dict, a: int, b: int,
                  xder: int = 0) -> BoundarySymbol:
    """poly / ((xi_n - i)**a (xi_n + i)**b)."""
    return BoundarySymbol(ON, {(a, b): poly}, xder)


def pure_dirac_limit(e):
    """e at f = 1 with every f-jet 0: a monomial that holds an FI or FIJ
    jet drops, and F's exponent is removed.  A CliffordElem is mapped over
    its coefficients."""
    if isinstance(e, CliffordElem):
        return e.map_scalars(pure_dirac_limit)
    out = ScalarExpr.zero()
    for m, c in e.terms.items():
        if not any(NAMES[idx].startswith("FI") for idx, _ in m):
            out = out + ScalarExpr({tuple(p for p in m
                                          if NAMES[p[0]] != "F"): c})
    return out


def line_integral_lower(s: BoundarySymbol) -> ScalarExpr:
    """The real-line integral closed below: -2*pi*i times the residue at
    -i, read from the partial fractions.  It asks what
    halfplane.line_integral asks, decay like xi_n^-2 and a scalar
    integrand, and equals it for every such symbol."""
    num, _, _ = _canonical_term(s, 2)
    if any(set(e.terms) - {()} for e in num.values()):
        raise ValueError("line_integral expects a scalar integrand")
    res = partial_fractions(s).principal_minus.get(1, CliffordElem.zero())
    return ScalarExpr.const(-2 * GAUSS_I) * PI_SYM * res.scalar_part()


def recombine(dec: PoleDecomposition) -> BoundarySymbol:
    """The on-shell symbol whose partial fractions are dec."""
    terms = {(k, 0): {0: e} for k, e in dec.principal_plus.items()}
    terms.update({(0, k): {0: e} for k, e in dec.principal_minus.items()})
    return BoundarySymbol(ON, terms)


def assert_outcome(call, outcome):
    """call() raises outcome when it is an exception class, and otherwise
    returns a value equal to it."""
    if isinstance(outcome, type) and issubclass(outcome, Exception):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome


def against_str(value):
    """value.__eq__ of a str, and value == that str: NotImplemented, so
    False, for every exact value."""
    return value.__eq__("x"), value == "x"
