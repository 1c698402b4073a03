"""Helpers the tests share.  Most are not checks themselves: one numeric
evaluator for every symbolic type, the seeded random Clifford elements and
one-key scalar symbols, the ledger's ids, the W-power and pole-factor
products, the one-key on-shell symbol, the pure-Dirac limit and the one
reset of the engine's per-process caches.  The evaluator takes from the
referee only its context and `eval_scalar`:
`symbol_at` reads a symbol of either shell at one xi' as each
coefficient's 4x4 matrix times xi_n**d over its key's denominator, so the
tests hold the referee's lift, its trace path and the engine's pi+
against values that do not come from the lift.  The referee's contour form
of pi+ lives here too, since no verb runs it; it is a check.  So are the
two inverses of the half-plane layer's steps: the lower-contour line
integral, -2*pi*i times the residue at -i that the partial fractions give
(the engine reads only +i), and the recombined partial fractions.
`assert_outcome` checks the guards that no verb reaches, and
`xi_rule_defect` holds derive's xi-rules against central differences of
the symbols' values."""

import cmath
import copy
import math
import random

import pytest

from wres4 import anchor_table, anchors, boundary, interior, scalars, symbols
from wres4.cli import load_discrepancies
from wres4.clifford import CliffordElem, _cmul_into
from wres4.errors import MissingBinding
from wres4.halfplane import _canonical_term, pi_plus, partial_fractions
from wres4.oracle import NumericContext, eval_scalar
from wres4.scalars import GAUSS_I, NAMES, PI_SYM, ScalarExpr
from wres4.symbols import (D, DTILDE, OFF, ON, BoundarySymbol, _mul_into,
                           _pole_factor, _w_power, _xin, build_sigma, derive,
                           restrict_on_shell, sandwich)


def at_point(ctx: NumericContext, xi_prime) -> NumericContext:
    """A copy of ctx that also binds XI1, XI2, XI3 to xi' = (x1, x2, x3)."""
    bound = copy.copy(ctx)
    bound.assignment = dict(ctx.assignment)
    bound.assignment.update(zip(("XI1", "XI2", "XI3"), xi_prime))
    return bound


def eval_clifford(a: CliffordElem, ctx):
    """a as a 4x4 matrix (a tuple of rows of complex) in ctx's gamma
    representation, each coefficient evaluated by eval_scalar."""
    out = [[0j] * 4 for _ in range(4)]
    for basis, coeff in a.terms.items():
        w = eval_scalar(coeff, ctx)
        for row, mat_row in zip(out, ctx.rep.basis_matrix(basis)):
            for j, m in enumerate(mat_row):
                row[j] += w * m
    return tuple(map(tuple, out))


def symbol_at(s: BoundarySymbol, ctx, xi_prime):
    """The symbol's 4x4 value at xi' as a function of xi_n: each
    coefficient's matrix, computed once here by eval_clifford, times
    xi_n**d over its key's denominator, W**p with W = |xi'|^2 + xi_n^2 off
    shell and (xi_n - i)**a (xi_n + i)**b on shell."""
    bound = at_point(ctx, xi_prime)
    w = sum(x * x for x in xi_prime)
    terms = [(key, d, eval_clifford(e, bound))
             for key, poly in s.terms.items() for d, e in poly.items()]

    def value(xi_n: complex):
        out = [[0j] * 4 for _ in range(4)]
        for key, d, mat in terms:
            den = ((w + xi_n * xi_n) ** key if s.shell == OFF
                   else (xi_n - 1j) ** key[0] * (xi_n + 1j) ** key[1])
            weight = xi_n ** d / den
            for row, mat_row in zip(out, mat):
                for j, m in enumerate(mat_row):
                    row[j] += weight * m
        return tuple(map(tuple, out))

    return value


def eval_symbol(s: BoundarySymbol, ctx, point):
    """A symbol's 4x4 value at a full point (xi', xi_n)."""
    if point is None or point[1] is None:
        raise MissingBinding("boundary symbols need a full (xi', xi_n) point")
    return symbol_at(s, ctx, point[0])(point[1])


def rand_elem(rng, depth=3) -> CliffordElem:
    """A sum of depth terms, each an integer in [-5, 5] times up to three
    random generators."""
    out = CliffordElem.zero()
    for _ in range(depth):
        term = CliffordElem.scalar(ScalarExpr.const(rng.randint(-5, 5)))
        for _ in range(rng.randint(0, 3)):
            term = term * CliffordElem.gen(rng.randint(1, 4))
        out = out + term
    return out


def scalar_term(coeffs: dict, a: int, b: int) -> BoundarySymbol:
    """sum of c xi_n**d over (d, c) in coeffs, over (xi_n - i)**a
    (xi_n + i)**b."""
    poly = {d: CliffordElem.scalar(ScalarExpr.const(c))
            for d, c in coeffs.items()}
    return on_shell_term(poly, a, b)


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
    worst = 0.0
    for seed in seeds:
        ctx, rng = NumericContext(seed), random.Random(seed)
        xi_prime = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        if on:
            xi_prime = [x / math.hypot(*xi_prime) for x in xi_prime]
        point = [*xi_prime, rng.uniform(-1.5, 1.5)]

        def at(sym, t=0.0):
            moved = [x + t * (k == i - 1) for k, x in enumerate(point)]
            return eval_symbol(sym, ctx, (tuple(moved[:3]), moved[3]))

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
    complex) for Clifford-valued data, complex scalars for ScalarExpr.  A
    point (xi', xi_n) binds XI1, XI2, XI3 to xi'."""
    if isinstance(sym, BoundarySymbol):
        return eval_symbol(sym, ctx, point)
    bound = ctx if point is None else at_point(ctx, point[0])
    if isinstance(sym, ScalarExpr):
        return eval_scalar(sym, bound)
    if isinstance(sym, CliffordElem):
        return eval_clifford(sym, bound)
    raise TypeError(f"cannot evaluate {type(sym).__name__}")


def known_ids() -> frozenset:
    """The ids of the shipped discrepancy ledger."""
    return frozenset(d["id"] for d in load_discrepancies()["discrepancies"])


def clear_engine_caches():
    """Forget every value the exact engine keeps per process, so that the
    next assembly computes each stage from scratch, and a mutant patched
    in meanwhile reaches every value built from it."""
    for cached in (symbols._sigma, scalars._xi3_squared_power,
                   boundary.case_factors, boundary._case_value,
                   interior.compute_E_at_x0, anchors.lemma41,
                   anchor_table._build_anchors):
        cached.cache_clear()


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
    res = partial_fractions(s)[1].get(1, CliffordElem.zero())
    return ScalarExpr.const(-2 * GAUSS_I) * PI_SYM * res.scalar_part()


def recombine(pair) -> BoundarySymbol:
    """The on-shell symbol whose partial fractions are pair = (plus,
    minus)."""
    plus, minus = pair
    terms = {(k, 0): {0: e} for k, e in plus.items()}
    terms.update({(0, k): {0: e} for k, e in minus.items()})
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
