"""Floating-point referee for the symbolic engine, in pure Python.

Explicit 4x4 gamma matrices (tuples of Python complex), seeded random
parameter assignments, and quadrature for line, contour, and sphere
integrals.  Every scalar and Clifford value can be evaluated to a complex
scalar or a 4x4 complex matrix, and every on-shell boundary symbol to a 4x4
complex matrix; the referee lowers no off-shell symbol, since every factor
it is given is on shell.  The per-case referee takes each case's factors and
prefactor from the engine, so derivatives, restriction and pi+ are the
engine's own; it recomputes the product, the trace and the two integrals.
Only the tests use `quad_contour_pi_plus`.

Each factor is a xi_n-polynomial numerator over one scalar denominator, so
at a sphere node tr(L R) is one scalar xi_n-polynomial over the product of
the two denominators.  The per-case referee contracts that trace once per
factor pair, in point-monomial space; at each sphere node one table of the
point's powers gives the polynomial's coefficients.  A line node costs two
bound calls (the factors' reciprocal denominators, dict hits after their
first xi_n) and a Horner evaluation that the imaginary-part pass reuses.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .clifford import CliffordElem
from .errors import MissingBinding, NonConvergence, ShellViolation
from .scalars import NAMES, ScalarExpr
from .symbols import OFF, BoundarySymbol

_POINT_NAMES = ("XI1", "XI2", "XI3")
_RANDOM_NAMES = tuple(n for n in NAMES
                      if n not in _POINT_NAMES + ("OMEGA", "PI"))
_LOWERED_POINT = {NAMES.index(n): j for j, n in enumerate(_POINT_NAMES)}

Matrix = Tuple[Tuple[complex, ...], ...]
_IDENTITY: Matrix = tuple(tuple(complex(i == j) for j in range(4))
                          for i in range(4))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4))
                       for j in range(4)) for i in range(4))


def _kron_i(a, b) -> Matrix:
    """i times the Kronecker product of two 2x2 matrices."""
    return tuple(tuple(1j * a[i // 2][j // 2] * b[i % 2][j % 2]
                       for j in range(4)) for i in range(4))


class GammaRep:
    """Four skew 4x4 complex matrices with gamma_i gamma_j + gamma_j
    gamma_i = -2 delta_ij, each a 4x4 tuple of Python complex."""

    def __init__(self, matrices: Optional[Sequence[Sequence]] = None):
        if matrices is None:
            s1 = ((0, 1), (1, 0))
            s2 = ((0, -1j), (1j, 0))
            s3 = ((1, 0), (0, -1))
            eye = ((1, 0), (0, 1))
            matrices = [_kron_i(s1, s1), _kron_i(s1, s2), _kron_i(s1, s3),
                        _kron_i(s2, eye)]
        self.gamma = [tuple(tuple(complex(x) for x in row) for row in m)
                      for m in matrices]
        if len(self.gamma) != 4:
            raise ValueError("need exactly four gamma matrices")

    def basis_matrix(self, basis: Tuple[int, ...]) -> Matrix:
        return functools.reduce(_matmul, (self.gamma[i - 1] for i in basis),
                                _IDENTITY)

    def max_relation_defect(self) -> float:
        worst = 0.0
        for i, gi in enumerate(self.gamma):
            for j, gj in enumerate(self.gamma):
                for r, (x, y) in enumerate(zip(_matmul(gi, gj),
                                               _matmul(gj, gi))):
                    for c in range(4):
                        target = -2.0 if i == j and r == c else 0.0
                        worst = max(worst, abs(x[c] + y[c] - target))
        return worst


class NumericContext:
    """Deterministic random assignment of the indeterminates plus a gamma
    representation.

    HP, F, the f-jets, and S draw uniformly from [0.5, 2] (keeping F well
    away from 0 so f^-3 terms stay conditioned); OMEGA is bound to 4*pi
    and PI to pi.  The xi-variables stay unbound and must be supplied as
    an evaluation point.
    """

    def __init__(self, seed: int, rep: Optional[GammaRep] = None):
        self.seed = seed
        rng = random.Random(seed)
        self.assignment: Dict[str, float] = {
            name: rng.uniform(0.5, 2.0) for name in _RANDOM_NAMES
        }
        self.assignment["OMEGA"] = 4.0 * math.pi
        self.assignment["PI"] = math.pi
        self.rep = rep if rep is not None else GammaRep()


def eval_scalar(e: ScalarExpr, ctx: NumericContext,
                point=None) -> complex:
    bindings = dict(ctx.assignment)
    if point is not None:  # XI1, XI2, XI3 of (xi', xi_n); no scalar holds xi_n
        bindings.update(zip(_POINT_NAMES, point[0]))
    total = sum(
        complex(coeff) * math.prod(_lookup(bindings, NAMES[idx]) ** exp
                                   for idx, exp in mono)
        for mono, coeff in e.num.terms.items()
    )
    return total / bindings["F"] ** e.fpow


def _lookup(bindings: Dict[str, complex], name: str) -> complex:
    try:
        return bindings[name]
    except KeyError:
        raise MissingBinding(f"no numeric binding for {name}") from None


def eval_clifford(a: CliffordElem, ctx: NumericContext,
                  point=None) -> Matrix:
    out = [[0j] * 4 for _ in range(4)]
    for basis, coeff in a.terms.items():
        w = eval_scalar(coeff, ctx, point)
        for row, mat_row in zip(out, ctx.rep.basis_matrix(basis)):
            for j, m in enumerate(mat_row):
                row[j] += w * m
    return tuple(map(tuple, out))


def eval_symbol(s: BoundarySymbol, ctx: NumericContext,
                point) -> Matrix:
    if point is None or point[1] is None:
        raise MissingBinding("boundary symbols need a full (xi', xi_n) point")
    return CompiledSymbol(LoweredSymbol(s, ctx), point[0]).matrix(point[1])


# -- quadrature --------------------------------------------------------------

# QUADPACK dqk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod abscissae on [0, 1], descending, with the embedded 10-point Gauss
# abscissae at the odd indices; the last Kronrod node is the centre.
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077208573829919,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# dqk21's Gauss pairs (j, x, wg, wk), then its Kronrod-only pairs (j, x, wk)
_GAUSS = tuple(zip(range(1, 10, 2), _XGK[1::2], _WG, _WGK[1::2]))
_KRONROD = tuple(zip(range(0, 10, 2), _XGK[0:10:2], _WGK[0:10:2]))
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _qk21(f: Callable[[float], float], a: float, b: float):
    """dqk21 on [a, b]: the Kronrod value, its error estimate, the
    integral of |f| and the integral of |f - mean|, in dqk21's order of
    evaluations and operations."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv: List[Tuple[float, float]] = [(0.0, 0.0)] * 10
    for j, x, wg, wk in _GAUSS:
        absc = hlgth * x
        fv[j] = fval1, fval2 = f(centr - absc), f(centr + absc)
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _KRONROD:
        absc = hlgth * x
        fv[j] = fval1, fval2 = f(centr - absc), f(centr + absc)
        resk = resk + wk * (fval1 + fval2)
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for wk, (fval1, fval2) in zip(_WGK, fv):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qags21(f: Callable[[float], float], a: float, b: float,
            epsabs: float, epsrel: float, limit: int):
    """QUADPACK dqagse without its epsilon-algorithm extrapolation:
    returns (value, error estimate)."""
    result, abserr, defabs, resasc = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if ((abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
            or limit == 1 or (abserr <= errbnd and abserr != resasc)
            or abserr == 0.0):
        return result, abserr
    # (left, right, area, error) per interval, in dqagse's storage order
    ivals = [(a, b, result, abserr)]
    area, errsum, maxerr = result, abserr, 0
    for last in range(2, limit + 1):
        a1, b2, rmax, errmax = ivals[maxerr]
        b1 = 0.5 * (a1 + b2)
        area1, error1, _, _ = _qk21(f, a1, b1)
        area2, error2, _, _ = _qk21(f, b1, b2)
        errsum = errsum + (error1 + error2) - errmax
        area = area + (area1 + area2) - rmax
        lo, hi = (a1, b1, area1, error1), (b1, b2, area2, error2)
        # the half with the larger error keeps the bisected slot
        ivals[maxerr], new = (hi, lo) if error2 > error1 else (lo, hi)
        ivals.append(new)
        if errsum <= max(epsabs, epsrel * abs(area)):
            break
        maxerr = max(range(last), key=lambda i: ivals[i][3])
    return sum(iv[2] for iv in ivals), errsum


_LINE_TOL = 1e-11  # absolute and relative tolerance of quad_line


def quad_line(f: Callable[[float], complex]) -> complex:
    """Adaptive quadrature of f over the real line via xi_n = tan(theta),
    real and imaginary parts as two separate integrals over
    (-pi/2, pi/2).

    Each integral is a port of QUADPACK's dqagse with the 21-point
    Gauss-Kronrod rule dqk21 (Piessens et al., QUADPACK, Springer 1983),
    keeping its node order, arithmetic, error estimate and early exits, and
    bisecting the interval of largest error until the summed error meets
    max(_LINE_TOL, _LINE_TOL*|value|) or 200 intervals.  It omits dqagse's
    epsilon-algorithm extrapolation, which starts only at the third
    interval, and its roundoff and tiny-interval abort flags; up to two
    intervals it gives scipy.integrate.quad's value, error and node count
    exactly.  A node costs one tan, one call of f and one product by sec^2.
    """
    tan = math.tan

    def real_part(theta: float) -> float:
        t = tan(theta)
        return (f(t) * (1.0 + t * t)).real

    def imag_part(theta: float) -> float:
        t = tan(theta)
        return (f(t) * (1.0 + t * t)).imag

    out = 0j
    for part, unit in ((real_part, 1.0), (imag_part, 1j)):
        val, err = _qags21(part, -math.pi / 2, math.pi / 2, _LINE_TOL,
                           _LINE_TOL, 200)
        if err > 100 * max(_LINE_TOL, 1e-13 * abs(val)) + 1e-8:
            raise NonConvergence(f"line quadrature error estimate {err}")
        out += unit * val
    return out


def quad_contour_pi_plus(h: Callable[[complex], complex],
                         xi0: float) -> complex:
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


def _legendre(n: int, x: float) -> Tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence (n >= 1)."""
    prev, cur = 1.0, x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int) -> Tuple[List[float], List[float]]:
    """The n Gauss-Legendre nodes on [-1, 1], ascending, and their weights
    2 / ((1 - x) (1 + x) P_n'(x)^2).  Each positive root comes from Newton's
    iteration on P_n, started at cos(pi (k + 3/4) / (n + 1/2)); the
    negative roots are their mirror images, and an odd n adds 0."""
    half = []
    for k in range(n // 2):
        x = math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(100):
            value, slope = _legendre(n, x)
            step = value / slope
            x -= step
            if abs(step) <= 2.0 * _EPMACH:
                break
        slope = _legendre(n, x)[1]
        half.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)))
    middle = [(0.0, 2.0 / _legendre(n, 0.0)[1] ** 2)] if n % 2 else []
    rule = ([(-x, w) for x, w in half] + middle
            + [(x, w) for x, w in reversed(half)])
    return [x for x, _ in rule], [w for _, w in rule]


def quad_sphere(p: Callable[[float, float, float], complex],
                n_theta: int = 12, n_phi: int = 24) -> complex:
    """Product Gauss-Legendre (polar) x trapezoid (azimuthal) quadrature
    of p over the unit sphere; exact for polynomials of degree <= 23 at the
    default orders (12 Gauss-Legendre nodes in cos(theta), 24 equispaced
    azimuths).

    p is called once per node, p(x, y, z) with floats, polar ring by ring
    and in azimuth order within a ring, and the weighted values are summed
    in that order.
    """
    nodes, weights = _gauss_legendre(n_theta)
    azimuths = [(math.cos(phi), math.sin(phi))
                for phi in (2.0 * math.pi * k / n_phi for k in range(n_phi))]
    total = 0j
    for c, w in zip(nodes, weights):
        s = math.sqrt(1.0 - c * c)
        for cos_phi, sin_phi in azimuths:
            total += w * p(s * cos_phi, s * sin_phi, c)
    return total * (2.0 * math.pi / n_phi)


# -- compiled symbols and the end-to-end referee -----------------------------

Exps = Tuple[int, int, int]


def _monomials(point: Tuple[float, float, float], exps: Sequence[Exps]):
    """XI1**a XI2**b XI3**c at point = (x1, x2, x3) for each (a, b, c) of
    exps, from one table of the coordinates' powers."""
    top = max(map(max, exps), default=0)
    p1, p2, p3 = ([x ** k for k in range(top + 1)] for x in point)
    return [p1[a] * p2[b] * p3[c] for a, b, c in exps]


class LoweredSymbol:
    """An on-shell boundary symbol bound to a numeric context.

    With HP, F, the f-jets, S, OMEGA and PI bound, each coefficient is a
    polynomial in the point variables XI1, XI2, XI3 (|xi'|^2 among them,
    spelled out).  The entries, each xi_n**deg over its pole key, are put
    over one common denominator (xi_n - i)**A (xi_n + i)**B, so the symbol
    is a polynomial in xi_n over that one scalar.  `lift` maps each (xi_n
    power, exponents of XI1, XI2, XI3) to its flattened 4x4 matrix
    coefficient, with the bound weights, the gamma basis matrices and the
    numerators over the common denominator folded in.  The reciprocal
    denominator depends on xi_n alone, and `recips` keeps it per xi_n for
    every CompiledSymbol of this factor.  An off-shell symbol raises
    ShellViolation, and a coefficient holding a name the context leaves
    unbound raises MissingBinding.
    """

    def __init__(self, s: BoundarySymbol, ctx: NumericContext):
        if s.shell == OFF:
            raise ShellViolation("the referee lowers on-shell symbols only")
        entries = [(key, deg, coeff) for key, poly in s.terms.items()
                   for deg, coeff in poly.coeffs.items()]
        nums, self.poles = _numerators([key for key, _, _ in entries])
        flat: Dict[Tuple[int, ...], List[Tuple[int, complex]]] = {}
        lift: Dict[Tuple[int, Exps], List[complex]] = {}
        for (_, deg, coeff), num in zip(entries, nums):
            for basis, scalar in coeff.terms.items():
                if basis not in flat:
                    mat = [m for row in ctx.rep.basis_matrix(basis)
                           for m in row]
                    flat[basis] = [(f, m) for f, m in enumerate(mat) if m]
                for mono, c in scalar.terms.items():
                    exps, weight = [0, 0, 0], complex(c)
                    for idx, k in mono:
                        if idx in _LOWERED_POINT:
                            exps[_LOWERED_POINT[idx]] = k
                        else:
                            weight *= _lookup(ctx.assignment, NAMES[idx]) ** k
                    point_exps = tuple(exps)
                    for n, c_num in num.items():
                        vec = lift.setdefault((deg + n, point_exps), [0j] * 16)
                        w = c_num * weight
                        for f, m in flat[basis]:
                            vec[f] += w * m
        self.lift = lift
        self.recips: Dict[complex, complex] = {}


def _numerators(keys: list):
    """Each on-shell pole key as a numerator over the common denominator.

    Returns one dict {n: c} per key, holding the nonzero terms c xi_n**n of
    the numerator (xi_n - i)**(A - a) (xi_n + i)**(B - b) of key (a, b),
    and the pole orders (A, B) of the common denominator.  It does not use
    the engine's exact `symbols._pole_factor`: the referee shares as little
    with the engine as it can.
    """
    A = max((a for a, _ in keys), default=0)
    B = max((b for _, b in keys), default=0)
    nums = []
    for a, b in keys:
        coeffs = [1 + 0j]
        for root in [1j] * (A - a) + [-1j] * (B - b):
            # times (xi_n - root), exactly: Gaussian-integer coefficients
            coeffs = [(coeffs[n - 1] if n else 0) - root * c
                      for n, c in enumerate(coeffs + [0])]
        nums.append({n: c for n, c in enumerate(coeffs) if c})
    return nums, (A, B)


class CompiledSymbol:
    """A lowered symbol at one tangential covector xi' = (x1, x2, x3).

    A call at xi_n returns 1/((xi_n - i)**A (xi_n + i)**B), the reciprocal
    of the symbol's common denominator.  It depends on xi_n alone, so it is
    kept in the LoweredSymbol's `recips` and shared by all its instances.
    `matrix(xi_n)` is the symbol's 4x4 value: the numerator's coefficients
    at this point (computed on first use) by Horner's rule in xi_n, times
    that reciprocal.
    """

    def __init__(self, lowered: LoweredSymbol,
                 xi_prime: Tuple[float, float, float]):
        self.lowered = lowered
        self.point = xi_prime
        self._recips = lowered.recips

    def __call__(self, xi_n: complex) -> complex:
        try:
            return self._recips[xi_n]
        except KeyError:
            a, b = self.lowered.poles
            self._recips[xi_n] = 1.0 / ((xi_n - 1j) ** a * (xi_n + 1j) ** b)
            return self._recips[xi_n]

    @functools.cached_property
    def numerator(self) -> List[List[complex]]:
        """The flattened 4x4 coefficients of xi_n**0, xi_n**1, ... here."""
        lift = self.lowered.lift
        weights = _monomials(self.point, [exps for _, exps in lift])
        coeffs = [[0j] * 16 for _ in range(1 + max((n for n, _ in lift),
                                                   default=-1))]
        for ((n, _), vec), w in zip(lift.items(), weights):
            for f, v in enumerate(vec):
                coeffs[n][f] += w * v
        return coeffs

    def matrix(self, xi_n: complex) -> Matrix:
        recip = self(xi_n)
        flat = [recip * _horner([vec[f] for vec in self.numerator], xi_n)
                for f in range(16)]
        return tuple(tuple(flat[4 * i:4 * i + 4]) for i in range(4))


# flattened index of the transpose: tr(L R) = sum_f L_f R_{_TRANSPOSE[f]}
_TRANSPOSE = tuple(4 * (f % 4) + f // 4 for f in range(16))


def _trace_coefficients(left: LoweredSymbol, right: LoweredSymbol):
    """The numerator of tr(L R) as a function of the point.

    The coefficient of xi_n**j is the sum over m + n = j of tr(L_m R_n),
    the 16-term pairing of the two numerators' matrix coefficients, so it
    is contracted once here from the two lifts, with each pairing's point
    monomial the product of the two.  Returns at(x1, x2, x3), the list of
    xi_n coefficients there, ascending; tr(L R) is their polynomial times
    both factors' reciprocal denominators.
    """
    table: Dict[Exps, Dict[int, complex]] = {}
    for (m, el), a in left.lift.items():
        for (n, er), b in right.lift.items():
            pairing = sum(a[f] * b[_TRANSPOSE[f]] for f in range(16))
            if pairing:
                row = table.setdefault(tuple(map(operator.add, el, er)), {})
                row[m + n] = row.get(m + n, 0j) + pairing
    monos = list(table)
    degree = max((j for row in table.values() for j in row), default=-1)
    rows = [[table[e].get(j, 0j) for e in monos] for j in range(degree + 1)]

    def at(x1: float, x2: float, x3: float) -> List[complex]:
        values = _monomials((x1, x2, x3), monos)
        return [sum(map(operator.mul, row, values)) for row in rows]

    return at


def _horner(coeffs: List[complex], t: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def crosscheck_case(spec, ctx: NumericContext) -> Dict[str, complex]:
    """Recompute one boundary case from the engine's factors: the trace
    of their product, quadrature over xi_n at each sphere node, then over
    the sphere, times the engine's case coefficient.

    Returns the numeric value, the evaluated symbolic value, and their
    absolute difference.
    """
    from .boundary import case_factors, compute_case

    total = 0j
    for left, right in case_factors(spec, "Dtilde"):
        low_l, low_r = LoweredSymbol(left, ctx), LoweredSymbol(right, ctx)
        trace_at = _trace_coefficients(low_l, low_r)

        def p(x1: float, x2: float, x3: float) -> complex:
            # one sphere node: tr(L R)'s numerator, Horner once per xi_n
            # (the imaginary-part pass revisits the real-part pass's nodes),
            # over both factors' denominators, each a bound call
            lc = CompiledSymbol(low_l, (x1, x2, x3)).__call__
            rc = CompiledSymbol(low_r, (x1, x2, x3)).__call__
            coeffs = trace_at(x1, x2, x3)
            traces: Dict[float, complex] = {}

            def integrand(t: float) -> complex:
                recips = lc(t) * rc(t)
                trace = traces.get(t)
                if trace is None:
                    trace = traces[t] = _horner(coeffs, t)
                return trace * recips

            return quad_line(integrand)

        total += quad_sphere(p)
    total *= complex(spec.coefficient)
    sym_val = eval_scalar(compute_case(spec), ctx)
    return {
        "numeric": total,
        "symbolic": sym_val,
        "abs_error": abs(total - sym_val),
    }
