"""Floating-point referee for the symbolic engine, in pure Python.

Explicit 4x4 gamma matrices (tuples of Python complex), seeded random
parameter assignments, one binder (`_bind`) for every numeric evaluation,
and quadrature for line and sphere integrals.  Every on-shell boundary
symbol lowers to a polynomial in xi_n and the point over one scalar
denominator; the referee lowers no off-shell symbol, since every factor it
is given is on shell.  The per-case referee takes each case's factors and
prefactor from the engine, so derivatives, restriction and pi+ are the
engine's own; it recomputes the product, the trace and the two integrals.

At a sphere node tr(L R) is one scalar xi_n-polynomial over the product of
the two factors' denominators.  A case's pairs share their pole orders, so
the referee contracts the sum of their traces once, in point-monomial
space, and takes one sphere pass per case: at each node one table of the
point's powers gives the polynomial's coefficients.  A line node costs two
calls of the factors' compiled reciprocal denominators (dict hits after
their first xi_n) and a Horner evaluation that the imaginary-part pass
reuses; the line rule sweeps each 21-node panel in one call, at nodes and
secants tabulated once per process.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
        rng = random.Random(seed)
        self.assignment: Dict[str, float] = {
            name: rng.uniform(0.5, 2.0) for name in _RANDOM_NAMES
        }
        self.assignment["OMEGA"] = 4.0 * math.pi
        self.assignment["PI"] = math.pi
        self.rep = rep if rep is not None else GammaRep()


def _bind(mono, bindings: Dict[str, complex], weight,
          free: Dict[int, int]) -> Tuple[complex, Tuple[int, ...]]:
    """weight times mono's bound factors, in order, and the exponents of
    the free names (index -> slot); any other name raises MissingBinding."""
    exps = [0] * len(free)
    for idx, k in mono:
        if idx in free:
            exps[free[idx]] = k
        elif NAMES[idx] in bindings:
            weight *= bindings[NAMES[idx]] ** k
        else:
            raise MissingBinding(f"no numeric binding for {NAMES[idx]}")
    return weight, tuple(exps)


def eval_scalar(e: ScalarExpr, ctx: NumericContext,
                point=None) -> complex:
    bindings = dict(ctx.assignment)
    if point is not None:  # XI1, XI2, XI3 of (xi', xi_n); no scalar holds xi_n
        bindings.update(zip(_POINT_NAMES, point[0]))
    total = sum(complex(coeff) * _bind(mono, bindings, 1, {})[0]
                for mono, coeff in e.num.terms.items())
    return total / bindings["F"] ** e.fpow


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
# A panel is dqk21's 21 nodes on [a, b] in its order of evaluation: the
# centre, the Gauss pairs, then the Kronrod-only pairs, each pair as centre
# -/+ hlgth * x.  Each Gauss pair's panel position, wg and wk; each
# Kronrod-only pair's position and wk; and every pair's position and wk in
# _XGK order, which is the order of dqk21's resasc sum.
_GAUSS = tuple(zip(range(1, 11, 2), _WG, _WGK[1::2]))
_KRONROD = tuple(zip(range(11, 21, 2), _WGK[0:10:2]))
_PAIRS = tuple(zip([j if j % 2 else 11 + j for j in range(10)], _WGK))
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

Panel = Callable[[Tuple[float, ...]], Sequence[float]]


@functools.cache
def _panel(a: float, b: float) -> Tuple[float, ...]:
    """dqk21's 21 nodes on [a, b], in its order of evaluation."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    nodes = [centr]
    for x in _XGK[1::2] + _XGK[0:10:2]:
        absc = hlgth * x
        nodes += (centr - absc, centr + absc)
    return tuple(nodes)


def _qk21(f: Panel, a: float, b: float):
    """dqk21 on [a, b]: the Kronrod value, its error estimate, the
    integral of |f| and the integral of |f - mean|, in dqk21's order of
    evaluations and operations.  f maps the panel's nodes to their values
    in one call."""
    hlgth = 0.5 * (b - a)
    fv = f(_panel(a, b))
    fc = fv[0]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j, wg, wk in _GAUSS:
        fval1, fval2 = fv[j], fv[j + 1]
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, wk in _KRONROD:
        fval1, fval2 = fv[j], fv[j + 1]
        resk = resk + wk * (fval1 + fval2)
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j, wk in _PAIRS:
        resasc = resasc + wk * (abs(fv[j] - reskh) + abs(fv[j + 1] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qags21(f: Panel, a: float, b: float,
            epsabs: float, epsrel: float, limit: int):
    """QUADPACK dqagse without its epsilon-algorithm extrapolation, for a
    panel function f: returns (value, error estimate)."""
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


@functools.cache
def _secants(thetas: Tuple[float, ...]) -> Tuple[Tuple[float, float], ...]:
    """(tan theta, 1 + tan^2 theta), that is xi_n and dxi_n/dtheta, at each
    node of a panel."""
    return tuple((t, 1.0 + t * t) for t in map(math.tan, thetas))


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
    exactly.  Each pass sweeps a panel of 21 nodes in one call, reading
    their tan and sec^2 from a table that every call shares, since the
    panels depend only on the bisection; a node costs one call of f and
    one product by sec^2.
    """
    def real_part(thetas: Tuple[float, ...]) -> List[float]:
        return [(f(t) * s).real for t, s in _secants(thetas)]

    def imag_part(thetas: Tuple[float, ...]) -> List[float]:
        return [(f(t) * s).imag for t, s in _secants(thetas)]

    out = 0j
    for part, unit in ((real_part, 1.0), (imag_part, 1j)):
        val, err = _qags21(part, -math.pi / 2, math.pi / 2, _LINE_TOL,
                           _LINE_TOL, 200)
        if err > 100 * max(_LINE_TOL, 1e-13 * abs(val)) + 1e-8:
            raise NonConvergence(f"line quadrature error estimate {err}")
        out += unit * val
    return out


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
                   for deg, coeff in poly.items()]
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
                    weight, point_exps = _bind(mono, ctx.assignment,
                                               complex(c), _LOWERED_POINT)
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
    """A lowered symbol's reciprocal common denominator, compiled once per
    case: a call at xi_n returns 1/((xi_n - i)**A (xi_n + i)**B).  It
    depends on xi_n alone, so it is kept in the LoweredSymbol's `recips`
    and shared by all its instances and every sphere node."""

    def __init__(self, lowered: LoweredSymbol):
        self.lowered = lowered
        self._recips = lowered.recips

    def __call__(self, xi_n: complex) -> complex:
        try:
            return self._recips[xi_n]
        except KeyError:
            a, b = self.lowered.poles
            self._recips[xi_n] = 1.0 / ((xi_n - 1j) ** a * (xi_n + 1j) ** b)
            return self._recips[xi_n]


# flattened index of the transpose: tr(L R) = sum_f L_f R_{_TRANSPOSE[f]}
_TRANSPOSE = tuple(4 * (f % 4) + f // 4 for f in range(16))
Pair = Tuple[LoweredSymbol, LoweredSymbol]


def _trace_coefficients(pairs: Sequence[Pair]):
    """The numerator of the sum of tr(L R) over (L, R) in pairs, as a
    function of the point; the pairs share their pole orders, so it is
    over every pair's reciprocal denominators.

    The coefficient of xi_n**j is the sum over pairs and m + n = j of
    tr(L_m R_n), the 16-term pairing of the two numerators' matrix
    coefficients, so it is contracted once here from the lifts, with each
    pairing's point monomial the product of the two.  Returns at(x1, x2,
    x3), the list of xi_n coefficients there, ascending; the summed trace
    is their polynomial times one pair's two reciprocal denominators.
    """
    table: Dict[Exps, Dict[int, complex]] = {}
    for left, right in pairs:
        for (m, el), a in left.lift.items():
            for (n, er), b in right.lift.items():
                pairing = sum(a[f] * b[_TRANSPOSE[f]] for f in range(16))
                if pairing:
                    row = table.setdefault(tuple(map(operator.add, el, er)),
                                           {})
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
    the sphere, times the engine's case coefficient.  The case's factor
    pairs share their pole orders, so the case takes one sphere pass over
    their summed trace; pairs whose pole orders differ raise ValueError.

    Returns the numeric value, the evaluated symbolic value, and their
    absolute difference.
    """
    from .boundary import case_factors, compute_case
    from .symbols import DTILDE

    pairs = [(LoweredSymbol(left, ctx), LoweredSymbol(right, ctx))
             for left, right in case_factors(spec, DTILDE)]
    if len({(low_l.poles, low_r.poles) for low_l, low_r in pairs}) != 1:
        raise ValueError(f"case {spec.label}: pairs of unequal pole orders")
    lc, rc = (CompiledSymbol(low).__call__ for low in pairs[0])
    trace_at = _trace_coefficients(pairs)

    def p(x1: float, x2: float, x3: float) -> complex:
        # one sphere node: the case's trace numerator, Horner once per xi_n
        # (the imaginary-part pass revisits the real-part pass's nodes),
        # over one pair's reciprocal denominators
        coeffs = trace_at(x1, x2, x3)
        traces: Dict[float, complex] = {}

        def integrand(t: float) -> complex:
            recips = lc(t) * rc(t)
            trace = traces.get(t)
            if trace is None:
                trace = traces[t] = _horner(coeffs, t)
            return trace * recips

        return quad_line(integrand)

    # 0j + turns a -0.0 real part into 0.0 before the product
    total = (0j + quad_sphere(p)) * complex(spec.coefficient)
    sym_val = eval_scalar(compute_case(spec), ctx)
    return {
        "numeric": total,
        "symbolic": sym_val,
        "abs_error": abs(total - sym_val),
    }
