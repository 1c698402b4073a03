"""Independent floating-point referee for the symbolic engine.

Explicit 4x4 gamma matrices, seeded random parameter assignments, and
quadrature for line, contour, and sphere integrals.  Every symbolic value
can be evaluated to a complex matrix or scalar, and every integral in the
pipeline can be recomputed by adaptive or spectral quadrature, so any
symbolic/reference mismatch is adjudicated numerically rather than by
fiat.

The per-case referee walks the sphere rule one polar ring at a time: each
factor is evaluated at all of a ring's nodes at once, one matrix stack per
xi_n node; the traces tr(L R) of all the ring's products at that xi_n node
are taken in one batched product, and each node's line integral reads its
own entry of that trace vector.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .clifford import CliffordElem
from .errors import MissingBinding, NonConvergence
from .scalars import NAMES, ScalarExpr
from .symbols import OFF, BoundarySymbol

_POINT_NAMES = ("XI1", "XI2", "XI3", "XIN", "U", "W")
_RANDOM_NAMES = tuple(n for n in NAMES
                      if n not in _POINT_NAMES + ("OMEGA", "PI"))
_LOWERED_POINT = {NAMES.index(n): j
                  for j, n in enumerate(("XI1", "XI2", "XI3", "U"))}


class GammaRep:
    """Four skew 4x4 complex matrices with gamma_i gamma_j + gamma_j
    gamma_i = -2 delta_ij."""

    def __init__(self, matrices: Optional[Sequence[np.ndarray]] = None):
        if matrices is None:
            s1 = np.array([[0, 1], [1, 0]], dtype=complex)
            s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
            s3 = np.array([[1, 0], [0, -1]], dtype=complex)
            eye = np.eye(2, dtype=complex)
            matrices = [1j * np.kron(s1, s1), 1j * np.kron(s1, s2),
                        1j * np.kron(s1, s3), 1j * np.kron(s2, eye)]
        self.gamma = [np.asarray(m, dtype=complex) for m in matrices]
        if len(self.gamma) != 4:
            raise ValueError("need exactly four gamma matrices")

    def basis_matrix(self, basis: Tuple[int, ...]) -> np.ndarray:
        out = np.eye(4, dtype=complex)
        for i in basis:
            out = out @ self.gamma[i - 1]
        return out

    def max_relation_defect(self) -> float:
        worst = 0.0
        for i in range(4):
            for j in range(4):
                anti = (self.gamma[i] @ self.gamma[j]
                        + self.gamma[j] @ self.gamma[i])
                target = -2 * np.eye(4) if i == j else np.zeros((4, 4))
                worst = max(worst, float(np.abs(anti - target).max()))
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


def _point_bindings(point) -> Dict[str, complex]:
    if point is None:
        return {}
    xi_prime, xi_n = point
    x1, x2, x3 = xi_prime
    u = x1 * x1 + x2 * x2 + x3 * x3
    out = {"XI1": x1, "XI2": x2, "XI3": x3, "U": u}
    if xi_n is not None:
        out["XIN"] = xi_n
        out["W"] = u + xi_n * xi_n
    return out


def eval_scalar(e: ScalarExpr, ctx: NumericContext,
                point=None) -> complex:
    bindings = dict(ctx.assignment)
    bindings.update(_point_bindings(point))
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
                  point=None) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for basis, coeff in a.terms.items():
        out += eval_scalar(coeff, ctx, point) * ctx.rep.basis_matrix(basis)
    return out


def eval_symbol(s: BoundarySymbol, ctx: NumericContext,
                point) -> np.ndarray:
    if point is None or point[1] is None:
        raise MissingBinding("boundary symbols need a full (xi', xi_n) point")
    return CompiledSymbol(LoweredSymbol(s, ctx), point[0])(point[1])


def evaluate(sym, ctx: NumericContext, point=None):
    """Dispatch on the symbolic type; matrices for Clifford-valued data,
    complex scalars for ScalarExpr."""
    if isinstance(sym, ScalarExpr):
        return eval_scalar(sym, ctx, point)
    if isinstance(sym, CliffordElem):
        return eval_clifford(sym, ctx, point)
    if isinstance(sym, BoundarySymbol):
        return eval_symbol(sym, ctx, point)
    raise TypeError(f"cannot evaluate {type(sym).__name__}")


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
    fv1: List[float] = [0.0] * 10
    fv2: List[float] = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1, fval2 = f(centr - absc), f(centr + absc)
        fv1[j], fv2[j] = fval1, fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh)
                                     + abs(fv2[j] - reskh))
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
    exactly.
    """

    def real_part(theta: float) -> float:
        t = math.tan(theta)
        return float((f(t) * (1.0 + t * t)).real)

    def imag_part(theta: float) -> float:
        t = math.tan(theta)
        return float((f(t) * (1.0 + t * t)).imag)

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


def quad_sphere(p: Callable[[np.ndarray, np.ndarray, np.ndarray],
                             np.ndarray],
                n_theta: int = 12, n_phi: int = 24) -> complex:
    """Product Gauss-Legendre (polar) x trapezoid (azimuthal) quadrature
    of p over the unit sphere; exact for polynomials of degree <= 23 at the
    default orders (12 Gauss-Legendre nodes in cos(theta), 24 equispaced
    azimuths).

    p is called once per polar ring, with three arrays holding the x, y
    and z of that ring's n_phi nodes, and returns the n_phi values (a
    scalar stands for n_phi equal values).  The nodes are built and the
    weighted values summed node by node in ring order, so a p that works
    point by point gives the sum of a point-by-point rule.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = [2.0 * math.pi * k / n_phi for k in range(n_phi)]
    cos_phi = np.array([math.cos(phi) for phi in phis])
    sin_phi = np.array([math.sin(phi) for phi in phis])
    total = 0j
    for c, w in zip(nodes, weights):
        s = math.sqrt(1.0 - c * c)
        values = p(s * cos_phi, s * sin_phi, np.full(n_phi, c))
        for v in np.broadcast_to(values, (n_phi,)):
            total += w * v
    return total * (2.0 * math.pi / n_phi)


# -- compiled symbols and the end-to-end referee -----------------------------

class LoweredSymbol:
    """A boundary symbol bound to a numeric context, as arrays.

    With HP, F, the f-jets, S, OMEGA and PI bound, each coefficient is a
    polynomial in the point variables XI1, XI2, XI3, U.  The entries, each
    xi_n**deg over its pole key, are put over one common denominator
    (xi_n - r)**A (xi_n + r)**B with r = i on shell and r = i*sqrt(U) off
    shell (where A = B and the denominator is (U + xi_n**2)**A), so the
    symbol is a polynomial in xi_n over that one scalar.  `exps` holds the
    exponents of each point monomial, one row each, and `lift` maps the
    monomial values to the flattened 4x4 matrix coefficients of xi_n**0,
    xi_n**1, ..., stacked, with the bound weights, the gamma basis
    matrices and the numerators over the common denominator folded in.
    A coefficient holding any other name (XIN, W) raises MissingBinding.
    """

    def __init__(self, s: BoundarySymbol, ctx: NumericContext):
        self.shell = s.shell
        entries = [(key, deg, coeff) for key, poly in s.terms.items()
                   for deg, coeff in poly.coeffs.items()]
        rows: Dict[Tuple[int, ...], int] = {}
        cols = []
        for e, (_, _, coeff) in enumerate(entries):
            for basis, scalar in coeff.terms.items():
                mat = ctx.rep.basis_matrix(basis).ravel()
                for mono, c in scalar.terms.items():
                    exps, weight = [0, 0, 0, 0], complex(c)
                    for idx, k in mono:
                        if idx in _LOWERED_POINT:
                            exps[_LOWERED_POINT[idx]] = k
                        else:
                            weight *= _lookup(ctx.assignment, NAMES[idx]) ** k
                    row = rows.setdefault(tuple(exps), len(rows))
                    cols.append((e, row, weight * mat))
        lift = np.zeros((len(entries), 16, len(rows)), dtype=complex)
        for e, row, col in cols:
            lift[e, :, row] += col
        num, self.poles = _numerators(
            s.shell, [key for key, _, _ in entries],
            [deg for _, deg, _ in entries])
        n_xi, n_u = num.shape[1:]
        # numerator term xi_n**n U**p of entry e: row r moves to (r, p)
        self.lift = np.einsum("enp,efr->nfrp", num, lift).reshape(
            16 * n_xi, len(rows) * n_u)
        exps = np.array(list(rows), dtype=int).reshape(-1, 1, 4)
        self.exps = (exps + np.outer(np.arange(n_u), (0, 0, 0, 1))
                     ).reshape(-1, 4)
        self.powers = np.arange(n_xi)


def _numerators(shell: str, keys: list, degs: list):
    """Each entry xi_n**deg / pole(key) as numerator / common denominator.

    Returns num[e, n, p], the coefficient of xi_n**n U**p in entry e's
    numerator, and the pole orders (A, B) of the common denominator.  On
    shell the numerator of key (a, b) is xi_n**deg (xi_n - i)**(A - a)
    (xi_n + i)**(B - b); off shell that of key k is xi_n**deg
    (U + xi_n**2)**(A - k).
    """
    terms = []
    if shell == OFF:
        A = B = max(keys, default=0)
        for k, deg in zip(keys, degs):
            m = A - k
            terms.append({(deg + 2 * j, m - j): math.comb(m, j)
                          for j in range(m + 1)})
    else:
        A = max((a for a, _ in keys), default=0)
        B = max((b for _, b in keys), default=0)
        poly = np.polynomial.polynomial
        for (a, b), deg in zip(keys, degs):
            coeffs = poly.polymul(poly.polypow([-1j, 1], A - a),
                                  poly.polypow([1j, 1], B - b))
            terms.append({(deg + n, 0): c for n, c in enumerate(coeffs)})
    n_xi = 1 + max((n for t in terms for n, _ in t), default=-1)
    n_u = 1 + max((p for t in terms for _, p in t), default=0)
    num = np.zeros((len(terms), n_xi, n_u), dtype=complex)
    for e, t in enumerate(terms):
        for (n, p), c in t.items():
            num[e, n, p] = c
    return num, (A, B)


class CompiledSymbol:
    """A lowered symbol at one tangential covector xi', or at a stack of
    them: the 4x4 matrix coefficients of its xi_n-polynomial numerator, so
    each xi_n evaluation is one power vector times one matrix stack, over
    one scalar per point.

    xi_prime is one point (x1, x2, x3) or an (N, 3) array of points; a
    call at xi_n returns the 4x4 matrix or the (N, 4, 4) stack, through
    the same arithmetic.  Each instance computes its matrices at a given
    xi_n once and returns that same read-only array on every later call at
    an equal xi_n (quad_line's imaginary-part pass revisits the real-part
    pass's nodes, and the sphere nodes of one ring share their xi_n
    nodes).  The memo lives only as long as the instance, which is one
    polar ring of the sphere rule for one factor in crosscheck_case; there
    the ring's trace vector at each xi_n node is kept beside it for as long
    (_ring_traces).
    """

    def __init__(self, lowered: LoweredSymbol,
                 xi_prime: Union[Tuple[float, float, float], np.ndarray]):
        pts = np.asarray(xi_prime, dtype=float)
        self.shape = pts.shape[:-1] + (4, 4)
        x1, x2, x3 = pts.reshape(-1, 3).T
        u = x1 * x1 + x2 * x2 + x3 * x3
        pt = np.stack((x1, x2, x3, u), axis=1)
        self.lowered = lowered
        self.root = (1j * np.sqrt(u)[:, None] if lowered.shell == OFF
                     else 1j)
        # one matrix-vector product per point, stacked: the same float
        # operations as lowering each point on its own
        monomials = np.prod(pt[:, None, :] ** lowered.exps, axis=2)
        self.mats = (lowered.lift @ monomials[:, :, None]).reshape(
            len(pt), -1, 16)
        self._memo: Dict[complex, np.ndarray] = {}

    def __call__(self, xi_n: complex) -> np.ndarray:
        mat = self._memo.get(xi_n)
        if mat is None:
            mat = self._memo[xi_n] = self._evaluate(xi_n)
        return mat

    def _evaluate(self, xi_n: complex) -> np.ndarray:
        low, r = self.lowered, self.root
        a, b = low.poles
        den = (xi_n - r) ** a * (xi_n + r) ** b
        mat = (xi_n ** low.powers @ self.mats / den).reshape(self.shape)
        mat.flags.writeable = False
        return mat


def _ring_traces(left: np.ndarray, right: np.ndarray) -> List[complex]:
    """tr(L_k R_k) for every k of two (N, 4, 4) stacks, as N Python
    complexes.

    tr(L R) = sum_ij L_ij R_ji, so row k of L flattened meets row k of R
    flattened column-major, as one stacked (1 x 16)(16 x 1) product.  This
    gives the bits of the per-matrix dot L[k].ravel() @ R[k].ravel(order="F");
    einsum("kij,kji->k") sums in another order and does not, and the
    referee's adaptive line rule bisects on the rounding of case a1.
    """
    n = len(left)
    return (left.reshape(n, 1, 16)
            @ right.transpose(0, 2, 1).reshape(n, 16, 1)).ravel().tolist()


def crosscheck_case(spec, ctx: NumericContext) -> Dict[str, complex]:
    """Recompute one boundary case fully numerically: evaluate the left
    and right factors as matrices, multiply, matrix-trace, quadrature over
    xi_n, then quadrature over the sphere, times the case coefficient.

    Returns the numeric value, the evaluated symbolic value, and their
    absolute difference.
    """
    from .boundary import case_factors, compute_case

    total = 0j
    for left, right in case_factors(spec, "Dtilde"):
        low_l, low_r = LoweredSymbol(left, ctx), LoweredSymbol(right, ctx)

        def p(x1: np.ndarray, x2: np.ndarray, x3: np.ndarray) -> list:
            # both factors at every node of one polar ring; at each xi_n
            # node the traces of all the ring's products at once, then one
            # line integral per sphere node, each reading its entry k
            ring = np.stack((x1, x2, x3), axis=1)
            lc, rc = CompiledSymbol(low_l, ring), CompiledSymbol(low_r, ring)
            traces: Dict[float, List[complex]] = {}

            def node(k: int) -> Callable[[float], complex]:
                def integrand(t: float) -> complex:
                    # both factors are asked at every evaluation (memo hits
                    # after a ring's first node), one CompiledSymbol call
                    # each, as perfbench's call-count pins expect
                    lt, rt = lc(t), rc(t)
                    vec = traces.get(t)
                    if vec is None:
                        vec = traces[t] = _ring_traces(lt, rt)
                    return vec[k]
                return integrand

            return [quad_line(node(k)) for k in range(len(ring))]

        total += quad_sphere(p)
    total *= complex(spec.coefficient)
    symbolic = compute_case(spec).symbolic_value
    sym_val = eval_scalar(symbolic, ctx)
    return {
        "numeric": total,
        "symbolic": sym_val,
        "abs_error": abs(total - sym_val),
    }

