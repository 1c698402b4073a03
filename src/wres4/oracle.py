"""Independent floating-point referee for the symbolic engine.

Explicit 4x4 gamma matrices, seeded random parameter assignments, and
quadrature for line, contour, and sphere integrals.  Every symbolic value
can be evaluated to a complex matrix or scalar, and every integral in the
pipeline can be recomputed by adaptive or spectral quadrature, so any
symbolic/reference mismatch is adjudicated numerically rather than by
fiat.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .clifford import CliffordElem
from .errors import MissingBinding, NonConvergence
from .scalars import NAMES, ScalarExpr
from .symbols import OFF, BoundarySymbol

_POINT_NAMES = ("XI1", "XI2", "XI3", "XIN", "U", "W")
_RANDOM_NAMES = tuple(n for n in NAMES
                      if n not in _POINT_NAMES + ("OMEGA", "PI"))
_F_IDX = NAMES.index("F")
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
    fpow = e.fpow
    total = sum(
        complex(coeff) * math.prod(_num_factors(bindings, mono, fpow))
        for mono, coeff in e.terms.items()
    )
    return total / bindings["F"] ** fpow


def _num_factors(bindings: Dict[str, complex], mono, fpow: int):
    """Bound powers of the numerator monomial mono * F**fpow of the
    num / F**fpow view, in variable order, without building the view."""
    for idx, exp in mono:
        if fpow and idx >= _F_IDX:
            if idx == _F_IDX:
                exp += fpow
                fpow = 0
                if not exp:
                    continue
            else:
                yield bindings["F"] ** fpow
                fpow = 0
        yield _lookup(bindings, NAMES[idx]) ** exp
    if fpow:
        yield bindings["F"] ** fpow


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

def quad_line(f: Callable[[float], complex], ctx: NumericContext,
              tol: float = 1e-10) -> complex:
    """Adaptive quadrature of f over the real line via xi_n = tan(theta)."""

    def wrapped(theta: float, part) -> float:
        t = math.tan(theta)
        val = f(t) * (1.0 + t * t)
        return val.real if part == 0 else val.imag

    out = 0j
    for part, unit in ((0, 1.0), (1, 1j)):
        val, err = quad(wrapped, -math.pi / 2, math.pi / 2, args=(part,),
                        epsabs=tol, epsrel=tol, limit=200)
        if err > 100 * max(tol, 1e-13 * abs(val)) + 1e-8:
            raise NonConvergence(f"line quadrature error estimate {err}")
        out += unit * val
    return out


def quad_contour_pi_plus(h: Callable[[complex], complex], xi0: float,
                         ctx: NumericContext, radius: float = 0.8,
                         n: int = 4096, u: float = -1e-12) -> complex:
    """The half-plane projection as a contour integral: average of
    h(xi)/(xi0 + iu - xi) over a circle around +i, with u -> 0^-.

    The circle encloses exactly the upper-half-plane pole at +i, so the
    trapezoid rule converges spectrally for the rational integrands at
    hand.
    """
    total = 0j
    for k in range(n):
        theta = 2.0 * math.pi * k / n
        z = 1j + radius * cmath.exp(1j * theta)
        dz = radius * 1j * cmath.exp(1j * theta)
        total += h(z) / (xi0 + 1j * u - z) * dz
    return total * (2.0 * math.pi / n) / (2j * math.pi)


def quad_sphere(p: Callable[[float, float, float], complex],
                ctx: NumericContext, n_theta: int = 12,
                n_phi: int = 24) -> complex:
    """Product Gauss-Legendre (polar) x trapezoid (azimuthal) quadrature
    of p over the unit sphere; exact for polynomials of degree <= 8 at the
    default orders."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    total = 0j
    for c, w in zip(nodes, weights):
        s = math.sqrt(1.0 - c * c)
        for k in range(n_phi):
            phi = 2.0 * math.pi * k / n_phi
            total += w * p(s * math.cos(phi), s * math.sin(phi), c)
    return total * (2.0 * math.pi / n_phi)


# -- compiled symbols and the end-to-end referee -----------------------------

class LoweredSymbol:
    """A boundary symbol bound to a numeric context, as arrays.

    With HP, F, the f-jets, S, OMEGA and PI bound, each coefficient is a
    polynomial in the point variables XI1, XI2, XI3, U.  `exps` holds the
    exponents of each distinct point monomial, one row each, and `lift`
    maps the monomial values to the flattened 4x4 matrices of all (pole
    key, xi_n degree) entries, stacked, with the bound weights and the
    gamma basis matrices folded in.  A coefficient holding any other name
    (XIN, W) raises MissingBinding.
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
        self.lift = lift.reshape(16 * len(entries), len(rows))
        self.exps = np.array(list(rows), dtype=int).reshape(-1, 4)
        self.degs = np.array([deg for _, deg, _ in entries], dtype=int)
        keys = np.array([key for key, _, _ in entries], dtype=int)
        width = 1 if s.shell == OFF else 2
        self.neg_keys = -keys.reshape(len(entries), width).T


class CompiledSymbol:
    """A lowered symbol at one tangential covector xi': the stacked 4x4
    matrices of its entries, so each xi_n evaluation is one weight vector
    times one matrix."""

    def __init__(self, lowered: LoweredSymbol,
                 xi_prime: Tuple[float, float, float]):
        x1, x2, x3 = xi_prime
        pt = np.array([x1, x2, x3, x1 * x1 + x2 * x2 + x3 * x3])
        self.lowered = lowered
        self.u = pt[3]
        self.mats = (lowered.lift @ np.prod(pt ** lowered.exps, axis=1)
                     ).reshape(-1, 16)

    def __call__(self, xi_n: complex) -> np.ndarray:
        low = self.lowered
        if low.shell == OFF:
            (k,) = low.neg_keys
            w = xi_n ** low.degs * (self.u + xi_n * xi_n) ** k
        else:
            a, b = low.neg_keys
            w = xi_n ** low.degs * (xi_n - 1j) ** a * (xi_n + 1j) ** b
        return (w @ self.mats).reshape(4, 4)


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

        def p(x1: float, x2: float, x3: float) -> complex:
            lc = CompiledSymbol(low_l, (x1, x2, x3))
            rc = CompiledSymbol(low_r, (x1, x2, x3))
            # tr(L R) = sum_ij L_ij R_ji: R flattened column-major
            return quad_line(
                lambda t: lc(t).ravel() @ rc(t).ravel(order="F"), ctx,
                tol=1e-11)

        total += quad_sphere(p, ctx)
    total *= complex(spec.coefficient)
    symbolic = compute_case(spec).symbolic_value
    sym_val = eval_scalar(symbolic, ctx)
    return {
        "numeric": total,
        "symbolic": sym_val,
        "abs_error": abs(total - sym_val),
    }


def adjudicate_phi(phi, seeds: Sequence[int] = (42,),
                   labels: Optional[Sequence[str]] = None):
    """Attach a numeric record to each case of an assembled boundary
    report: the maximum absolute deviation between the symbolic total and
    the fully numeric pipeline across the given seeds."""
    for label, res in phi.cases.items():
        if labels is not None and label not in labels:
            continue
        errors = []
        for seed in seeds:
            ctx = NumericContext(seed)
            errors.append(crosscheck_case(res.spec, ctx)["abs_error"])
        res.numeric_record = {
            "seeds": list(seeds),
            "samples": len(errors),
            "max_abs_error": max(errors),
        }
    return phi
