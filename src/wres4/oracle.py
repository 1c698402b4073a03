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
        for mono, coeff in e.poly.terms.items()
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
    return CompiledSymbol(s, ctx, point[0])(point[1])


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

class CompiledSymbol:
    """A boundary symbol frozen at a context and a tangential covector:
    numeric matrix coefficients per (pole-structure, xi_n-degree), so each
    xi_n evaluation is a handful of numpy operations."""

    def __init__(self, s: BoundarySymbol, ctx: NumericContext,
                 xi_prime: Tuple[float, float, float]):
        self.shell = s.shell
        self.u = (xi_prime[0] ** 2 + xi_prime[1] ** 2 + xi_prime[2] ** 2)
        self.entries = []
        for key, poly in s.terms.items():
            mats = {deg: eval_clifford(coeff, ctx, (xi_prime, None))
                    for deg, coeff in poly.coeffs.items()}
            self.entries.append((key, mats))

    def __call__(self, xi_n: complex) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for key, mats in self.entries:
            acc = np.zeros((4, 4), dtype=complex)
            for deg, m in mats.items():
                acc += xi_n ** deg * m
            if self.shell == OFF:
                acc /= (self.u + xi_n * xi_n) ** key
            else:
                a, b = key
                acc /= (xi_n - 1j) ** a * (xi_n + 1j) ** b
            out += acc
        return out


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

        def p(x1: float, x2: float, x3: float) -> complex:
            lc = CompiledSymbol(left, ctx, (x1, x2, x3))
            rc = CompiledSymbol(right, ctx, (x1, x2, x3))
            return quad_line(
                lambda t: np.trace(lc(t) @ rc(t)), ctx, tol=1e-11)

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
