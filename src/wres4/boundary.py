"""The five-case boundary-term computation and its report.

The boundary correction is a sum over nonnegative j, k and tangential
multi-indices alpha with symbol orders r, l <= -1 subject to

    r + l - k - j - |alpha| - 1 = -4.

With symbols available down to order -2 this leaves exactly five cases.
Each case is evaluated end-to-end in the fixed pipeline order: spatial and
tangential-cotangent derivatives off-shell, restriction to |xi'| = 1, the
half-plane projection on the left factor, xi_n-derivatives, Clifford
multiplication, spinor trace, the xi_n line integral, and the sphere
average.  The functions here return plain engine values; the CLI pairs
each with its golden reference and judges it, so a mismatch is reported
with the engine's own value kept, never patched.  ``intermediates``
recomputes the printed steps of one case for the audit.
"""

from __future__ import annotations

import functools
from itertools import product
from math import factorial
from typing import Dict, List, NamedTuple, Tuple

from . import CASE_LABELS
from .clifford import CliffordElem
from .halfplane import line_integral, pi_plus, trace_symbol
from .scalars import GAUSS_I, GaussianRational, ScalarExpr, _INDEX
from .sphere import integrate_sphere
from .symbols import (
    D,
    DTILDE,
    BoundarySymbol,
    Operator,
    build_sigma,
    d_x_parts,
    derive,
    jet_mid,
    restrict_on_shell,
    sandwich,
)


class CaseSpec(NamedTuple):
    """One index combination of the boundary sum; the engine's cache key
    for that case's factors and value."""

    label: str
    r: int
    l: int
    j: int
    k: int
    alpha: int

    @property
    def coefficient(self) -> GaussianRational:
        """(-i)^(|alpha|+j+k+1) / (j+k+1)!, the case's prefactor."""
        return ((-GAUSS_I) ** (self.alpha + self.j + self.k + 1)
                / GaussianRational(factorial(self.j + self.k + 1)))


def enumerate_cases() -> List[CaseSpec]:
    """All (r, l, j, k, |alpha|) with r, l in {-1, -2} meeting the order
    constraint; exactly five.  b and c have one factor of order -2; of the
    three with r = l = -1, exactly one of |alpha|, j, k is 1."""
    specs = []
    for r, l, j, k, a in product((-1, -2), (-1, -2),
                                 range(4), range(4), range(4)):
        if r + l - k - j - a - 1 == -4:
            if r != l:
                label = "b" if r == -2 else "c"
            else:
                label = "a1" if a else "a2" if j else "a3"
            specs.append(CaseSpec(label, r, l, j, k, a))
    return sorted(specs, key=lambda s: CASE_LABELS.index(s.label))


def _left_factor(op: Operator, r: int, j: int, alpha_dir: int,
                 k: int) -> BoundarySymbol:
    """d^j_{x_n} d^alpha_{xi'} d^k_{xi_n} of the projected symbol of order r.

    Parameter derivatives commute with the projection, so they act
    off-shell before it; the xi_n-derivatives act after.
    """
    s = build_sigma(op, r)
    for _ in range(j):
        s = derive(s, "x_n")
    if alpha_dir:
        s = derive(s, f"xi_{alpha_dir}")
    s = pi_plus(restrict_on_shell(s))
    return derive(s, "xi_n", k)


def _right_factor(op: Operator, l: int, alpha_dir: int, k: int,
                  j: int) -> BoundarySymbol:
    """d^alpha_{x'} d^{j+1}_{xi_n} d^k_{x_n} of the symbol of order l."""
    t = build_sigma(op, l)
    if alpha_dir:
        t = derive(t, f"x_{alpha_dir}")
    for _ in range(k):
        t = derive(t, "x_n")
    t = restrict_on_shell(t)
    return derive(t, "xi_n", j + 1)


# A case's factors and value are computed once per process and shared, so
# no caller may mutate them.  Callers pass op positionally, so that every
# call for one case hits the same cache entry.

@functools.cache
def case_factors(
        spec: CaseSpec,
        op: Operator) -> Tuple[Tuple[BoundarySymbol, BoundarySymbol], ...]:
    """The (left, right) factor pair of each term of one case: one per
    tangential direction 1, 2, 3 when |alpha| = 1, a single pair else."""
    return tuple((_left_factor(op, spec.r, spec.j, d, spec.k),
                  _right_factor(op, spec.l, d, spec.k, spec.j))
                 for d in ((1, 2, 3) if spec.alpha else (0,)))


@functools.cache
def _case_value(spec: CaseSpec, op: Operator) -> ScalarExpr:
    total = ScalarExpr.zero()
    for left, right in case_factors(spec, op):
        traced = trace_symbol(left, right)
        total = total + integrate_sphere(line_integral(traced))
    return total * ScalarExpr.const(spec.coefficient)


def compute_case(spec: CaseSpec, op: Operator = DTILDE) -> ScalarExpr:
    """The value of one case.  The printed steps are audited separately,
    by ``intermediates``."""
    return _case_value(spec, op)


def intermediates(label: str) -> Dict[str, object]:
    """Engine values of the printed steps of one case, keyed by anchor id."""
    inter: Dict[str, object] = {}
    s1d = build_sigma(D, -1)
    if label == "a1":
        eng10 = restrict_on_shell(derive(s1d, "xi_n"))
        inter["4.10"] = eng10
        for i in (1, 2, 3):
            e9 = pi_plus(restrict_on_shell(derive(s1d, f"xi_{i}")))
            inter[f"4.9[{i}]"] = e9
            inter[f"4.11[{i}]"] = trace_symbol(e9, eng10)
    elif label == "a2":
        inter["4.14"] = derive(s1d, "xi_n", 2)
        e15 = derive(s1d, "x_n")
        inter["4.15"] = e15
        inter["4.16"] = pi_plus(restrict_on_shell(e15))
        inter["4.19"] = pi_plus(restrict_on_shell(s1d))
    elif label == "a3":
        inter["4.22"] = restrict_on_shell(derive(derive(s1d, "x_n"), "xi_n"))
        x23 = derive(pi_plus(restrict_on_shell(s1d)), "xi_n")
        inter["4.23"] = x23
        # the printed lines trace the |xi|^2-slot half and the
        # numerator-jet half of d_{x_n} sigma_-1(D^-1) separately
        jet_part, slot_part = d_x_parts(s1d, 4)
        y1 = restrict_on_shell(derive(slot_part, "xi_n"))
        y2 = restrict_on_shell(derive(jet_part, "xi_n"))
        inter["4.24"] = trace_symbol(x23, y1)
        inter["4.25"] = trace_symbol(x23, y2)
        inter["4.27"] = restrict_on_shell(derive(s1d, "xi_n"))
    elif label == "b":
        e31 = pi_plus(restrict_on_shell(sandwich(CliffordElem.c_df())))
        e32 = derive(restrict_on_shell(build_sigma(DTILDE, -1)), "xi_n")
        e35 = pi_plus(restrict_on_shell(sandwich(jet_mid())))
        inter["4.31"] = e31
        inter["4.32"] = e32
        inter["4.33"] = trace_symbol(e31, e32)
        inter["4.35"] = e35
        inter["4.36"] = trace_symbol(e35, e32)
    elif label == "c":
        e40 = pi_plus(restrict_on_shell(build_sigma(DTILDE, -1)))
        e42 = restrict_on_shell(derive(sandwich(CliffordElem.c_df()),
                                       "xi_n"))
        e43 = restrict_on_shell(derive(build_sigma(D, -2), "xi_n"))
        e48 = restrict_on_shell(derive(sandwich(jet_mid()), "xi_n"))
        inter["4.40"] = e40
        inter["4.42"] = e42
        inter["4.43"] = e43
        inter["4.44"] = trace_symbol(
            e40, e43.scale(ScalarExpr.const(2) * ScalarExpr.f_inverse()))
        inter["4.46"] = trace_symbol(e40, e42)
        inter["4.48"] = e48
        inter["4.49"] = trace_symbol(e40, e48)
    return inter


# -- assembly ----------------------------------------------------------------

_HP_IDX = _INDEX["HP"]


def hp_part(e: ScalarExpr) -> ScalarExpr:
    """The h'(0)-carrying monomials of an expression."""
    keep = {m: c for m, c in e.terms.items()
            if any(idx == _HP_IDX for idx, _ in m)}
    return ScalarExpr(keep)


def case_specs() -> Dict[str, CaseSpec]:
    """``enumerate_cases`` keyed by label; a lost, extra or reordered case
    raises instead of dropping its row."""
    specs = enumerate_cases()
    labels = tuple(spec.label for spec in specs)
    if labels != CASE_LABELS:
        missing = [x for x in CASE_LABELS if x not in labels]
        raise LookupError(f"boundary cases {labels}, missing {missing}")
    return dict(zip(labels, specs))


def assemble_phi() -> Dict[str, ScalarExpr]:
    """The five case values, keyed by label in ``CASE_LABELS`` order; the
    boundary term is their sum."""
    return {label: compute_case(spec) for label, spec in case_specs().items()}
