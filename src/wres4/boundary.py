"""The five-case boundary-term computation and its report.

The boundary correction is a sum over nonnegative j, k and tangential
multi-indices alpha with symbol orders r, l <= -1 subject to

    r + l - k - j - |alpha| - 1 = -4.

With symbols available down to order -2 this leaves exactly five cases.
Each case is evaluated end-to-end in the fixed pipeline order: spatial and
tangential-cotangent derivatives off-shell, restriction to |xi'| = 1, the
half-plane projection on the left factor, xi_n-derivatives, Clifford
multiplication, spinor trace, the xi_n line integral, and the sphere
average.  Every engine value is compared against its golden reference and
the verdict recorded; a mismatch is reported with the engine's own value
kept, never patched.
"""

from __future__ import annotations

from math import factorial
from typing import Dict, Iterator, List, Optional, Tuple

from . import anchors
from .clifford import CliffordElem
from .halfplane import line_integral, pi_plus, trace_symbol
from .scalars import (
    GAUSS_I,
    GaussianRational,
    NAMES,
    ScalarExpr,
    _INDEX,
)
from .sphere import integrate_sphere
from .symbols import (
    OFF,
    BoundarySymbol,
    build_sigma,
    c_xi_poly,
    derive,
    jet_mid,
    restrict_on_shell,
)

_CASE_ORDER = ("a1", "a2", "a3", "b", "c")


class CaseSpec:
    """One index combination of the boundary sum."""

    __slots__ = ("label", "r", "l", "j", "k", "alpha", "coefficient")

    def __init__(self, label: str, r: int, l: int, j: int, k: int, alpha: int):
        self.label = label
        self.r = r
        self.l = l
        self.j = j
        self.k = k
        self.alpha = alpha
        power = alpha + j + k + 1
        self.coefficient = ((-GAUSS_I) ** power
                            / GaussianRational(factorial(j + k + 1)))

    def __repr__(self):
        return (f"CaseSpec({self.label}: r={self.r}, l={self.l}, "
                f"j={self.j}, k={self.k}, |alpha|={self.alpha})")


class CaseResult:
    """Outcome of one case: value, reference comparison, trace of steps."""

    def __init__(self, spec: CaseSpec, symbolic_value: ScalarExpr,
                 paper_value: Optional[ScalarExpr],
                 intermediates: Dict[str, object],
                 intermediate_verdicts: Dict[str, str]):
        self.spec = spec
        self.symbolic_value = symbolic_value
        self.paper_value = paper_value
        self.verdict = anchors.compare(symbolic_value, paper_value)
        self.intermediates = intermediates
        self.intermediate_verdicts = intermediate_verdicts
        self.numeric_record = None


def enumerate_cases() -> List[CaseSpec]:
    """All (r, l, j, k, |alpha|) with r, l in {-1, -2} meeting the order
    constraint; exactly five."""
    found = []
    for r in (-1, -2):
        for l in (-1, -2):
            for j in range(4):
                for k in range(4):
                    for a in range(4):
                        if r + l - k - j - a - 1 == -4:
                            found.append((r, l, j, k, a))
    labels = {}
    for combo in found:
        r, l, j, k, a = combo
        if (r, l) == (-2, -1):
            labels[combo] = "b"
        elif (r, l) == (-1, -2):
            labels[combo] = "c"
        elif a == 1:
            labels[combo] = "a1"
        elif j == 1:
            labels[combo] = "a2"
        else:
            labels[combo] = "a3"
    specs = [CaseSpec(labels[c], *c) for c in found]
    specs.sort(key=lambda s: _CASE_ORDER.index(s.label))
    return specs


def _left_factor(op: str, r: int, j: int, alpha_dir: int,
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


def _right_factor(op: str, l: int, alpha_dir: int, k: int,
                  j: int) -> BoundarySymbol:
    """d^alpha_{x'} d^{j+1}_{xi_n} d^k_{x_n} of the symbol of order l."""
    t = build_sigma(op, l)
    if alpha_dir:
        t = derive(t, f"x_{alpha_dir}")
    for _ in range(k):
        t = derive(t, "x_n")
    t = restrict_on_shell(t)
    return derive(t, "xi_n", j + 1)


def case_factors(spec: CaseSpec,
                 op: str) -> Iterator[Tuple[BoundarySymbol, BoundarySymbol]]:
    """The (left, right) factor pair of each term of one case: one per
    tangential direction 1, 2, 3 when |alpha| = 1, a single pair else."""
    for d in ((1, 2, 3) if spec.alpha else (0,)):
        yield (_left_factor(op, spec.r, spec.j, d, spec.k),
               _right_factor(op, spec.l, d, spec.k, spec.j))


def compute_case(spec: CaseSpec, op: str = "Dtilde") -> CaseResult:
    total = ScalarExpr.zero()
    for left, right in case_factors(spec, op):
        traced = trace_symbol(left.mul(right))
        total = total + integrate_sphere(line_integral(traced))
    total = total * ScalarExpr.const(spec.coefficient)
    paper_value = (anchors.anchor(f"case_{spec.label}")
                   if anchors.has_anchor(f"case_{spec.label}") else None)
    inter, verdicts = _intermediates(spec.label)
    return CaseResult(spec, total, paper_value, inter, verdicts)


def _sandwich(mid: CliffordElem) -> BoundarySymbol:
    """c(xi) mid c(xi) / |xi|^4 as an off-shell symbol."""
    cxi = BoundarySymbol.from_poly(c_xi_poly(), wpow=1)
    return cxi.mul(BoundarySymbol.from_clifford(mid)).mul(cxi)


def _intermediates(label: str):
    """Engine-computed named intermediates for one case, with verdicts."""
    inter: Dict[str, object] = {}
    s1d = build_sigma("D", -1)
    if label == "a1":
        eng10 = restrict_on_shell(derive(s1d, "xi_n"))
        inter["4.10"] = eng10
        for i in (1, 2, 3):
            e9 = pi_plus(restrict_on_shell(derive(s1d, f"xi_{i}")))
            inter[f"4.9[{i}]"] = e9
            inter[f"4.11[{i}]"] = trace_symbol(e9.mul(eng10))
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
        # split d_{x_n} sigma_-1(D^-1) into the numerator-jet part and the
        # denominator-slot part; the printed lines trace each separately
        coeff_part = BoundarySymbol(
            OFF,
            {p: poly.map_coeffs(lambda e: e.x_derivative(4))
             for p, poly in s1d.terms.items()},
            s1d.xder + 1,
        )
        slot_part = derive(s1d, "x_n") - coeff_part
        y1 = restrict_on_shell(derive(slot_part, "xi_n"))
        y2 = restrict_on_shell(derive(coeff_part, "xi_n"))
        inter["4.24"] = trace_symbol(x23.mul(y1))
        inter["4.25"] = trace_symbol(x23.mul(y2))
        inter["4.27"] = restrict_on_shell(derive(s1d, "xi_n"))
    elif label == "b":
        e31 = pi_plus(restrict_on_shell(_sandwich(CliffordElem.c_df())))
        e32 = derive(restrict_on_shell(build_sigma("Dtilde", -1)), "xi_n")
        e35 = pi_plus(restrict_on_shell(_sandwich(jet_mid())))
        inter["4.31"] = e31
        inter["4.32"] = e32
        inter["4.33"] = trace_symbol(e31.mul(e32))
        inter["4.35"] = e35
        inter["4.36"] = trace_symbol(e35.mul(e32))
    elif label == "c":
        e40 = pi_plus(restrict_on_shell(build_sigma("Dtilde", -1)))
        e42 = restrict_on_shell(derive(_sandwich(CliffordElem.c_df()),
                                       "xi_n"))
        e43 = restrict_on_shell(derive(build_sigma("D", -2), "xi_n"))
        e48 = restrict_on_shell(derive(_sandwich(jet_mid()), "xi_n"))
        inter["4.40"] = e40
        inter["4.42"] = e42
        inter["4.43"] = e43
        inter["4.44"] = trace_symbol(
            e40.mul(e43.scale(ScalarExpr.const(2) * ScalarExpr.f_inverse())))
        inter["4.46"] = trace_symbol(e40.mul(e42))
        inter["4.48"] = e48
        inter["4.49"] = trace_symbol(e40.mul(e48))
    verdicts = {}
    for name, value in inter.items():
        ref = anchors.anchor(name) if anchors.has_anchor(name) else None
        verdicts[name] = anchors.compare(value, ref)
    return inter, verdicts


# -- assembly ----------------------------------------------------------------

_HP_IDX = _INDEX["HP"]
_FJET_IDX = tuple(_INDEX[n] for n in NAMES if n.startswith("FI"))


def hp_part(e: ScalarExpr) -> ScalarExpr:
    """The h'(0)-carrying monomials of an expression."""
    keep = {m: c for m, c in e.terms.items()
            if any(idx == _HP_IDX for idx, _ in m)}
    return ScalarExpr(keep)


def fjet_monomials_only(e: ScalarExpr) -> bool:
    """True when every monomial carries a first- or second-order f-jet."""
    return all(any(idx in _FJET_IDX for idx, _ in m)
               for m in e.terms)


class PhiReport:
    """The assembled boundary term and its certification flags."""

    def __init__(self, cases: Dict[str, CaseResult]):
        self.cases = cases
        total = ScalarExpr.zero()
        for label in _CASE_ORDER:
            total = total + cases[label].symbolic_value
        self.total = total
        bc = (cases["b"].symbolic_value + cases["c"].symbolic_value)
        self.b_plus_c_zero = bc.is_zero()
        hp_sum = hp_part(cases["a2"].symbolic_value
                         + cases["a3"].symbolic_value)
        self.hp_cancellation = hp_sum.is_zero()
        self.paper_value = anchors.anchor("4.52")
        self.verdict = anchors.compare(self.total, self.paper_value)
        self.fjet_only = fjet_monomials_only(self.total)


def assemble_phi() -> PhiReport:
    cases = {}
    for spec in enumerate_cases():
        cases[spec.label] = compute_case(spec)
    return PhiReport(cases)


def theorem42_report(phi: PhiReport, interior) -> dict:
    """Two-term statement: interior integrand plus the boundary term."""
    doc = {
        "interior": {
            "engine_value": repr(interior.engine_value),
            "paper_value": repr(interior.paper_value),
            "verdict": interior.verdict,
        },
        "boundary": {
            "engine_phi": repr(phi.total),
            "paper_phi": repr(phi.paper_value),
            "verdict": phi.verdict,
            "b_plus_c_zero": phi.b_plus_c_zero,
            "hp_cancellation": phi.hp_cancellation,
            "fjet_only": phi.fjet_only,
        },
        "cases": {
            label: {
                "coefficient": str(res.spec.coefficient),
                "symbolic_value": repr(res.symbolic_value),
                "verdict": res.verdict,
            }
            for label, res in phi.cases.items()
        },
    }
    return doc
