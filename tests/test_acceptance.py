"""Acceptance gate.

One test per acceptance criterion; the `pytest -v` line per test is the
per-criterion pass/fail record.  Sub-clauses whose stored reference values
the engine and the numeric referee both reject are kept as strict xfails
so they stay visibly red instead of being patched; each such clause has a
matching entry in the shipped discrepancy ledger and in the decisions
log.
"""

import math
import random
import time

import numpy as np
import pytest

from wres4 import anchors
from wres4.anchors import E_closed_form, trace_braces
from wres4.boundary import assemble_phi, enumerate_cases, hp_part
from wres4.clifford import CliffordElem, spin_trace
from wres4.halfplane import (
    line_integral,
    pi_plus,
    trace_symbol,
)
from wres4.interior import (
    compute_E_at_x0,
    theorem32_prefactor,
    trace_interior,
)
from wres4.oracle import (
    GammaRep,
    NumericContext,
    crosscheck_case,
    eval_scalar,
    quad_line,
    quad_sphere,
)
from wres4.scalars import (
    NAMES,
    GaussianRational,
    S_CURV,
    ScalarExpr,
    frac,
    reduce_sphere,
)
from wres4.sphere import integrate_sphere, moment
from wres4.symbols import (
    D,
    DTILDE,
    build_sigma,
    derive,
    jet_mid,
    parametrix,
    restrict_on_shell,
    sandwich,
)

from helpers import (
    at_point,
    evaluate,
    known_ids,
    line_integral_lower,
    pure_dirac_limit,
    quad_contour_pi_plus,
    rand_elem,
    scalar_term,
    symbol_at,
)

SEEDS = (11, 23, 42, 101, 977)
HP = ScalarExpr.var("HP")
PI = ScalarExpr.var("PI")
OMEGA = ScalarExpr.var("OMEGA")
FINV = ScalarExpr.f_inverse


@pytest.fixture(scope="module")
def phi():
    return assemble_phi()


@pytest.fixture(scope="module")
def crosschecks():
    """Fully numeric recomputation of every case for every seed; shared
    by criteria 5 and 6."""
    out = {}
    for seed in SEEDS:
        ctx = NumericContext(seed)
        out[seed] = {spec.label: crosscheck_case(spec, ctx)
                     for spec in enumerate_cases()}
    return out


def test_criterion1_trace_suite():
    start = time.monotonic()
    cxp = CliffordElem.c_xi_prime()
    cdxn = CliffordElem.c_dxn()
    dcxp = cxp.x_derivative(4)
    assert spin_trace(cxp * cdxn) == ScalarExpr.zero()
    assert spin_trace(cdxn * cdxn) == ScalarExpr.const(-4)
    assert reduce_sphere(spin_trace(cxp * cxp)) == ScalarExpr.const(-4)
    assert spin_trace(dcxp * cdxn) == ScalarExpr.zero()
    assert reduce_sphere(spin_trace(dcxp * cxp)) == ScalarExpr.const(-2) * HP
    rng = random.Random(3)
    for _ in range(500):
        a, b = rand_elem(rng), rand_elem(rng)
        assert spin_trace(a * b) == spin_trace(b * a)
        assert spin_trace(a + b) == spin_trace(a) + spin_trace(b)
    assert time.monotonic() - start < 1.0


def test_criterion2_parametrix_equivalence():
    start = time.monotonic()
    for op in (D, DTILDE):
        r1, r2 = parametrix(build_sigma(op, 1), build_sigma(op, 0))
        assert r1.canonical() == anchors.lemma41(op, -1).canonical()
        # exact agreement with Lemma 4.1's closed form; the
        # factor-bookkeeping question resolved with no residual, so no
        # numeric adjudication is required
        assert r2.canonical() == anchors.lemma41(op, -2).canonical()
    assert time.monotonic() - start < 10.0


def test_criterion3_projection_anchors():
    checks = {
        "4.40": pi_plus(restrict_on_shell(build_sigma(DTILDE, -1))),
        "4.16": pi_plus(restrict_on_shell(
            derive(build_sigma(D, -1), x=(4,)))),
        "4.23": derive(pi_plus(restrict_on_shell(
            build_sigma(D, -1))), xi=(4,)),
        "4.31": None,
        "4.35": None,
    }
    checks["4.31"] = pi_plus(restrict_on_shell(
        sandwich(CliffordElem.c_df())))
    checks["4.35"] = pi_plus(restrict_on_shell(sandwich(jet_mid())))
    for label, engine in checks.items():
        assert anchors.compare(engine, anchors.anchor(label)) == "match"

    # the documented sign discrepancy, adjudicated by the contour oracle
    # at 10 sample points
    engine_419 = pi_plus(restrict_on_shell(build_sigma(D, -1)))
    assert anchors.compare(engine_419, anchors.anchor("4.19")) == "mismatch"
    assert "4.19" in known_ids()
    ctx = NumericContext(42)
    full = restrict_on_shell(build_sigma(D, -1))
    xp = (0.28, -0.96, 0.0)
    # bound to ctx and xp once; each contour node is then one call
    value = symbol_at(full, ctx, xp)
    for k in range(10):
        xi0 = -2.2 + 0.5 * k
        num = quad_contour_pi_plus(lambda z: np.asarray(value(z)), xi0)
        sym = evaluate(engine_419, ctx, (xp, xi0))
        scale = max(1.0, float(np.abs(sym).max()))
        assert np.abs(num - sym).max() / scale < 1e-8


def test_criterion4_residue_primitives():
    # Cauchy kernel
    assert line_integral(scalar_term({0: 1}, 1, 1)) == PI
    # the composite: prefactor times line integral times sphere average
    s = pi_plus(restrict_on_shell(derive(build_sigma(D, -1), x=(4,))))
    t = derive(restrict_on_shell(build_sigma(D, -1)), xi=(4, 4))
    composite = (ScalarExpr.const(-2) * FINV(2)
                 * integrate_sphere(line_integral(trace_symbol(s, t))))
    assert composite == ScalarExpr.const(-3) / 2 * FINV(2) * HP * PI * OMEGA
    # upper vs lower closed-contour consistency on 500 random rationals
    rng = random.Random(5)
    for _ in range(500):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        coeffs = {d: GaussianRational(rng.randint(-9, 9),
                                      rng.randint(-9, 9))
                  for d in range(a + b - 1)}
        sym = scalar_term(coeffs, a, b)
        assert line_integral(sym) == line_integral_lower(sym)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ledgered discrepancy 4.20: the cross integral "
                   "is -pi, not 0; certified symbolically and by "
                   "quadrature")
def test_criterion4_reference_cross_integral_is_zero():
    s = pi_plus(restrict_on_shell(build_sigma(D, -1)))
    t = derive(restrict_on_shell(build_sigma(D, -1)), xi=(4, 4))
    val = line_integral(trace_symbol(s, t))
    assert val.is_zero()


def test_criterion4_cross_integral_certified_value():
    # the engine value of the 4.20 integrand, confirmed by quadrature
    s = pi_plus(restrict_on_shell(build_sigma(D, -1)))
    t = derive(restrict_on_shell(build_sigma(D, -1)), xi=(4, 4))
    val = line_integral(trace_symbol(s, t))
    assert val == -PI
    ctx = NumericContext(42)
    xp = (0.6, 0.64, math.sqrt(1 - 0.36 - 0.4096))
    s_at, t_at = symbol_at(s, ctx, xp), symbol_at(t, ctx, xp)
    num = quad_line(lambda xi_n: np.trace(
        np.asarray(s_at(xi_n)) @ np.asarray(t_at(xi_n))))
    assert abs(num - (-math.pi)) < 1e-9


def test_criterion5_case_totals(phi, crosschecks):
    assert phi["a1"].is_zero()
    assert (phi["b"] + phi["c"]).is_zero()
    hp_sum = hp_part(phi["a2"] + phi["a3"])
    assert hp_sum.is_zero()
    # b and c match their stored references exactly
    for label in ("b", "c"):
        assert anchors.compare(phi[label],
                               anchors.anchor(f"case_{label}")) == "match"
    # a2 and a3 are ledgered mismatches, numerically adjudicated on every
    # seed to 1e-8 relative
    ids = known_ids()
    for label in ("a2", "a3"):
        assert anchors.compare(phi[label],
                               anchors.anchor(f"case_{label}")) == "mismatch"
        assert f"case_{label}" in ids
    for seed in SEEDS:
        for label, rec in crosschecks[seed].items():
            scale = max(1.0, abs(rec["symbolic"]))
            assert rec["abs_error"] / scale < 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ledgered discrepancies case_a2 / 4.20: the "
                   "engine total carries the extra f-jet term "
                   "-2 pi (d_n f) f^-3 Omega_3")
def test_criterion5_reference_a2_total_exact(phi):
    expected = ScalarExpr.const(-3) / 2 * FINV(2) * PI * HP * OMEGA
    assert phi["a2"] == expected


def test_criterion6_phi_assembly(phi, crosschecks):
    total = sum(phi.values(), ScalarExpr.zero())
    # (i) finite monomial sum in the allowed alphabet (zero qualifies)
    allowed = {"PI", "OMEGA", "F", "HP",
               "FI1", "FI2", "FI3", "FI4"} | {
        f"FIJ{j}{k}" for j in range(1, 5) for k in range(j, 5)}
    assert {NAMES[idx] for m in total.terms for idx, _ in m} <= allowed
    # (ii) no h'(0) term survives
    assert hp_part(total).is_zero()
    # (iii) numeric pipeline agreement on every seed; the engine total is
    # exactly zero, so the comparison uses an absolute tolerance scaled
    # by the largest single-case magnitude (ledgered)
    for seed in SEEDS:
        numeric_phi = sum(rec["numeric"]
                          for rec in crosschecks[seed].values())
        scale = max(abs(rec["symbolic"])
                    for rec in crosschecks[seed].values())
        assert abs(numeric_phi) < 1e-8 * max(1.0, scale)
    # (iv) the relation to the stored reference total is in the ledger
    assert anchors.compare(total, anchors.anchor("4.52")) == "mismatch"
    assert "4.52" in known_ids()
    assert total.is_zero()


def test_criterion7_interior():
    # pure-Dirac limit: E = -s/4 and braces value s/12
    E0 = pure_dirac_limit(compute_E_at_x0())
    assert E0 == CliffordElem.scalar(frac(-1, 4) * S_CURV)
    braces0 = spin_trace(CliffordElem.scalar(frac(1, 6) * S_CURV) + E0)
    assert braces0 == ScalarExpr.const(-4) * (frac(1, 12) * S_CURV)
    # trace comparison is ledgered
    assert anchors.compare(trace_interior(), trace_braces()) == "mismatch"
    assert "3.22" in known_ids()
    # residue prefactor reproduced exactly
    assert theorem32_prefactor() == (ScalarExpr.const(-512) * PI ** 2
                                     * FINV(2))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ledgered discrepancy 3.19: the raw-data route "
                   "fixes the mixed term at -1/2, so the stored closed "
                   "form (+1/2) differs by |df|^2/f^2")
def test_criterion7_reference_closed_form_exact():
    assert compute_E_at_x0() == E_closed_form()


def test_criterion8_sphere_moments():
    for a in range(8):
        for b in range(8 - a):
            for c in range(8 - a - b):
                if a % 2 or b % 2 or c % 2:
                    assert moment(a, b, c) == 0
    rng = random.Random(13)

    def rand_poly():
        out = ScalarExpr.zero()
        for _ in range(5):
            term = ScalarExpr.const(rng.randint(-5, 5))
            for name in ("XI1", "XI2", "XI3"):
                term = term * ScalarExpr.var(name, rng.randint(0, 2))
            out = out + term
        return out

    polys = [rand_poly() for _ in range(200)]
    for p in polys:
        total = ScalarExpr.zero()
        for name in ("XI1", "XI2", "XI3"):
            total = total + integrate_sphere(ScalarExpr.var(name, 2) * p)
        assert total == integrate_sphere(p)
    # quadrature referee after Omega_3 -> 4 pi
    ctx = NumericContext(42)
    for p in polys[:20]:
        exact = eval_scalar(integrate_sphere(p), ctx)
        num = quad_sphere(
            lambda x, y, z: eval_scalar(p, at_point(ctx, (x, y, z))))
        assert abs(num - exact) < 1e-10 * max(1.0, abs(exact))


def test_criterion9_oracle_soundness():
    assert GammaRep().max_relation_defect() < 1e-14
    ctx = NumericContext(42)
    rng = random.Random(17)
    pt = ((0.1, -0.7, 0.6), 0.9)
    for _ in range(200):
        a, b = rand_elem(rng), rand_elem(rng)
        lhs = np.asarray(evaluate(a * b, ctx, pt))
        rhs = np.asarray(evaluate(a, ctx, pt)) @ np.asarray(
            evaluate(b, ctx, pt))
        scale = max(1.0, float(np.abs(lhs).max()))
        assert np.abs(lhs - rhs).max() / scale < 1e-12
    # bit-identical reruns per seed
    for seed in (0, 1, 42):
        a = NumericContext(seed)
        b = NumericContext(seed)
        assert a.assignment == b.assignment
        va = quad_line(lambda t: 1 / (1 + t * t))
        vb = quad_line(lambda t: 1 / (1 + t * t))
        assert va == vb
