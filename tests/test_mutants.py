"""Semantic mutants of the exact engine against the CLI's exit code.

Each mutant monkeypatches one engine name, or one field of an operator's
data, and clears the caches that would otherwise keep the unmutated
values.  A row names the verb and the rows that kill its mutant.  A
mutant that no gate kills is a strict xfail citing the ROADMAP item meant
to kill it."""

import json

import pytest

from wres4 import anchors, boundary, halfplane, interior, symbols
from wres4.boundary import CaseSpec
from wres4.cli import run
from wres4.clifford import CliffordElem
from wres4.errors import DecayViolation
from wres4.scalars import GAUSS_I, ScalarExpr
from wres4.symbols import D, OFF, ON, BoundarySymbol


def _clear_case_caches():
    for cached in (symbols._sigma, boundary.case_factors,
                   boundary._case_value, anchors.lemma41,
                   interior.compute_E_at_x0):
        cached.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_case_caches()
    yield
    _clear_case_caches()


def _failed_rows(capsys, verb="compute-phi"):
    """Exit code of one verb and the ids of its undocumented
    mismatches."""
    capsys.readouterr()
    status = run([verb, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return status, {r["id"] for r in payload["results"]
                    if r["verdict"] != "match" and not r.get("documented")}


def test_coefficient_without_factorial_fails_compute_phi(fresh_caches,
                                                        monkeypatch, capsys):
    # case_a2 and case_a3 stay mismatches, but leave their ledger pins
    a2 = next(s for s in boundary.enumerate_cases() if s.label == "a2")
    before = boundary.compute_case(a2)
    # (-i)^(|alpha|+j+k+1) without the 1/(j+k+1)!: a2 and a3 double
    monkeypatch.setattr(CaseSpec, "coefficient", property(
        lambda s: (-GAUSS_I) ** (s.alpha + s.j + s.k + 1)))
    boundary._case_value.cache_clear()
    if boundary.compute_case(a2) == before:
        pytest.fail("the mutant leaves case a2 unchanged")
    status, failed = _failed_rows(capsys)
    assert status == 1
    assert {"case_a2", "case_a3"} <= failed


def test_negated_pi_plus_fails_compute_phi(fresh_caches, monkeypatch,
                                          capsys):
    real = halfplane.pi_plus
    for module in (halfplane, boundary):
        monkeypatch.setattr(module, "pi_plus", lambda s: -real(s))
    status, failed = _failed_rows(capsys)
    assert status == 1
    assert {"case_b", "case_c"} <= failed


def test_negated_sigma0_fails_compute_phi(fresh_caches, monkeypatch,
                                         capsys):
    real = symbols.sigma0_dirac
    monkeypatch.setattr(symbols, "sigma0_dirac", lambda: -real())
    status, failed = _failed_rows(capsys)
    assert status == 1
    assert {"case_b", "case_c"} <= failed


def test_negated_sigma0_fails_verify_lemma41(fresh_caches, monkeypatch,
                                            capsys):
    # Lemma 4.1's reference spells sigma_0(D) out, so the mutant reaches
    # the engine's sigma_-2 only
    before = (symbols.build_sigma(D, -2), anchors.lemma41("D", -2))
    _clear_case_caches()
    real = symbols.sigma0_dirac
    monkeypatch.setattr(symbols, "sigma0_dirac", lambda: -real())
    after = (symbols.build_sigma(D, -2), anchors.lemma41("D", -2))
    assert before[0] != after[0], "the mutant leaves sigma_-2 unchanged"
    assert before[1] == after[1]
    status, failed = _failed_rows(capsys, "verify-lemma41")
    assert status == 1
    assert failed == {"parametrix[D,-2]", "parametrix[Dtilde,-2]"}


def test_negated_slot_rule_fails_verify_lemma41(fresh_caches, monkeypatch,
                                               capsys):
    # d_{x_n}|xi|^2 = -h'|xi'|^2 in derive's x-rule; the reference writes
    # d_{x_n}(c(xi)/|xi|^2) out, so only the engine's sigma_-2 moves
    real = symbols.d_x_parts

    def negated(s, j):
        jet, slot = real(s, j)
        return jet, -slot

    monkeypatch.setattr(symbols, "d_x_parts", negated)
    status, failed = _failed_rows(capsys, "verify-lemma41")
    assert status == 1
    assert "parametrix[D,-2]" in failed


def test_doubled_df_norm_fails_compute_interior(fresh_caches, monkeypatch,
                                               capsys):
    # the references spell |df|^2 themselves, so 3.22 leaves its pin; E
    # gains exactly the |df|^2/f^2 by which 3.19's printed form differs
    # from it, so 3.19 reads match
    real = interior.df_norm_sq
    monkeypatch.setattr(interior, "df_norm_sq",
                        lambda: ScalarExpr.const(2) * real())
    status, failed = _failed_rows(capsys, "compute-interior")
    assert status == 1
    assert failed == {"3.22"}


def test_doubled_c_df_term_fails_compute_phi(fresh_caches, monkeypatch,
                                            capsys):
    # Dtilde = (f/2) D + 2 c(df): a change of the operator's data alone
    monkeypatch.setattr(symbols.DTILDE, "potential",
                        CliffordElem.c_df().scale(2))
    status, failed = _failed_rows(capsys)
    assert status == 1
    assert {"case_b", "case_c"} <= failed


@pytest.mark.parametrize("argv", [("compute-phi",),
                                  ("compute-phi", "--case", "a1"),
                                  ("compute-phi", "--case", "b"),
                                  ("crosscheck", "--case", "c")])
def test_dropped_case_fails_every_phi_verb(fresh_caches, monkeypatch,
                                           capsys, argv):
    # a1's value is 0, so a lost a1 changes no sum: only the label check
    # notices it
    real = boundary.enumerate_cases
    monkeypatch.setattr(boundary, "enumerate_cases",
                        lambda: [s for s in real() if s.label != "a1"])
    with pytest.raises(LookupError, match=r"missing \['a1'\]"):
        run([*argv, "--format", "json"])


def _pole_rule_with_plus_a(real):
    # d (xi_n - i)^-a = +a (xi_n - i)^-(a+1): real's -a term plus 2a times
    # it, on-shell only
    def mutant(s):
        if s.shell != ON:
            return real(s)
        extra = {(a + 1, b): {d: e.scale(ScalarExpr.const(2 * a))
                              for d, e in poly.items()}
                 for (a, b), poly in s.terms.items() if a}
        return real(s) + BoundarySymbol(ON, extra, s.xder)
    return mutant


def _w_rule_without_2(real):
    # d(W^-p) = -p xi_n / W^(p+1): real's -2p term plus p times it,
    # off-shell only
    def mutant(s):
        if s.shell != OFF:
            return real(s)
        extra = {p + 1: {d + 1: e.scale(ScalarExpr.const(p))
                         for d, e in poly.items()}
                 for p, poly in s.terms.items() if p}
        return real(s) + BoundarySymbol(OFF, extra, s.xder)
    return mutant


def test_pole_rule_with_plus_a_fails_compute_phi(fresh_caches, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(symbols, "_d_xin",
                        _pole_rule_with_plus_a(symbols._d_xin))
    status, failed = _failed_rows(capsys)
    assert status == 1
    assert {"case_a2", "case_a3", "case_b", "case_c", "phi.b_plus_c",
            "4.23", "4.36"} <= failed


def test_w_rule_without_2_fails_compute_phi(fresh_caches, monkeypatch,
                                            capsys):
    # the case factors take their xi_n-derivatives after the restriction,
    # so only audit rows fail
    monkeypatch.setattr(symbols, "_d_xin", _w_rule_without_2(symbols._d_xin))
    status, failed = _failed_rows(capsys)
    assert status == 1
    assert failed == {"4.10", "4.11[1]", "4.11[2]", "4.11[3]", "4.14",
                      "4.22", "4.24", "4.25", "4.27", "4.42", "4.43",
                      "4.44", "4.46", "4.48", "4.49"}


def test_restriction_keyed_at_plus_i_alone_fails_compute_phi(fresh_caches,
                                                             monkeypatch):
    # W^p as (xi_n - i)^p alone: the symbols no longer decay, so pi_plus
    # refuses them
    def mutant(s):
        return BoundarySymbol(ON, {(p, 0): poly
                                   for p, poly in s.terms.items()}, s.xder)

    monkeypatch.setattr(boundary, "restrict_on_shell", mutant)
    with pytest.raises(DecayViolation):
        run(["compute-phi", "--format", "json"])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: the referee takes its factors "
                   "from the engine's derive")
@pytest.mark.parametrize("rule", [_pole_rule_with_plus_a, _w_rule_without_2],
                         ids=["pole_rule", "w_rule"])
def test_xi_n_mutants_fail_crosscheck(fresh_caches, monkeypatch, capsys,
                                      rule):
    monkeypatch.setattr(symbols, "_d_xin", rule(symbols._d_xin))
    capsys.readouterr()
    assert run(["crosscheck", "--seed", "42", "--format", "json"]) == 1
