"""Semantic mutants of the exact engine against the CLI's exit code.

Each mutant monkeypatches one engine name and clears the caches that would
otherwise keep the unmutated values.  A row names the rows of `compute-phi`
that kill its mutant.  A mutant that no gate kills today is a strict xfail
citing the ROADMAP item meant to kill it."""

import json

import pytest

from wres4 import anchors, boundary, halfplane, symbols
from wres4.boundary import CaseSpec
from wres4.cli import run
from wres4.clifford import CliffordElem
from wres4.scalars import GAUSS_I
from wres4.symbols import BoundarySymbol


def _clear_case_caches():
    for cached in (symbols._sigma, boundary.case_factors,
                   boundary._case_value, anchors.lemma41):
        cached.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_case_caches()
    yield
    _clear_case_caches()


def _failed_rows(capsys):
    """Exit code of compute-phi and the ids of its undocumented
    mismatches."""
    capsys.readouterr()
    status = run(["compute-phi", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return status, {r["id"] for r in payload["results"]
                    if r["verdict"] != "match" and not r.get("documented")}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the ledger documents a mismatch "
                   "by its id, not its value, so the changed case_a2, "
                   "case_a3 and 4.52 rows still count as documented")
def test_coefficient_without_factorial_fails_compute_phi(fresh_caches,
                                                        monkeypatch, capsys):
    a2 = next(s for s in boundary.enumerate_cases() if s.label == "a2")
    before = boundary.compute_case(a2)
    # (-i)^(|alpha|+j+k+1) without the 1/(j+k+1)!: a2 and a3 double
    monkeypatch.setattr(CaseSpec, "coefficient", property(
        lambda s: (-GAUSS_I) ** (s.alpha + s.j + s.k + 1)))
    boundary._case_value.cache_clear()
    if boundary.compute_case(a2) == before:
        pytest.fail("the mutant leaves case a2 unchanged")
    assert run(["compute-phi", "--format", "json"]) == 1


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 4 and 5: Lemma 4.1's closed form "
                   "of sigma_-2(D^-1) is built from the engine's own "
                   "sigma0_dirac, so the parametrix rows compare the mutant "
                   "with itself")
def test_negated_sigma0_fails_verify_lemma41(fresh_caches, monkeypatch,
                                            capsys):
    before = (symbols.build_sigma("D", -2), anchors.lemma41("D", -2))
    _clear_case_caches()
    real = symbols.sigma0_dirac
    monkeypatch.setattr(symbols, "sigma0_dirac", lambda: -real())
    after = (symbols.build_sigma("D", -2), anchors.lemma41("D", -2))
    if any(x == y for x, y in zip(before, after)):
        pytest.fail("the mutant leaves the engine's sigma_-2 or its "
                    "Lemma 4.1 reference unchanged")
    capsys.readouterr()
    status = run(["verify-lemma41", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [r["verdict"] for r in rows if r["verdict"] != "match"]
    assert status == 1


def test_doubled_c_df_term_fails_compute_phi(fresh_caches, monkeypatch,
                                            capsys):
    real = symbols._definition

    def doubled(op):
        s1, s0 = real(op)
        if op == "Dtilde":
            s0 = s0 + BoundarySymbol.from_clifford(CliffordElem.c_df())
        return s1, s0

    monkeypatch.setattr(symbols, "_definition", doubled)
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
