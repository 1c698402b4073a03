"""Semantic mutants of the exact engine against the CLI's exit code.

Each mutant monkeypatches one engine name and clears the caches that would
otherwise keep the unmutated values.  A mutant that no gate kills today is a
strict xfail citing the ROADMAP item meant to kill it."""

import pytest

from wres4 import boundary
from wres4.boundary import CaseSpec
from wres4.cli import run
from wres4.scalars import GAUSS_I


@pytest.fixture
def fresh_case_values():
    boundary._case_value.cache_clear()
    yield
    boundary._case_value.cache_clear()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the ledger documents a mismatch "
                   "by its id, not its value, so the changed case_a2, "
                   "case_a3 and 4.52 rows still count as documented")
def test_coefficient_without_factorial_fails_compute_phi(fresh_case_values,
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
