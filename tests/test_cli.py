"""Command-line entry point: exit codes, report formats, determinism."""

import json
from pathlib import Path

import pytest

from wres4.cli import build_parser, known_ids, load_discrepancies, run


class TestLedger:
    def test_ledger_loads_and_is_versioned(self):
        doc = load_discrepancies()
        assert doc["version"] == 1
        assert len(doc["discrepancies"]) >= 8

    def test_known_ids_cover_engine_mismatches(self):
        ids = known_ids()
        for ident in ("4.19", "4.46", "4.49", "case_a2", "case_a3",
                      "4.52", "3.19", "3.22"):
            assert ident in ids


class TestExitCodes:
    def test_verify_traces_clean(self, capsys):
        assert run(["verify-traces"]) == 0
        out = capsys.readouterr().out
        assert "trace[5]" in out

    def test_verify_lemma41_clean(self, capsys):
        assert run(["verify-lemma41"]) == 0

    def test_compute_phi_documented_mismatches_exit_zero(self, capsys):
        assert run(["compute-phi"]) == 0
        out = capsys.readouterr().out
        assert "KNOWN" in out and "FAIL" not in out

    def test_compute_interior_exit_zero(self, capsys):
        assert run(["compute-interior"]) == 0

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bogus-verb"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["compute-phi", "--case", "z9"])
        assert exc.value.code == 2

    def test_new_mismatch_exits_one(self, capsys, monkeypatch):
        import wres4.cli as cli

        def broken_suite():
            return [{"id": "undocumented", "engine": "1", "reference": "2",
                     "verdict": "mismatch"}]

        monkeypatch.setattr(cli, "trace_suite", broken_suite)
        assert run(["verify-traces"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFormats:
    def test_json_schema_and_determinism(self, capsys):
        run(["compute-phi", "--case", "b", "--format", "json"])
        first = capsys.readouterr().out
        run(["compute-phi", "--case", "b", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["version"] == 1
        assert doc["command"] == "compute-phi"
        assert isinstance(doc["results"], list)
        assert isinstance(doc["discrepancies"], list)

    def test_latex_output(self, capsys):
        run(["verify-traces", "--format", "latex"])
        out = capsys.readouterr().out
        assert out.startswith("\\begin{tabular}")
        assert "\\end{tabular}" in out

    def test_report_json_matches_golden_bytes(self, tmp_path):
        # regression oracle for refactors: a change to these bytes must be
        # deliberate, with the golden file regenerated alongside it
        golden = Path(__file__).parent / "golden" / "report.json"
        target = tmp_path / "report.json"
        assert run(["report", "--format", "json", "--out", str(target)]) == 0
        assert target.read_bytes() == golden.read_bytes()

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert run(["verify-traces", "--format", "json",
                    "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["command"] == "verify-traces"


class TestCrosscheck:
    def test_single_case_crosscheck(self, capsys):
        assert run(["crosscheck", "--seed", "42", "--case", "b"]) == 0
        out = capsys.readouterr().out
        assert "crosscheck[b]" in out
        assert "gamma.relations" in out

    def test_json_values_are_float_pairs(self, capsys):
        assert run(["crosscheck", "--seed", "42", "--case", "b",
                    "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "np." not in out
        (rec,) = [r for r in json.loads(out)["results"]
                  if r["id"] == "crosscheck[b]"]
        for field in ("engine", "reference"):
            assert len(rec[field]) == 2
            assert all(type(x) is float for x in rec[field])
        gap = abs(complex(*rec["engine"]) - complex(*rec["reference"]))
        assert gap == pytest.approx(rec["abs_error"])
