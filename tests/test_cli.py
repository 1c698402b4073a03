"""Command-line entry point: exit codes, report formats, determinism."""

import json
from pathlib import Path

import pytest

from wres4 import anchor_table, anchors
from wres4.cli import USAGE, load_discrepancies, parse_args, render_json, run
from wres4.scalars import ScalarExpr
from wres4.sexpr import dumps
from wres4.symbols import DTILDE, BoundarySymbol, jet_mid, sandwich

from helpers import known_ids


def _row(capsys, ident):
    (rec,) = [r for r in json.loads(capsys.readouterr().out)["results"]
              if r["id"] == ident]
    return rec


def _perturb_case(monkeypatch, label, extra):
    """Add ``extra`` to one case value on the value path."""
    import wres4.boundary as boundary

    real = boundary.compute_case

    def perturbed(spec, op=DTILDE):
        value = real(spec, op)
        return value + extra if spec.label == label else value

    monkeypatch.setattr(boundary, "compute_case", perturbed)


class TestLedger:
    def test_ledger_loads_and_is_versioned(self):
        doc = load_discrepancies()
        assert doc["version"] == 2
        assert len(doc["discrepancies"]) >= 8

    def test_each_pin_is_the_engine_string_report_prints(self, capsys):
        # 4.20 has no row in any verb, so it has no value to pin
        assert run(["report", "--format", "json"]) == 0
        printed = {r["id"]: r["engine"]
                   for r in json.loads(capsys.readouterr().out)["results"]}
        pins = {d["id"]: d.get("engine_value")
                for d in load_discrepancies()["discrepancies"]}
        assert "4.20" not in printed and pins.pop("4.20") is None
        assert pins == {ident: printed[ident] for ident in pins}

    def test_changed_value_under_a_ledgered_id_exits_one(self, capsys,
                                                        monkeypatch):
        # case_a2 stays a mismatch, but no longer the one the ledger pins
        _perturb_case(monkeypatch, "a2",
                      ScalarExpr.var("S") * ScalarExpr.var("OMEGA"))
        assert run(["compute-phi", "--case", "a2", "--format", "json"]) == 1
        rec = _row(capsys, "case_a2")
        assert rec["verdict"] == "mismatch" and "documented" not in rec

    def test_known_ids_cover_engine_mismatches(self):
        ids = known_ids()
        for ident in ("4.19", "4.46", "4.49", "case_a2", "case_a3",
                      "4.52", "3.19", "3.22"):
            assert ident in ids


class TestCompare:
    def test_engine_error_is_not_a_verdict(self):
        # a crash while comparing must surface, never read as "mismatch"
        class Broken:
            def __eq__(self, other):
                raise RuntimeError("engine value cannot be compared")

        with pytest.raises(RuntimeError):
            anchors.compare(Broken(), ScalarExpr.one())

    def test_an_id_without_anchor_prints_as_no_anchor(self):
        # phi_suite passes anchors.anchor's answer straight to _entry
        assert anchors.anchor("no-such-id") is None
        assert anchors.compare(ScalarExpr.one(), None) == "no_anchor"


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
            parse_args(["bogus-verb"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            parse_args(["compute-phi", "--case", "z9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["report", "--case", "a1"],
                                      ["verify-traces", "--case", "b"]])
    def test_case_is_a_usage_error_outside_its_verbs(self, argv):
        # only compute-phi and crosscheck read --case; elsewhere it would
        # be silently ignored
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        [], ["bogus-verb"], ["--format", "json", "report"],
        ["report", "--bogus", "1"], ["report", "extra"],
        ["report", "--form", "json"], ["report", "--seed"],
        ["report", "--out", "--format=json"], ["report", "--seed", "x"],
        ["crosscheck", "--seed=4.5"], ["compute-phi", "--case", "z9"],
        ["compute-phi", "--case=A1"], ["report", "--format", "yaml"],
        ["report", "--case=a1"],
    ], ids=lambda argv: " ".join(argv) or "(none)")
    def test_bad_argv_is_a_usage_error(self, argv, capsys):
        # flags are never abbreviated: --form is not --format
        with pytest.raises(SystemExit) as exc:
            run(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: wres4 ")
        assert err.splitlines()[-1].startswith("wres4: error: ")

    @pytest.mark.parametrize("argv", [["-h"], ["report", "--help"]])
    def test_help_prints_the_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr() == (USAGE, "")

    def test_both_flag_forms_and_the_last_repeat_win(self):
        spaced = parse_args(["crosscheck", "--seed", "7", "--case", "b",
                             "--format", "json", "--out", "x.json"])
        assert spaced == {"verb": "crosscheck", "seed": 7, "case": "b",
                          "format": "json", "out": "x.json"}
        assert parse_args(["crosscheck", "--seed=7", "--case=b",
                           "--format=json", "--out=x.json"]) == spaced
        assert parse_args(["crosscheck", "--seed", "1", "--case", "c",
                           "--seed=7", "--case", "b", "--format=text",
                           "--format", "json", "--out=x.json"]) == spaced

    def test_negative_seed_is_a_value(self):
        assert parse_args(["verify-traces", "--seed", "-3"])["seed"] == -3

    def test_new_mismatch_exits_one(self, capsys, monkeypatch):
        import wres4.cli as cli

        def broken_suite():
            return [{"id": "undocumented", "engine": "1", "reference": "2",
                     "verdict": "mismatch"}]

        monkeypatch.setattr(cli, "trace_suite", broken_suite)
        assert run(["verify-traces"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_wrong_lemma41_reference_exits_one(self, capsys, monkeypatch):
        # the engine side of the parametrix rows is derived from (sigma_1,
        # sigma_0), not from the closed forms: dropping one term of a
        # closed form must surface as a mismatch of that row alone
        from wres4.symbols import jet_mid, sandwich

        real = anchors.lemma41

        def perturbed(op, order):
            ref = real(op, order)
            if (op, order) == (DTILDE, -2):
                ref = ref - sandwich(jet_mid())
            return ref

        monkeypatch.setattr(anchors, "lemma41", perturbed)
        assert run(["verify-lemma41", "--format", "json"]) == 1
        verdicts = {r["id"]: r["verdict"]
                    for r in json.loads(capsys.readouterr().out)["results"]}
        assert verdicts == {"parametrix[D,-1]": "match",
                            "parametrix[D,-2]": "match",
                            "parametrix[Dtilde,-1]": "match",
                            "parametrix[Dtilde,-2]": "mismatch"}

    def test_wrong_interior_trace_fails_kkw(self, capsys, monkeypatch):
        import wres4.interior as interior

        real = interior.trace_interior
        monkeypatch.setattr(interior, "trace_interior",
                            lambda: ScalarExpr.const(2) * real())
        assert run(["compute-interior", "--format", "json"]) == 1
        assert _row(capsys, "interior.kkw")["verdict"] == "mismatch"

    def test_nonzero_phi_fails_theorem42(self, capsys, monkeypatch):
        _perturb_case(monkeypatch, "a2",
                      ScalarExpr.var("S") * ScalarExpr.var("OMEGA"))
        assert run(["report", "--format", "json"]) == 1
        assert _row(capsys, "theorem42")["verdict"] == "mismatch"

    def test_theorem42_prints_phi_against_zero(self, capsys):
        assert run(["report", "--format", "json"]) == 0
        rec = _row(capsys, "theorem42")
        assert (rec["engine"], rec["reference"], rec["verdict"]) == (
            "0", "0", "match")

    def test_nonzero_b_plus_c_prints_the_sum(self, capsys, monkeypatch):
        extra = ScalarExpr.var("S") * ScalarExpr.var("OMEGA")
        _perturb_case(monkeypatch, "b", extra)
        assert run(["report", "--format", "json"]) == 1
        rec = _row(capsys, "phi.b_plus_c")
        assert (rec["engine"], rec["reference"], rec["verdict"]) == (
            dumps(extra), "0", "mismatch")

    def test_engine_closed_form_matches_3_19(self, capsys, monkeypatch):
        # the 3.19 row compares the raw-route E with the closed form, so a
        # closed form equal to the engine's E turns it into a match
        import wres4.interior as interior

        monkeypatch.setattr(anchors, "E_closed_form",
                            interior.compute_E_at_x0)
        assert run(["compute-interior", "--format", "json"]) == 0
        rec = _row(capsys, "3.19")
        assert rec["verdict"] == "match"
        assert rec["engine"] == rec["reference"]

    def test_anchor_without_xn_derivative_exits_one(self, capsys,
                                                    monkeypatch):
        # 4.15 carries one x_n-derivative; an anchor rebuilt without it
        # must not match
        table = dict(anchor_table._build_anchors())
        ref = table["4.15"]
        table["4.15"] = BoundarySymbol(ref.shell, ref.terms, 0)
        monkeypatch.setattr(anchor_table, "_build_anchors", lambda: table)
        assert run(["compute-phi", "--format", "json"]) == 1
        assert _row(capsys, "4.15")["verdict"] == "mismatch"


class TestAuditSplit:
    def test_report_builds_each_audit_once(self, capsys, monkeypatch):
        # the value path (compute_case, twice per case while report still
        # assembles Phi twice) builds no audit; phi_suite builds each once
        import wres4.boundary as boundary

        calls = {"compute_case": 0, "intermediates": []}
        real_case = boundary.compute_case
        real_steps = boundary.intermediates

        def counting_case(spec, op=DTILDE):
            calls["compute_case"] += 1
            return real_case(spec, op)

        def counting_steps(label):
            calls["intermediates"].append(label)
            return real_steps(label)

        monkeypatch.setattr(boundary, "compute_case", counting_case)
        monkeypatch.setattr(boundary, "intermediates", counting_steps)
        assert run(["report", "--format", "json"]) == 0
        assert calls["compute_case"] == 10
        assert sorted(calls["intermediates"]) == ["a1", "a2", "a3", "b", "c"]

    def test_single_case_phi_computes_only_that_case(self, capsys,
                                                     monkeypatch):
        import wres4.boundary as boundary

        calls = {"compute_case": [], "assemble_phi": 0}
        real_case = boundary.compute_case
        real_phi = boundary.assemble_phi

        def counting_case(spec, op=DTILDE):
            calls["compute_case"].append(spec.label)
            return real_case(spec, op)

        def counting_phi():
            calls["assemble_phi"] += 1
            return real_phi()

        monkeypatch.setattr(boundary, "compute_case", counting_case)
        monkeypatch.setattr(boundary, "assemble_phi", counting_phi)
        assert run(["compute-phi", "--case", "a1", "--format", "json"]) == 0
        assert calls == {"compute_case": ["a1"], "assemble_phi": 0}


class TestSharedValues:
    def test_cached_values_survive_every_consumer(self, capsys):
        # the exact engine hands the same case values, factors and symbols
        # to every caller in a process; a consumer that mutated one would
        # change the second report
        golden = (Path(__file__).parent / "golden" / "report.json").read_text()
        assert run(["report", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert run(["compute-phi", "--case", "b"]) == 0
        capsys.readouterr()
        assert run(["report", "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == golden
        assert second == golden


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

    def test_json_rejects_a_value_json_cannot_hold(self):
        # rows print engine values through sexpr; a raw value must fail,
        # never reach the output as its repr
        row = {"id": "x", "engine": ScalarExpr.one(), "reference": "1",
               "verdict": "match"}
        with pytest.raises(TypeError):
            render_json({"results": [row]})

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

    @pytest.mark.parametrize("fmt, name", [("text", "report.txt"),
                                           ("latex", "report.tex")])
    def test_report_renderings_match_golden_bytes(self, tmp_path, fmt, name):
        # the same oracle for the two human-readable renderings
        golden = Path(__file__).parent / "golden" / name
        target = tmp_path / name
        assert run(["report", "--format", fmt, "--out", str(target)]) == 0
        assert target.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("label", ["a1", "a2", "a3", "b", "c"])
    def test_single_case_phi_matches_report_slice(self, capsys, label):
        golden = Path(__file__).parent / "golden" / "report.json"
        report = json.loads(golden.read_text())["results"]
        ids = [r["id"] for r in report]
        start = ids.index(f"case_{label}")
        end = next(i for i in range(start + 1, len(ids))
                   if ids[i].startswith("case_") or ids[i] == "4.52")
        assert run(["compute-phi", "--case", label, "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == report[start:end]

    @pytest.mark.parametrize("verb, first, last", [
        ("verify-traces", "trace[1]", "trace[5]"),
        ("verify-lemma41", "parametrix[D,-1]", "parametrix[Dtilde,-2]"),
        ("compute-interior", "3.19", "interior.kkw"),
    ], ids=["verify-traces", "verify-lemma41", "compute-interior"])
    def test_quick_verb_matches_report_slice(self, capsys, verb, first,
                                             last):
        golden = Path(__file__).parent / "golden" / "report.json"
        report = json.loads(golden.read_text())["results"]
        ids = [r["id"] for r in report]
        assert run([verb, "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results == report[ids.index(first):ids.index(last) + 1]

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert run(["verify-traces", "--format", "json",
                    "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["command"] == "verify-traces"

    @pytest.mark.parametrize("name", ["missing/x.json", "."],
                             ids=["missing-dir", "a-directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, name):
        # exit 1 is kept for a new mismatch, so a path that cannot be
        # written is refused as a bad argument
        with pytest.raises(SystemExit) as exc:
            run(["verify-traces", "--out", str(tmp_path / name)])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1].startswith(
            "wres4: error: argument --out: ")

    def test_unwritable_out_is_refused_before_the_suite_runs(
            self, tmp_path, capsys, monkeypatch):
        # the path is opened first, so a bad --out costs no referee run
        import wres4.cli as cli

        def suite(seed, case):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "crosscheck_suite", suite)
        with pytest.raises(SystemExit) as exc:
            run(["crosscheck", "--out", str(tmp_path / "missing/x.json")])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "wres4: error: argument --out: No such file or directory: "
            f"{str(tmp_path / 'missing/x.json')!r}")


class TestCrosscheck:
    def test_seed42_matches_golden(self, capsys):
        # regression oracle for the referee: every field but the numeric
        # reference and its error prints the same bytes as the golden run,
        # and those two move at most by rounding
        golden = json.loads((Path(__file__).parent / "golden"
                             / "crosscheck_seed42.json").read_text())
        code = run(["crosscheck", "--seed", "42", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        numeric = ("reference", "abs_error")

        def exact_part(d):
            rows = [{k: v for k, v in r.items()
                     if not (r["id"].startswith("crosscheck[")
                             and k in numeric)} for r in d["results"]]
            return json.dumps(dict(d, results=rows), sort_keys=True)

        assert code == golden["exit"]
        assert exact_part(doc) == exact_part(golden)
        for got, want in zip(doc["results"], golden["results"]):
            if got["id"].startswith("crosscheck["):
                bound = 1e-12 * max(1.0, abs(complex(*got["engine"])))
                assert len(got["reference"]) == 2
                for x, y in zip(got["reference"], want["reference"]):
                    assert abs(x - y) <= bound
                assert got["abs_error"] <= bound

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
