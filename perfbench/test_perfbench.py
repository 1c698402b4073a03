"""Checks of the benchmark itself: metric names and units, failure
accounting, seeded argv lists, and the tracer's call counts (fixed anchors,
repeatability across two runs, agreement with cProfile)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

# A stand-in for the CLI that prints a valid, fully matching payload.
STUB_PAYLOAD = ("import json; print(json.dumps({'command': 'verify-traces', "
                "'results': [{'id': 'trace[1]', 'verdict': 'match', "
                "'engine': '0'}]}))")


def _exit(payload: dict, status: int = 0) -> bench.Exit:
    return bench.Exit(0.1, status, 10.0, json.dumps(payload).encode(), b"")


# -- end-to-end output -------------------------------------------------------

@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_short_run_emits_every_end_to_end_metric(workload, monkeypatch,
                                                  capsys):
    # One seed per crosscheck cycle and two set-up samples keep this short.
    monkeypatch.setattr(bench, "CROSSCHECK_SEEDS", 1)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    assert bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    units = {name: m["unit"] for name, m in last["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert f"{workload:<12} {'failed_share':<44} 0 share" in lines
    provenance = json.loads(lines[-2])["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy",
                "git_commit", "seed", "ops"):
        assert key in provenance
    assert provenance["ops"] == last["attempted"]


def test_cli_fails_without_the_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in ("run.py", "tracer.py"):
        (bare / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    (bare / "BENCHMARK.json").write_bytes(
        (bench.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_tail_is_the_eleventh_largest_sample():
    samples = [float(i) for i in range(36)]
    assert bench.tail(samples) == (25.0, 100.0 * 25 / 35, 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- failure accounting ------------------------------------------------------

def _stub_share(code: str) -> float:
    loop = bench.Loop(bench.child_env(), frozenset())
    for _ in range(3):
        loop.run(["verify-traces"], [sys.executable, "-c", code], False)
    return bench.end_to_end(loop.ops, 1.0, loop.ops[:1],
                            False)["failed_share"]


def test_matching_stub_does_not_fail():
    assert _stub_share(STUB_PAYLOAD) == 0.0


def test_stub_exiting_1_counts_toward_failed_share():
    assert _stub_share(STUB_PAYLOAD + "; raise SystemExit(1)") == 1.0


def test_stub_printing_different_bytes_counts_toward_failed_share():
    code = STUB_PAYLOAD.replace("'engine': '0'", "'engine': str(os.getpid())")
    assert _stub_share("import os; " + code) == pytest.approx(2 / 3)


def test_hung_op_is_killed_and_fails(monkeypatch):
    monkeypatch.setattr(bench, "OP_TIMEOUT_S", 0.5)
    loop = bench.Loop(bench.child_env(), frozenset())
    op = loop.run(["verify-traces"],
                  [sys.executable, "-c", "import time; time.sleep(30)"], False)
    assert op.status == -9 and op.wall_s < 10 and op.problems


def test_checks_follow_the_ledger_and_the_headline_results():
    documented = frozenset({"4.52"})
    ok = {"command": "report", "results": [
        {"id": "4.52", "verdict": "mismatch", "engine": "0"},
        {"id": "phi.b_plus_c", "verdict": "match", "engine": "0"},
        {"id": "phi.hp_cancellation", "verdict": "match", "engine": "0"}]}
    assert bench.problems(["report"], _exit(ok), None, documented) == []
    assert bench.problems(["report"], _exit(ok), None, frozenset())
    nonzero = json.loads(json.dumps(ok))
    nonzero["results"][0]["engine"] = "(* 2 PI)"
    assert bench.problems(["report"], _exit(nonzero), None, documented)
    broken = json.loads(json.dumps(ok))
    broken["results"][1]["verdict"] = "mismatch"
    assert bench.problems(["report"], _exit(broken), None,
                          documented | {"phi.b_plus_c"})
    missing = {"command": "report", "results": ok["results"][:1]}
    assert bench.problems(["report"], _exit(missing), None, documented)
    argv = ["crosscheck", "--seed", "1", "--case", "b"]
    refuted = {"command": "crosscheck", "results": [
        {"id": "crosscheck[b]", "verdict": "mismatch", "engine": "0"}]}
    assert bench.problems(argv, _exit(refuted), None,
                          frozenset({"crosscheck[b]"}))


# -- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_argv_lists_are_deterministic(workload):
    assert bench.argv_list(workload, 7) == bench.argv_list(workload, 7)
    assert bench.argv_list(workload, 7) != bench.argv_list(workload, 8)


def test_argv_lists_do_not_depend_on_hash_randomisation():
    code = "import run; print(run.argv_list('crosscheck', 7))"
    outs = {
        subprocess.run([sys.executable, "-c", code], cwd=HERE, text=True,
                       capture_output=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=hs)).stdout
        for hs in ("1", "2")}
    assert outs == {f"{bench.argv_list('crosscheck', 7)}\n"}


def test_crosscheck_cycle_covers_each_case_once_per_seed():
    cycle = bench.argv_list("crosscheck", 5)
    seeds = {argv[2] for argv in cycle}
    assert len(seeds) == bench.CROSSCHECK_SEEDS
    for seed in seeds:
        cases = sorted(argv[-1] for argv in cycle if argv[2] == seed)
        assert cases == list(bench.CASES)


# -- tracer ------------------------------------------------------------------

def _traced(argv, path: Path) -> dict:
    ex = bench.spawn(bench.traced_command(argv, path), bench.child_env())
    assert ex.status == 0, ex.stderr
    assert bench.problems(argv, ex, None, bench.documented_ids()) == []
    return bench.op_layers(json.loads(path.read_text()))


def _calls(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k.endswith(".calls")}


CROSSCHECK_C = ["crosscheck", "--seed", "42", "--case", "c"]


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("spans")
    argvs = {"report": ["report"], "crosscheck_c": CROSSCHECK_C,
             "lemma41": ["verify-lemma41"]}
    return {name: [_traced(argv, tmp / f"{name}-{i}.json") for i in range(2)]
            for name, argv in argvs.items()}


def test_sanity_anchor_counts_repeat_exactly(traced_ops):
    for first, second in traced_ops.values():
        assert _calls(first) == _calls(second)
    c = traced_ops["crosscheck_c"][0]
    assert c["oracle.quad_line.calls"] == 288
    assert c["oracle.CompiledSymbol.call.calls"] == 72576
    report = traced_ops["report"][0]
    assert report["boundary.assemble_phi.calls"] == 2
    assert report["boundary.compute_case.calls"] == 10


def test_referee_is_never_called_outside_crosscheck(traced_ops):
    for name in ("report", "lemma41"):
        stats = traced_ops[name][0]
        assert not [k for k, v in stats.items()
                    if k.startswith("oracle.") and v]
    assert not [k for k in traced_ops["lemma41"][0]
                if k.startswith("boundary.")]


def test_every_per_layer_metric_is_produced(traced_ops):
    produced = set(traced_ops["report"][0]) | set(
        traced_ops["crosscheck_c"][0])
    missing = [m["name"] for m in SPEC["per_layer"]
               if m["name"] not in produced
               and not m["name"].startswith("trace.")
               and m["name"] != "oracle.nonconvergence.count"]
    assert missing == []


PROFILE = r"""
import cProfile, contextlib, importlib, io, json, pstats, sys
import tracer
import wres4.cli
profile = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    profile.enable()
    wres4.cli.run(sys.argv[1:])
    profile.disable()
ncalls = {key: row[1] for key, row in pstats.Stats(profile).stats.items()}
out = {}
for module, path, name, _, _ in tracer.TARGETS:
    code = tracer.resolve(importlib.import_module(module), path)[2].__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    out[name] = out.get(name, 0) + ncalls.get(key, 0)
print(json.dumps(out))
"""


@pytest.mark.parametrize("name,argv", [("report", ["report"]),
                                       ("crosscheck_c", CROSSCHECK_C)])
def test_traced_calls_equal_cprofile_ncalls(traced_ops, name, argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE, *argv, "--format", "json"],
        cwd=HERE, env=bench.child_env(), capture_output=True, text=True,
        check=True, timeout=300)
    profiled = json.loads(proc.stdout)
    traced = traced_ops[name][0]
    assert {k: traced.get(k + ".calls", 0) for k in profiled} == profiled
    assert sum(profiled.values()) > 0


def test_rebind_reaches_aliases_and_dict_values():
    import types

    def original():
        return 1

    module = types.ModuleType("wres4._rebind_probe")
    module.alias = original
    module.table = {"json": original}
    sys.modules[module.__name__] = module
    try:
        tracer.rebind(original, len)
        assert module.alias is len and module.table["json"] is len
    finally:
        del sys.modules[module.__name__]
