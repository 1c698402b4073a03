"""Time-to-verdict benchmark for the wres4 CLI.

Run from the repository root::

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The users of wres4 are CI jobs and researchers who wait for an exit code
and a JSON verdict.  Each of their calls is a fresh interpreter, so every op
here is a fresh ``python -m wres4.cli <verb> ... --format json`` with
``PYTHONPATH=src``, timed from spawn to exit by one client in a closed loop
(one child at a time).  A run repeats whole cycles of the workload's argv
list, so every run has the same case mix, and every op's output is checked
against the README's headline results and the shipped discrepancy ledger.

Shared hosts drift in speed, for all code alike (by up to 60 % within
minutes on a 2-vCPU Intel Xeon VM).  So the parent process times a fixed
pure-Python loop before and after every child it runs, and the end-to-end
times are reported in reference-host seconds: each child's wall time times
``REFERENCE_LOOP_S`` over the mean of its two loop times.  The loop does not
touch wres4, so a change to the program moves these numbers and a change in
host speed mostly does not.  The raw wall-clock values are printed too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every op runs once untraced and once
under ``perfbench/tracer.py``, and the last line carries the per-layer
metrics.  Human-readable lines, machine facts and provenance come first, and
the full result (ops, and spans when traced) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SOURCE = ROOT / "src"
LEDGER = SOURCE / "wres4" / "data" / "known_discrepancies.json"
RESULTS = HERE / "results"

CASES = ("a1", "a2", "a3", "b", "c")
QUICK_VERBS = ("verify-traces", "compute-interior", "verify-lemma41")
WORKLOADS = ("report", "crosscheck", "quick_verbs")
SEED_RANGE = 10 ** 6
# Referee cost varies by up to 2x from one seed to the next (adaptive
# quadrature), so a crosscheck cycle spreads the five cases over three seeds
# to keep run-to-run spread within the metric bounds.
CROSSCHECK_SEEDS = 3
SETUP_REPEATS = 7
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
LOOP_ITERATIONS = 200_000
# Median time of ``host_loop`` on a quiet 2-vCPU Intel Xeon host, Python
# 3.11: the speed that reference-host seconds refer to.
REFERENCE_LOOP_S = 0.0116

# What a fresh process does before any computation: import the modules the
# workload's verbs load, read the ledger and build the anchor table.  The
# crosscheck verb also imports the referee, and with it numpy and scipy.
SETUP_CODE = ("import wres4.cli as cli, wres4.anchors as anchors; "
              "cli.load_discrepancies(); anchors.has_anchor('4.52')")
SETUP_EXTRA = {"crosscheck": "; import wres4.oracle"}


def argv_list(workload: str, seed: int) -> List[List[str]]:
    """One cycle of CLI argv lists (without ``--format json``), drawn
    deterministically from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report":
        return [["report", "--seed", str(rng.randrange(SEED_RANGE))]]
    if workload == "crosscheck":
        cycle = []
        for _ in range(CROSSCHECK_SEEDS):
            seed_arg = str(rng.randrange(SEED_RANGE))
            cases = list(CASES)
            rng.shuffle(cases)
            cycle += [["crosscheck", "--seed", seed_arg, "--case", case]
                      for case in cases]
        return cycle
    if workload == "quick_verbs":
        verbs = list(QUICK_VERBS)
        rng.shuffle(verbs)
        return [[verb, "--seed", str(rng.randrange(SEED_RANGE))]
                for verb in verbs]
    raise ValueError(f"unknown workload {workload!r}")


# -- processes ---------------------------------------------------------------

def host_loop() -> float:
    """Wall time of a fixed pure-Python loop in this process."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


@dataclass
class Exit:
    wall_s: float
    status: int
    rss_mb: float
    stdout: bytes
    stderr: bytes
    host_factor: float = 1.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    return env


def _drain(proc: subprocess.Popen, deadline: float):
    """Read stdout and stderr to EOF; kill the child past the deadline.
    The child is not reaped here, so that ``wait4`` can report on it."""
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not killed:
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(cmd: List[str], env: Dict[str, str]) -> Exit:
    """Run one child to completion: wall time from spawn to exit, exit
    status and peak RSS from its ``wait4`` rusage."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        out, err = _drain(proc, start + OP_TIMEOUT_S)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(wall, proc.returncode, usage.ru_maxrss / 1024.0, out, err)


def cli_command(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "wres4.cli", *argv, "--format", "json"]


def traced_command(argv: List[str], spans_path: Path) -> List[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv,
            "--format", "json"]


# -- correctness -------------------------------------------------------------

def documented_ids() -> frozenset:
    doc = json.loads(LEDGER.read_text())
    return frozenset(d["id"] for d in doc["discrepancies"])


def required_ids(argv: List[str]) -> List[str]:
    """Verdicts the README's headline results promise for this argv."""
    if argv[0] == "report":
        return ["4.52", "phi.b_plus_c", "phi.hp_cancellation"]
    if argv[0] == "crosscheck":
        return [f"crosscheck[{argv[argv.index('--case') + 1]}]"]
    return []


def problems(argv: List[str], ex: Exit, reference: Optional[bytes],
             documented: frozenset) -> List[str]:
    """Why one op's output is wrong; empty when it is correct."""
    found = []
    if ex.status != 0:
        found.append(f"exit status {ex.status}: "
                     f"{ex.stderr.decode(errors='replace')[-300:]}")
    if reference is not None and ex.stdout != reference:
        found.append("stdout differs from the first op with the same argv")
    try:
        payload = json.loads(ex.stdout)
        results = {r["id"]: r for r in payload["results"]}
    except (ValueError, KeyError, TypeError):
        return found + ["stdout is not a wres4 JSON payload"]
    if payload.get("command") != argv[0] or not results:
        found.append("payload is for another verb or has no results")
    for ident in required_ids(argv):
        if ident not in results:
            found.append(f"{ident} missing")
    for ident, r in sorted(results.items()):
        if r["verdict"] != "match" and ident not in documented:
            found.append(f"{ident} is {r['verdict']} and not in the ledger")
        if ident.startswith("crosscheck[") and r["verdict"] != "match":
            found.append(f"{ident} is {r['verdict']}")
    for ident in ("phi.b_plus_c", "phi.hp_cancellation"):
        if ident in results and results[ident]["verdict"] != "match":
            found.append(f"{ident} is {results[ident]['verdict']}")
    if "4.52" in results and results["4.52"]["engine"] != "0":
        found.append("engine Phi (4.52) is not 0")
    return found


# -- running a workload ------------------------------------------------------

@dataclass
class Op:
    argv: List[str]
    wall_s: float
    status: int
    rss_mb: float
    problems: List[str]
    host_factor: float
    traced: bool = False
    timed: bool = True
    trace: Optional[dict] = None


@dataclass
class Loop:
    """A closed loop over whole cycles of one argv list."""

    env: Dict[str, str]
    documented: frozenset
    references: Dict[tuple, bytes] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)
    host_loops: List[float] = field(default_factory=list)

    def spawn(self, cmd: List[str]) -> Exit:
        """Run one child between two samples of host speed."""
        if not self.host_loops:
            self.host_loops.append(host_loop())
        ex = spawn(cmd, self.env)
        self.host_loops.append(host_loop())
        ex.host_factor = REFERENCE_LOOP_S / statistics.fmean(
            self.host_loops[-2:])
        return ex

    def setup(self, workload: str, repeats: int) -> List[Exit]:
        """Fresh processes that only get ready (``SETUP_CODE``)."""
        code = SETUP_CODE + SETUP_EXTRA.get(workload, "")
        samples = []
        for _ in range(repeats):
            ex = self.spawn([sys.executable, "-c", code])
            if ex.status != 0:
                raise RuntimeError("set-up process failed: "
                                   + ex.stderr.decode(errors="replace"))
            samples.append(ex)
        return samples

    def run(self, argv: List[str], cmd: List[str], traced: bool,
            timed: bool = True) -> Op:
        ex = self.spawn(cmd)
        key = tuple(argv)
        found = problems(argv, ex, self.references.get(key), self.documented)
        self.references.setdefault(key, ex.stdout)
        op = Op(argv, ex.wall_s, ex.status, ex.rss_mb, found, ex.host_factor,
                traced, timed)
        self.ops.append(op)
        return op

    def cycles(self, argvs: List[List[str]], seconds: float, trace: bool):
        """Repeat whole cycles until the next one would end past
        ``seconds``; at least one cycle.  After a single cycle, one untimed
        repeat of the first argv checks that output is byte-identical.
        Returns the measured wall time and the number of cycles."""
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f".spans-{os.getpid()}.json"
        start = time.perf_counter()
        done = 0
        while True:
            for argv in argvs:
                self.run(argv, cli_command(argv), False)
                if trace:
                    op = self.run(argv, traced_command(argv, spans_path), True)
                    if spans_path.exists():
                        op.trace = json.loads(spans_path.read_text())
                        spans_path.unlink()
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break
        if done == 1:
            self.run(argvs[0], cli_command(argvs[0]), False, timed=False)
        return elapsed, done


# -- metrics -----------------------------------------------------------------

def tail(samples: List[float]):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample.  With ten samples or fewer no percentile
    qualifies and the maximum is reported.  Returns (value, percentile,
    samples beyond it)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * idx / (n - 1), TAIL_BEYOND


def end_to_end(ops: List[Op], elapsed: float, setup: List[Exit],
               reference_host: bool) -> dict:
    """End-to-end values of one run, in reference-host seconds or raw."""
    def scale(x) -> float:
        return x.wall_s * (x.host_factor if reference_host else 1.0)

    timed = [op for op in ops if op.timed]
    walls = [scale(op) for op in timed]
    tail_s, tail_pct, beyond = tail(walls)
    failed = sum(1 for op in ops if op.problems)
    stretch = sum(walls) / sum(op.wall_s for op in timed)
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "ops_per_s": len(timed) / (elapsed * stretch),
        "setup_s": statistics.median(scale(ex) for ex in setup),
        "peak_rss_mb": statistics.median(op.rss_mb for op in timed),
        "failed_share": failed / len(ops),
        "_tail": {"percentile": round(tail_pct, 2), "beyond": beyond,
                  "samples": len(timed)},
    }


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def op_layers(trace: dict) -> Dict[str, float]:
    """Per-layer sums of one traced op.  Self time is a span's duration
    minus the time its child spans cover."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: Dict[str, float] = defaultdict(float)
    stats["cli.import_s"] = trace["import_s"]
    for name, count in trace["counts"].items():
        stats[name + ".calls"] = count
    for idx, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        if name.endswith(".import"):
            stats[name + "_s"] += dur
            continue
        if name == "anchors.lookup" and "anchors.build_s" not in stats:
            stats["anchors.build_s"] = dur
        stats[name + ".calls"] += 1
        stats[name + ".total_s"] += dur
        stats[name + ".self_s"] += dur - covered[idx]
        if name in ("cli.render_json", "sexpr.dumps"):
            stats[name + ".bytes"] += tag
        elif name == "boundary.compute_case":
            stats[f"{name}.{tag}.total_s"] += dur
            stats[f"{name}.{tag}.calls"] += 1
            if _has_ancestor(spans, idx, "oracle.crosscheck_case"):
                stats["oracle.crosscheck_case.symbolic_s"] += dur
        elif name == "oracle.crosscheck_case":
            stats["oracle.max_rel_err"] = max(stats["oracle.max_rel_err"], tag)
        elif name == "oracle.quad_line" and tag == "raised:NonConvergence":
            stats["oracle.nonconvergence.count"] += 1
    return stats


def layers(ops: List[Op], spec: List[dict]) -> Dict[str, float]:
    """Per-op means of the traced ops' layer sums, except: per-case
    ``compute_case`` time is per call, ``max_rel_err`` is the run's maximum
    and ``nonconvergence.count`` the run's total."""
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if op.timed and not op.traced]
    per_op = [op_layers(op.trace) for op in traced if op.trace is not None]
    total: Dict[str, float] = defaultdict(float)
    for stats in per_op:
        for key, value in stats.items():
            total[key] += value
    out = {key: value / len(traced) for key, value in total.items()}
    for case in CASES:
        calls = total.get(f"boundary.compute_case.{case}.calls", 0)
        out[f"boundary.compute_case.{case}.total_s"] = (
            total[f"boundary.compute_case.{case}.total_s"] / calls
            if calls else 0.0)
    out["oracle.max_rel_err"] = max(
        (s.get("oracle.max_rel_err", 0.0) for s in per_op), default=0.0)
    out["oracle.nonconvergence.count"] = total.get(
        "oracle.nonconvergence.count", 0.0)
    traced_p50 = statistics.median(op.wall_s for op in traced)
    untraced_p50 = statistics.median(op.wall_s for op in untraced)
    out["trace.op_p50_s"] = traced_p50
    out["trace.untraced_op_p50_s"] = untraced_p50
    out["trace.overhead_ratio"] = traced_p50 / untraced_p50
    return {m["name"]: float(out.get(m["name"], 0.0)) for m in spec}


# -- provenance --------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
    }


# -- entry point -------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    argvs = argv_list(workload, seed)
    loop = Loop(child_env(), documented_ids())
    # One untimed set-up first, so bytecode caches exist and the files every
    # op reads are in the page cache before timing starts.
    loop.setup(workload, 1)
    setup = [] if trace else loop.setup(workload, SETUP_REPEATS)
    elapsed, cycles = loop.cycles(argvs, seconds, trace)
    ops = loop.ops
    failed = sum(1 for op in ops if op.problems)
    if trace:
        values = layers(ops, spec["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        extra = {}
    else:
        values = end_to_end(ops, elapsed, setup, True)
        raw = end_to_end(ops, elapsed, setup, False)
        extra = {"tail": values.pop("_tail"),
                 "failed_share": values.pop("failed_share"),
                 "raw": {k: raw[k] for k in values},
                 "setup_samples": [[ex.wall_s, ex.host_factor]
                                   for ex in setup]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "provenance": {
            **machine_facts(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": int(trace), "ops": len(ops),
            "cycles": cycles, "argv_cycle": argvs, "elapsed_s": elapsed,
            "host_loop_median_s": statistics.median(loop.host_loops),
        },
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "extra": extra,
        "ops": ops,
    }


def summary_lines(result: dict) -> List[str]:
    name = result["workload"]
    lines = []
    for metric, m in result["metrics"].items():
        lines.append(f"{name:<12} {metric:<44} {m['value']:.6g} {m['unit']}")
    extra = result["extra"]
    if "failed_share" in extra:
        t = extra["tail"]
        for metric, value in extra["raw"].items():
            lines.append(f"{name:<12} {'raw.' + metric:<44} {value:.6g} "
                         f"{result['metrics'][metric]['unit']}")
        lines.append(f"{name:<12} {'failed_share':<44} "
                     f"{extra['failed_share']:.6g} share")
        lines.append(f"{name:<12} op_tail_s is p{t['percentile']} of "
                     f"{t['samples']} ops, {t['beyond']} beyond it")
        by_argv = defaultdict(list)
        for op in result["ops"]:
            if op.timed:
                by_argv[" ".join(op.argv)].append(op.wall_s)
        for argv, walls in sorted(by_argv.items()):
            lines.append(f"{name:<12} p50 {statistics.median(walls):.4f} s "
                         f"over {len(walls)} ops: {argv}")
    for op in result["ops"]:
        for problem in op.problems:
            lines.append(f"{name:<12} FAILED {' '.join(op.argv)}: {problem}")
    return lines


def write_result(result: dict, seed: int, trace: bool):
    RESULTS.mkdir(exist_ok=True)
    doc = {k: v for k, v in result.items() if k != "ops"}
    doc["ops"] = [
        {"op": i, "argv": op.argv, "traced": op.traced, "timed": op.timed,
         "wall_s": op.wall_s, "host_factor": op.host_factor,
         "status": op.status, "rss_mb": op.rss_mb, "problems": op.problems,
         **({"import_s": op.trace["import_s"], "counts": op.trace["counts"],
             "spans": op.trace["spans"]} if op.trace else {})}
        for i, op in enumerate(result["ops"])]
    path = RESULTS / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(doc))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SOURCE / "wres4" / "cli.py").is_file() or not LEDGER.is_file():
        print(f"wres4 sources not found under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), spec)
        write_result(result, args.seed, bool(args.trace))
        print("\n".join(summary_lines(result)))
        print(json.dumps({"provenance": result["provenance"]}))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
