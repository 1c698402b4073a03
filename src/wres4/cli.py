"""Batch entry point for the verification suites and report generation.

Exit status is the contract: 0 when every executed comparison either
matches or is a documented entry of the shipped discrepancy ledger whose
pinned `engine_value` the row still prints, 1 when a new mismatch
appears, 2 on usage errors.  `parse_args` reads argv from two tables,
`VERBS` and `FLAGS`, without argparse, gettext or locale (3 ms a call):
`--flag value` and `--flag=value` both work, the last repeat wins, and no
flag is abbreviated.  A usage error writes the usage and a `wres4: error:`
line to stderr and exits 2; so does an `--out` path that cannot be opened
for writing, which is refused before the verb runs.  `-h` writes the usage
to stdout and exits 0.

Every call is a fresh interpreter, so each verb imports only the modules
it runs: the suites and `_entry` import their engine names when called,
`verify-traces` never loads the symbol layer or the boundary stack, the
reference table (`anchor_table`) is compiled only by the verbs that look
a reference up (`report`, `compute-phi`), and no verb loads `fractions`.
`scalars` is the one engine module imported here.  Every verb needs it,
and building its constants (`GAUSS_ONE`, `GAUSS_I`) calls
`GaussianRational.__init__`, which perfbench/tracer.py counts only once
the module has loaded: imported inside `run`, those calls would be seen
by a profiler of `run` but not by the tracer.  For the same reason no
module imported lazily may call its own traced functions at import time.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

from . import CASE_LABELS
from .scalars import ScalarExpr, reduce_sphere

SCHEMA_VERSION = 1


def load_discrepancies() -> Dict:
    path = os.path.join(os.path.dirname(__file__), "data",
                        "known_discrepancies.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _entry(ident: str, engine, reference) -> Dict:
    """One exact row: both values printed, the verdict from the anchors'
    rule.  A missing reference prints as null."""
    from . import anchors
    from .sexpr import dumps

    return {
        "id": ident,
        "engine": dumps(engine),
        "reference": None if reference is None else dumps(reference),
        "verdict": anchors.compare(engine, reference),
    }


def _re_im(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


# -- suites ------------------------------------------------------------------

def trace_suite() -> List[Dict]:
    """The five boundary trace identities, restricted to the unit
    cosphere where required."""
    from .clifford import CliffordElem, spin_trace

    cxp = CliffordElem.c_xi_prime()
    cdxn = CliffordElem.c_dxn()
    dcxp = cxp.x_derivative(4)
    hp = ScalarExpr.var("HP")
    checks = [
        ("trace[1]", spin_trace(cxp * cdxn), ScalarExpr.zero()),
        ("trace[2]", spin_trace(cdxn * cdxn), ScalarExpr.const(-4)),
        ("trace[3]", reduce_sphere(spin_trace(cxp * cxp)),
         ScalarExpr.const(-4)),
        ("trace[4]", spin_trace(dcxp * cdxn), ScalarExpr.zero()),
        ("trace[5]", reduce_sphere(spin_trace(dcxp * cxp)),
         ScalarExpr.const(-2) * hp),
    ]
    return [_entry(ident, eng, ref) for ident, eng, ref in checks]


def lemma41_suite() -> List[Dict]:
    """The engine's inverse symbols, from the parametrix, against Lemma
    4.1's closed forms."""
    from .anchors import lemma41
    from .symbols import D, DTILDE, build_sigma

    return [_entry(f"parametrix[{op.name},{order}]",
                   build_sigma(op, order).canonical(),
                   lemma41(op, order).canonical())
            for op in (D, DTILDE) for order in (-1, -2)]


def phi_suite(case_filter: str) -> List[Dict]:
    from .anchors import anchor
    from .boundary import (
        assemble_phi,
        case_specs,
        compute_case,
        hp_part,
        intermediates,
    )

    if case_filter == "all":
        cases = assemble_phi()
    else:
        cases = {case_filter: compute_case(case_specs()[case_filter])}
    out = []
    for label, value in cases.items():
        out.append(_entry(f"case_{label}", value, anchor(f"case_{label}")))
        steps = intermediates(label)
        for name in sorted(steps):
            out.append(_entry(name, steps[name], anchor(name)))
    if case_filter == "all":
        zero = ScalarExpr.zero()
        out.append(_entry("4.52", sum(cases.values(), zero),
                          anchor("4.52")))
        out.append(_entry("phi.b_plus_c", cases["b"] + cases["c"], zero))
        out.append(_entry("phi.hp_cancellation",
                          hp_part(cases["a2"] + cases["a3"]), zero))
    return out


def interior_suite() -> List[Dict]:
    from .anchors import E_closed_form, kkw_trace, trace_braces
    from .interior import compute_E_at_x0, trace_interior

    trace = trace_interior()
    return [
        _entry("3.19", compute_E_at_x0(), E_closed_form()),
        _entry("3.22", trace, trace_braces()),
        _entry("interior.kkw", trace, kkw_trace()),
    ]


def crosscheck_suite(seed: int, case_filter: str) -> List[Dict]:
    from .boundary import case_specs
    from .oracle import NumericContext, crosscheck_case

    ctx = NumericContext(seed)
    defect = ctx.rep.max_relation_defect()
    out = [{"id": "gamma.relations", "engine": f"max defect {defect}",
            "reference": "0 to machine precision",
            "verdict": "match" if defect < 1e-14 else "mismatch"}]
    for label, spec in case_specs().items():
        if case_filter not in ("all", label):
            continue
        rec = crosscheck_case(spec, ctx)
        ok = rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))
        out.append({
            "id": f"crosscheck[{label}]",
            "engine": _re_im(rec["symbolic"]),
            "reference": _re_im(rec["numeric"]),
            "abs_error": rec["abs_error"],
            "verdict": "match" if ok else "mismatch",
        })
    return out


def report_suite() -> List[Dict]:
    # the headline statement closes the report: the boundary term Phi
    # vanishes
    from .boundary import assemble_phi

    zero = ScalarExpr.zero()
    return (trace_suite() + lemma41_suite() + phi_suite("all")
            + interior_suite()
            + [_entry("theorem42", sum(assemble_phi().values(), zero), zero)])


# -- rendering ---------------------------------------------------------------

def render_text(payload: Dict) -> str:
    lines = []
    for r in payload["results"]:
        mark = "ok " if r["verdict"] == "match" else (
            "KNOWN" if r.get("documented") else "FAIL")
        lines.append(f"[{mark}] {r['id']}: {r['verdict']}")
        if r["verdict"] != "match":
            lines.append(f"        engine:    {r['engine']}")
            lines.append(f"        reference: {r['reference']}")
    lines.append(f"exit: {payload['exit']}")
    return "\n".join(lines) + "\n"


def render_json(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_latex(payload: Dict) -> str:
    lines = [r"\begin{tabular}{lll}",
             r"label & verdict & documented \\ \hline"]
    for r in payload["results"]:
        doc = "yes" if r.get("documented") else ""
        ident = r["id"].replace("_", r"\_")
        lines.append(f"{ident} & {r['verdict']} & {doc} \\\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


_RENDER = {"text": render_text, "json": render_json, "latex": render_latex}


# -- the command line --------------------------------------------------------

# flag -> (int, str or its choices; its default); only CASE_VERBS take --case
FLAGS = {"--case": (CASE_LABELS + ("all",), "all"), "--seed": (int, 0),
         "--format": (tuple(_RENDER), "text"), "--out": (str, None)}
CASE_VERBS = ("compute-phi", "crosscheck")
# verb -> its suite, called with the parsed flags
VERBS = {"verify-traces": lambda a: trace_suite(),
         "verify-lemma41": lambda a: lemma41_suite(),
         "compute-phi": lambda a: phi_suite(a["case"]),
         "compute-interior": lambda a: interior_suite(),
         "crosscheck": lambda a: crosscheck_suite(a["seed"], a["case"]),
         "report": lambda a: report_suite()}
USAGE = ("usage: wres4 [-h] VERB [--case CASE] [--seed N] [--format FORMAT]"
         " [--out PATH]\nVERB: {}\nCASE (compute-phi and crosscheck only): {}"
         "\nFORMAT: {}\n").format(*map(", ".join, (
             VERBS, FLAGS["--case"][0], _RENDER)))


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}wres4: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: List[str]) -> Dict:
    """The verb and every flag, defaults filled in."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        raise SystemExit(0)
    if not argv or argv[0] not in VERBS:
        _usage_error(f"invalid verb: {argv[0]!r}" if argv else "no verb")
    args = {"verb": argv[0], **{f[2:]: d for f, (_, d) in FLAGS.items()}}
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in FLAGS or flag == "--case" and argv[0] not in CASE_VERBS:
            _usage_error(f"unrecognized argument: {flag}")
        # --flag value: a missing value reads as the next flag
        if not eq and (value := next(words, "--")).startswith("--"):
            _usage_error(f"argument {flag}: expected one argument")
        kind = FLAGS[flag][0]
        try:  # int() rejects a bad integer, tuple.index a bad choice
            args[flag[2:]] = (kind(value) if isinstance(kind, type)
                              else kind[kind.index(value)])
        except ValueError:
            _usage_error(f"argument {flag}: invalid value: {value!r}")
    return args


def run(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not args["out"]:
        return _emit(args, sys.stdout)
    try:  # refused before the verb runs
        out = open(args["out"], "w")
    except OSError as err:
        _usage_error(f"argument --out: {err.strerror}: {args['out']!r}")
    with out:
        return _emit(args, out)


def _emit(args: Dict, out) -> int:
    """Run the verb, write its rendering to out and return the exit code."""
    ledger = load_discrepancies()
    pins = {d["id"]: d.get("engine_value") for d in ledger["discrepancies"]}
    results = VERBS[args["verb"]](args)
    status = 0
    for r in results:
        if r["verdict"] != "match":
            if r["id"] in pins and r["engine"] == pins[r["id"]]:
                r["documented"] = True
            else:
                status = 1
    payload = {
        "version": SCHEMA_VERSION,
        "command": args["verb"],
        "seed": args["seed"],
        "results": results,
        "discrepancies": ledger["discrepancies"],
        "exit": status,
    }
    out.write(_RENDER[args["format"]](payload))
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
