"""Batch entry point for the verification suites and report generation.

Exit status is the contract: 0 when every executed comparison either
matches or is a documented entry of the shipped discrepancy ledger, 1
when a new mismatch appears, 2 on usage errors.

Every call is a fresh interpreter, so each verb imports only the modules
it runs: the suites and `_entry` import their engine names when called,
and `verify-traces` never loads the symbol layer or the boundary stack.
`scalars` is the one engine module imported here.  Every verb needs it,
and building its constants (`GAUSS_ONE`, `GAUSS_I`) calls
`GaussianRational.__init__`, which perfbench/tracer.py counts only once
the module has loaded: imported inside `run`, those calls would be seen
by a profiler of `run` but not by the tracer.  For the same reason no
module imported lazily may call its own traced functions at import time.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Dict, List, Optional

from . import CASE_LABELS
from .scalars import ScalarExpr, reduce_sphere

SCHEMA_VERSION = 1


def load_discrepancies() -> Dict:
    path = resources.files("wres4.data") / "known_discrepancies.json"
    return json.loads(path.read_text())


def known_ids() -> frozenset:
    return frozenset(d["id"] for d in load_discrepancies()["discrepancies"])


def _reference(ident: str):
    """The stored reference of one id, or None when no anchor exists."""
    from . import anchors

    return anchors.anchor(ident) if anchors.has_anchor(ident) else None


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
    """Closed symbol forms against the order-by-order parametrix."""
    from .symbols import build_sigma, parametrix

    out = []
    for op in ("D", "Dtilde"):
        r1, r2 = parametrix(op)
        for order, computed in ((-1, r1), (-2, r2)):
            out.append(_entry(f"parametrix[{op},{order}]",
                              computed.canonical(),
                              build_sigma(op, order).canonical()))
    return out


def phi_suite(case_filter: str) -> List[Dict]:
    from .boundary import (
        assemble_phi,
        compute_case,
        enumerate_cases,
        hp_part,
        intermediates,
    )

    if case_filter == "all":
        cases = assemble_phi()
    else:
        cases = {spec.label: compute_case(spec) for spec in enumerate_cases()
                 if spec.label == case_filter}
    out = []
    for label, value in cases.items():
        out.append(_entry(f"case_{label}", value, _reference(f"case_{label}")))
        steps = intermediates(label)
        for name in sorted(steps):
            out.append(_entry(name, steps[name], _reference(name)))
    if case_filter == "all":
        zero = ScalarExpr.zero()
        out.append(_entry("4.52", sum(cases.values(), zero),
                          _reference("4.52")))
        out.append(_entry("phi.b_plus_c", cases["b"] + cases["c"], zero))
        out.append(_entry("phi.hp_cancellation",
                          hp_part(cases["a2"] + cases["a3"]), zero))
    return out


def interior_suite() -> List[Dict]:
    from .interior import (
        E_closed_form,
        compute_E_at_x0,
        theorem32_prefactor,
        theorem32_value,
        trace_braces,
        trace_interior,
    )

    trace = trace_interior()
    pi2_f2 = ScalarExpr.var("PI") ** 2 * ScalarExpr.f_inverse(2)
    return [
        _entry("3.19", compute_E_at_x0(), E_closed_form()),
        _entry("3.22", trace, trace_braces()),
        _entry("theorem32.prefactor", theorem32_prefactor(),
               ScalarExpr.const(-512) * pi2_f2),
        _entry("theorem32.value", theorem32_value(trace),
               ScalarExpr.const(128) * pi2_f2 * trace),
    ]


def crosscheck_suite(seed: int, case_filter: str) -> List[Dict]:
    from .boundary import enumerate_cases
    from .oracle import NumericContext, crosscheck_case

    ctx = NumericContext(seed)
    defect = ctx.rep.max_relation_defect()
    out = [{"id": "gamma.relations", "engine": f"max defect {defect}",
            "reference": "0 to machine precision",
            "verdict": "match" if defect < 1e-14 else "mismatch"}]
    for spec in enumerate_cases():
        if case_filter != "all" and spec.label != case_filter:
            continue
        rec = crosscheck_case(spec, ctx)
        ok = rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))
        out.append({
            "id": f"crosscheck[{spec.label}]",
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
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=str) + "\n"


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wres4",
        description="Symbolic residue engine: verification suites and "
                    "reports.")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb in ("verify-traces", "verify-lemma41", "compute-phi",
                 "compute-interior", "crosscheck", "report"):
        sp = sub.add_parser(verb)
        if verb in ("compute-phi", "crosscheck"):
            sp.add_argument("--case", choices=CASE_LABELS + ("all",),
                            default="all")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("text", "json", "latex"),
                        default="text")
        sp.add_argument("--out", default=None)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    ledger = load_discrepancies()
    documented = frozenset(d["id"] for d in ledger["discrepancies"])

    if args.verb == "verify-traces":
        results = trace_suite()
    elif args.verb == "verify-lemma41":
        results = lemma41_suite()
    elif args.verb == "compute-phi":
        results = phi_suite(args.case)
    elif args.verb == "compute-interior":
        results = interior_suite()
    elif args.verb == "crosscheck":
        results = crosscheck_suite(args.seed, args.case)
    else:
        results = report_suite()

    status = 0
    for r in results:
        if r["verdict"] != "match":
            if r["id"] in documented:
                r["documented"] = True
            else:
                status = 1
    payload = {
        "version": SCHEMA_VERSION,
        "command": args.verb,
        "seed": args.seed,
        "results": results,
        "discrepancies": ledger["discrepancies"],
        "exit": status,
    }
    text = _RENDER[args.format](payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
