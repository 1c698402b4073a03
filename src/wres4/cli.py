"""Batch entry point for the verification suites and report generation.

Exit status is the contract: 0 when every executed comparison either
matches or is a documented entry of the shipped discrepancy ledger, 1
when a new mismatch appears, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Dict, List, Optional

from . import anchors
from .boundary import assemble_phi, enumerate_cases, theorem42_report
from .clifford import CliffordElem, spin_trace
from .interior import (
    closed_form_verdict,
    theorem32_prefactor,
    theorem32_value,
    trace_interior,
)
from .scalars import ScalarExpr, reduce_sphere
from .sexpr import dumps as sexpr_dumps
from .symbols import build_sigma, parametrix

SCHEMA_VERSION = 1
_CASES = ("a1", "a2", "a3", "b", "c")


def load_discrepancies() -> Dict:
    path = resources.files("wres4.data") / "known_discrepancies.json"
    return json.loads(path.read_text())


def known_ids() -> frozenset:
    return frozenset(d["id"] for d in load_discrepancies()["discrepancies"])


def _entry(ident: str, engine, reference, verdict: str) -> Dict:
    return {
        "id": ident,
        "engine": engine if isinstance(engine, str) else sexpr_dumps(engine),
        "reference": (reference if isinstance(reference, (str, type(None)))
                      else sexpr_dumps(reference)),
        "verdict": verdict,
    }


def _re_im(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


# -- suites ------------------------------------------------------------------

def trace_suite() -> List[Dict]:
    """The five boundary trace identities, restricted to the unit
    cosphere where required."""
    cxp = CliffordElem.c_xi_prime()
    cdxn = CliffordElem.c_dxn()
    dcxp = cxp.x_derivative(4)
    hp = ScalarExpr.var("HP")

    def on_sphere(e: ScalarExpr) -> ScalarExpr:
        return reduce_sphere(e)

    checks = [
        ("trace[1]", spin_trace(cxp * cdxn), ScalarExpr.zero()),
        ("trace[2]", spin_trace(cdxn * cdxn), ScalarExpr.const(-4)),
        ("trace[3]", on_sphere(spin_trace(cxp * cxp)), ScalarExpr.const(-4)),
        ("trace[4]", spin_trace(dcxp * cdxn), ScalarExpr.zero()),
        ("trace[5]", on_sphere(spin_trace(dcxp * cxp)),
         ScalarExpr.const(-2) * hp),
    ]
    return [_entry(ident, eng, ref,
                   "match" if eng == ref else "mismatch")
            for ident, eng, ref in checks]


def lemma41_suite() -> List[Dict]:
    """Closed symbol forms against the order-by-order parametrix."""
    out = []
    for op in ("D", "Dtilde"):
        r1, r2 = parametrix(op)
        for order, computed in ((-1, r1), (-2, r2)):
            closed = build_sigma(op, order)
            verdict = ("match" if computed.canonical() == closed.canonical()
                       else "mismatch")
            out.append(_entry(f"parametrix[{op},{order}]",
                              computed.canonical(), closed.canonical(),
                              verdict))
    return out


def phi_suite(case_filter: str) -> List[Dict]:
    phi = assemble_phi()
    out = []
    labels = _CASES if case_filter == "all" else (case_filter,)
    for label in labels:
        res = phi.cases[label]
        out.append(_entry(f"case_{label}", res.symbolic_value,
                          res.paper_value, res.verdict))
        for name in sorted(res.intermediate_verdicts):
            out.append(_entry(name, res.intermediates[name],
                              anchors.anchor(name)
                              if anchors.has_anchor(name) else None,
                              res.intermediate_verdicts[name]))
    if case_filter == "all":
        out.append(_entry("4.52", phi.total, phi.paper_value, phi.verdict))
        out.append(_entry("phi.b_plus_c", "0" if phi.b_plus_c_zero else "!=0",
                          "0", "match" if phi.b_plus_c_zero else "mismatch"))
        out.append(_entry("phi.hp_cancellation",
                          "0" if phi.hp_cancellation else "!=0", "0",
                          "match" if phi.hp_cancellation else "mismatch"))
    return out


def interior_suite() -> List[Dict]:
    res = trace_interior()
    prefactor = theorem32_prefactor()
    expected_prefactor = (ScalarExpr.const(-512) * ScalarExpr.var("PI") ** 2
                          * ScalarExpr.f_inverse(2))
    return [
        _entry("3.19", "raw route E (mixed term -1/2)",
               "closed form with mixed term +1/2", closed_form_verdict()),
        _entry("3.22", res.trace_value, res.paper_value, res.verdict),
        _entry("theorem32.prefactor", prefactor, expected_prefactor,
               "match" if prefactor == expected_prefactor else "mismatch"),
        _entry("theorem32.value", theorem32_value(res),
               "engine trace times 128 pi^2 / f^2", "match"),
    ]


def crosscheck_suite(seed: int, case_filter: str) -> List[Dict]:
    from .oracle import GammaRep, NumericContext, crosscheck_case

    rep = GammaRep()
    ctx = NumericContext(seed, rep)
    out = [_entry("gamma.relations", f"max defect {rep.max_relation_defect()}",
                  "0 to machine precision",
                  "match" if rep.max_relation_defect() < 1e-14
                  else "mismatch")]
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


def report_suite(seed: int) -> List[Dict]:
    results = (trace_suite() + lemma41_suite() + phi_suite("all")
               + interior_suite())
    phi = assemble_phi()
    doc = theorem42_report(phi, trace_interior())
    results.append({"id": "theorem42", "engine": json.dumps(doc, sort_keys=True),
                    "reference": None, "verdict": "match"})
    return results


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
        sp.add_argument("--case", choices=_CASES + ("all",), default="all")
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
        results = report_suite(args.seed)

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
