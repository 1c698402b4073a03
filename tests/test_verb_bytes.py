"""Byte gate for every CLI verb and format: the exit code and the SHA-256
of stdout of each run, against the manifest tests/golden/verbs.json.

The runs are `report`, `compute-phi` (all and each `--case`),
`compute-interior`, `verify-traces`, `verify-lemma41` and
`crosscheck --seed 42|7|11`, each in json, text and latex.  A crosscheck
row's `reference` and `abs_error` are quadrature results whose low bits
move with any change of the referee's evaluation order, so the JSON of a
crosscheck run is hashed with those two masked.  Its `engine` float stays
in the hash with the ids and verdicts: it is the exact case value summed
in the engine's term order, so it pins that order.  Every other run is
hashed as printed.

After a deliberate change of output, rewrite every CLI golden with

    PYTHONPATH=src python tests/test_verb_bytes.py

That is the manifest, the three report goldens that tests/test_cli.py
compares byte for byte (report.json, report.txt and report.tex), and
crosscheck_seed42.json, which tests/test_cli.py compares byte for byte but
for its quadrature floats, held within a bound.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wres4 import CASE_LABELS
from wres4.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "verbs.json"
REPORTS = {"json": "report.json", "text": "report.txt", "latex": "report.tex"}
ARGVS = (("report",), ("compute-phi",),
         *(("compute-phi", "--case", label) for label in CASE_LABELS),
         ("compute-interior",), ("verify-traces",), ("verify-lemma41",),
         *(("crosscheck", "--seed", seed) for seed in ("42", "7", "11")))
RUNS = [" ".join((*argv, "--format", fmt))
        for argv in ARGVS for fmt in ("json", "text", "latex")]
_FLOATS = ("reference", "abs_error")


def _masked(out: str) -> str:
    doc = json.loads(out)
    for row in doc["results"]:
        if row["id"].startswith("crosscheck["):
            row.update(dict.fromkeys(_FLOATS, "<float>"))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fingerprint(run_id: str) -> dict:
    """The exit code and the (masked) stdout digest of one run."""
    argv = run_id.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    out = buf.getvalue()
    if argv[0] == "crosscheck" and argv[-1] == "json":
        out = _masked(out)
    return {"exit": code,
            "sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.mark.parametrize("run_id", RUNS)
def test_stdout_matches_the_manifest(run_id):
    assert fingerprint(run_id) == json.loads(MANIFEST.read_text())[run_id]


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps({r: fingerprint(r) for r in RUNS},
                                   indent=2) + "\n")
    for fmt, name in REPORTS.items():
        run(["report", "--format", fmt, "--out", str(GOLDEN / name)])
    run(["crosscheck", "--seed", "42", "--format", "json",
         "--out", str(GOLDEN / "crosscheck_seed42.json")])
