"""The seam between the exact engine and the CLI.

Engine modules return plain values; only the CLI pairs a value with its
stored reference, the references are built without the engine's rules,
and the referee reads the engine's values without ever building the
reference table.  No runtime module imports numpy or scipy, and none
spells an operator (outside `symbols`) or a derivative direction as a
string.
Each CLI verb loads only the modules it runs (never `fractions` or
`argparse`), and behaves the same as a subprocess (`python -m wres4.cli`)
as through `cli.run`.  The sources stay within a line budget.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wres4 import CASE_LABELS, anchor_table
from wres4.boundary import enumerate_cases
from wres4.cli import CASE_VERBS, FLAGS, run

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wres4"
ENGINE = ("scalars", "clifford", "symbols", "halfplane", "sphere",
          "boundary", "interior")
FORBIDDEN = {"anchors", "anchor_table", "cli", "oracle"}


def _imported_names(tree: ast.AST):
    """Every dotted component of every import in the tree, function-level
    imports included: ``from . import anchors`` yields ``anchors``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for path in paths:
            yield from path.split(".")


@pytest.mark.parametrize("name", ENGINE)
def test_engine_module_imports_no_reference_cli_or_referee(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    assert FORBIDDEN.isdisjoint(_imported_names(tree))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_imports_numpy_or_scipy(path):
    # the referee is pure Python; numpy and scipy are test-only.  Nor does
    # any module import fractions: exact constants are built as integer
    # triples and nothing hashes an exact value
    tree = ast.parse(path.read_text())
    assert {"numpy", "scipy", "fractions"}.isdisjoint(_imported_names(tree))


# the symbol layer's rules: a reference may borrow the layer's types and
# shared helpers (sandwich, c_xi_poly), never a rule it checks
BUILDERS = {"sigma0_dirac", "derive", "_d_xi", "_w_half", "d_x_parts",
            "build_sigma", "parametrix", "compose_orders",
            "restrict_on_shell"}
# the calculus a reference spells out instead of running: the jet rule and
# the two helpers built from it, c(df^-1) and the f-jet middle factor
CALCULUS = {"derivative", "x_derivative", "xi_derivative", "c_dfinv",
            "jet_mid"}


@pytest.mark.parametrize("name", ["anchors", "anchor_table"])
def test_references_import_no_engine_builder(name):
    # a reference built by the code it checks would share that code's
    # faults: nothing from interior, no rule from symbols and no
    # derivative taken by the engine's rules
    tree = ast.parse((SRC / f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in CALCULUS
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert {"interior", "symbols"}.isdisjoint(
                    alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            names = {alias.name for alias in node.names}
            assert "interior" not in module
            assert names.isdisjoint({"interior", "symbols", "*", *CALCULUS})
            if "symbols" in module:
                assert BUILDERS.isdisjoint(names)


def test_the_tests_evaluator_shares_only_the_context_with_the_referee():
    # the tests' symbol evaluator checks the referee's lowering, so from
    # the referee it takes the context and eval_scalar and nothing else
    oracle_names = set()
    for node in ast.walk(ast.parse((TESTS / "helpers.py").read_text())):
        if isinstance(node, ast.Import):
            assert "oracle" not in _imported_names(node)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "wres4.oracle":
                oracle_names |= names
            else:
                assert "oracle" not in {*(node.module or "").split("."),
                                        *names}
    assert oracle_names == {"NumericContext", "eval_scalar"}


def test_crosscheck_never_builds_the_anchor_table(capsys):
    anchor_table._build_anchors.cache_clear()
    assert run(["crosscheck", "--seed", "42", "--case", "b"]) == 0
    capsys.readouterr()
    assert anchor_table._build_anchors.cache_info().misses == 0


def _string_constants(path: Path):
    """Every string constant in a module, f-string pieces included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_operator_names_are_spelled_only_where_they_are_kept():
    # symbols names its operators; the string anywhere else would be
    # dispatch on a string, where the engine and the references pass
    # symbols.D and symbols.DTILDE as values
    spelled = {path.stem for path in SRC.glob("*.py")
               for value in _string_constants(path)
               if value in ("D", "Dtilde")}
    assert spelled <= {"symbols"}


def test_no_direction_is_a_string():
    # a derivative direction is an integer 1..4, with 4 the normal one:
    # derive(s, x=..., xi=...) takes them as tuples, so a name such as
    # "x_n", or an f-string piece such as "xi_", would be parsed back
    spelled = {(path.stem, value) for path in SRC.glob("*.py")
               for value in _string_constants(path)
               if re.fullmatch(r"xi?_[123n]?", value)}
    assert spelled == set()


# -- what each verb loads ----------------------------------------------------

def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


QUICK = {"anchors", "cli", "clifford", "errors", "scalars", "sexpr"}
# only the verbs that look a reference up by id compile the table
PHI = QUICK | {"anchor_table", "symbols", "boundary", "halfplane", "sphere"}
LOADED = {
    "verify-traces": QUICK,
    "compute-interior": QUICK | {"interior"},
    "verify-lemma41": QUICK | {"symbols"},
    "compute-phi": PHI,
    "report": PHI | {"interior"},
    "crosscheck": {"boundary", "cli", "clifford", "errors", "halfplane",
                   "oracle", "scalars", "sphere", "symbols"},
}


@pytest.mark.parametrize("verb", sorted(LOADED))
def test_each_verb_loads_only_the_modules_it_runs(verb):
    # a module imported at the top of the CLI would be compiled on every
    # call of every verb
    code = ("import contextlib, io, json, sys, wres4.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    wres4.cli.run(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('wres4.'))))")
    proc = _python("-c", code, verb,
                   *(["--seed", "42", "--case", "c"]
                     if verb == "crosscheck" else []))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert {m[len("wres4."):] for m in loaded} == LOADED[verb]


@pytest.mark.parametrize("verb", sorted(LOADED))
def test_no_verb_loads_fractions_decimal_or_argparse(verb):
    # the engine's rationals are integer triples and its constants are
    # built as such; the CLI reads its own argv, since argparse with the
    # gettext and locale it loads cost each call about 3 ms.  Checked
    # after the import alone and after the run; -S keeps a site hook from
    # loading any of these modules first
    code = ("import contextlib, io, sys, wres4.cli\n"
            "unused = {'fractions', 'decimal', 'argparse', 'gettext', "
            "'locale'}\n"
            "print(sorted(unused & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    wres4.cli.run(sys.argv[1:])\n"
            "print(sorted(unused & set(sys.modules)))")
    proc = _python("-S", "-c", code, verb,
                   *(["--seed", "42", "--case", "c"]
                     if verb == "crosscheck" else []))
    assert (proc.stdout, proc.returncode) == ("[]\n[]\n", 0), proc.stderr


def test_cli_import_leaves_importlib_resources_unloaded():
    # the ledger is read by its path next to the CLI; -S keeps a site hook
    # from loading the module first
    proc = _python("-S", "-c", "import sys, wres4.cli; "
                   "print('importlib.resources' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify-traces"], ["compute-interior"], ["verify-lemma41"],
    ["crosscheck", "--seed", "42", "--case", "c"],
], ids=lambda argv: argv[0])
def test_subprocess_prints_what_run_prints(argv, capsys):
    # run as `python -m`, the CLI is __main__, and its function-level
    # relative imports must still reach the package's modules
    argv = [*argv, "--format", "json"]
    status = run(argv)
    proc = _python("-m", "wres4.cli", *argv)
    assert (proc.stdout, proc.returncode) == (capsys.readouterr().out,
                                              status), proc.stderr


def test_subprocess_usage_error_exits_two():
    # the exit code through main(), as a shell sees it
    proc = _python("-m", "wres4.cli", "report", "--form", "json")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == (
        "wres4: error: unrecognized argument: --form")


def test_subprocess_report_matches_golden():
    proc = _python("-m", "wres4.cli", "report", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (TESTS / "golden" / "report.json").read_text()


# -- one home for the case labels --------------------------------------------

def _case_choices(verb: str):
    assert verb in CASE_VERBS
    return FLAGS["--case"][0]


@pytest.mark.parametrize("verb", ["compute-phi", "crosscheck"])
def test_case_choices_are_the_case_labels(verb):
    assert _case_choices(verb) == CASE_LABELS + ("all",)


def test_engine_enumerates_the_case_labels_in_order():
    assert [s.label for s in enumerate_cases()] == list(CASE_LABELS)


# -- the size of the program -------------------------------------------------

LINE_BUDGET = 2929


def test_sources_stay_within_the_line_budget():
    # every CLI op compiles the modules it imports from source when no
    # bytecode cache is written, so the cap bounds start-up cost as well
    # as size
    total = sum(len(path.read_text().splitlines())
                for path in SRC.glob("*.py"))
    assert total <= LINE_BUDGET
