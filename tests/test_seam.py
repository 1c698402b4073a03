"""The seam between the exact engine and the CLI.

Engine modules return plain values; only the CLI pairs a value with its
stored reference, and the referee reads the engine's values without ever
building the reference table.  No runtime module imports numpy or scipy.
"""

import ast
from pathlib import Path

import pytest

from wres4 import anchors
from wres4.cli import run

SRC = Path(__file__).resolve().parent.parent / "src" / "wres4"
ENGINE = ("scalars", "clifford", "symbols", "halfplane", "sphere",
          "boundary", "interior")
FORBIDDEN = {"anchors", "cli", "oracle"}


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
    # the referee is pure Python; numpy and scipy are test-only
    tree = ast.parse(path.read_text())
    assert {"numpy", "scipy"}.isdisjoint(_imported_names(tree))


def test_crosscheck_never_builds_the_anchor_table(capsys):
    anchors._build_anchors.cache_clear()
    assert run(["crosscheck", "--seed", "42", "--case", "b"]) == 0
    capsys.readouterr()
    assert anchors._build_anchors.cache_info().misses == 0
