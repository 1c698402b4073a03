"""Symbolic engine for the noncommutative-residue computation of a
conformally rescaled Dirac operator on a 4-dimensional spin manifold with
boundary, together with an independent floating-point referee.

The package computes the five-case boundary correction and the interior
Lichnerowicz-type term exactly over Gaussian rationals, compares every
step against a set of golden reference expressions, and adjudicates each
disagreement with seeded numeric quadrature.
"""

__version__ = "0.1.0"

# The five boundary cases, in the order the engine enumerates them.  They
# live here so that the CLI can offer them as `--case` choices without
# loading the boundary stack.
CASE_LABELS = ("a1", "a2", "a3", "b", "c")

__all__ = [
    "anchors",
    "boundary",
    "clifford",
    "errors",
    "halfplane",
    "interior",
    "oracle",
    "scalars",
    "sexpr",
    "sphere",
    "symbols",
]
