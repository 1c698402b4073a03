"""Interior Lichnerowicz-type data: the endomorphism E against the
printed closed form, the trace against the printed braces and the
Kastler-Kalau-Walze value, and the residue prefactor."""

from wres4 import anchors, interior
from wres4.anchors import E_closed_form, kkw_trace, trace_braces
from wres4.clifford import CliffordElem, spin_trace
from wres4.interior import (
    compute_E_at_x0,
    df_norm_sq,
    theorem32_prefactor,
    trace_interior,
)
from wres4.scalars import S_CURV, ScalarExpr, fij, frac

from helpers import pure_dirac_limit

FINV = ScalarExpr.f_inverse


def laplacian_f() -> ScalarExpr:
    """Delta f with the geometer's sign: -sum_j d_j d_j f."""
    return -sum((ScalarExpr.var(fij(j, j)) for j in range(1, 5)),
                ScalarExpr.zero())


class TestEndomorphism:
    def test_E_is_built_once_for_the_row_and_the_trace(self, monkeypatch):
        # row 3.19 and trace_interior share one E per process
        real, calls = interior.df_norm_sq, [0]

        def counting():
            calls[0] += 1
            return real()

        monkeypatch.setattr(interior, "df_norm_sq", counting)
        interior.compute_E_at_x0.cache_clear()
        E = compute_E_at_x0()
        trace = trace_interior()
        assert calls == [1]
        assert E is compute_E_at_x0()
        assert trace == spin_trace(CliffordElem.scalar(frac(1, 6) * S_CURV)
                                   + E)

    def test_reference_closed_form_differs_by_scalar(self):
        # documented discrepancy: the two closed forms differ by exactly
        # |df|^2/f^2, the sign flip of the mixed term
        diff = E_closed_form() - compute_E_at_x0()
        assert diff == CliffordElem.scalar(df_norm_sq() * FINV(2))
        assert anchors.compare(compute_E_at_x0(),
                               E_closed_form()) == "mismatch"

    def test_pure_dirac_limit(self):
        # all f-jets zero and f = 1: E collapses to -s/4
        E = pure_dirac_limit(compute_E_at_x0())
        assert E == CliffordElem.scalar(frac(-1, 4) * S_CURV)

    def test_mixed_clifford_square_identity(self):
        cdf = CliffordElem.c_df()
        total = CliffordElem.zero()
        for j in range(1, 5):
            a = cdf * CliffordElem.gen(j)
            total = total + a * a
        assert total == CliffordElem.scalar(
            ScalarExpr.const(-2) * df_norm_sq())


class TestTrace:
    def test_engine_trace_value(self):
        expected = (ScalarExpr.const(-1) / 3 * S_CURV
                    + ScalarExpr.const(2) * laplacian_f() * FINV()
                    + ScalarExpr.const(4) * df_norm_sq() * FINV(2))
        assert trace_interior() == expected

    def test_reference_braces_mismatch_is_documented_shape(self):
        trace, braces = trace_interior(), trace_braces()
        assert anchors.compare(trace, braces) == "mismatch"
        diff = trace - braces
        expected = (ScalarExpr.const(4) * laplacian_f() * FINV()
                    + ScalarExpr.const(10) * df_norm_sq() * FINV(2))
        assert diff == expected

    def test_kkw_reference_value(self):
        # -(f^2/3)(6 phi Delta phi + s phi^2) at phi = 1/f, written out
        fij_sum = -laplacian_f()
        expected = (ScalarExpr.const(2) * FINV(2)
                    * (ScalarExpr.const(2) * df_norm_sq()
                       - ScalarExpr.var("F") * fij_sum)
                    - frac(1, 3) * S_CURV)
        assert kkw_trace() == expected
        # pure-Dirac limit: the Lichnerowicz value -4 * s/12
        assert pure_dirac_limit(kkw_trace()) == frac(-1, 3) * S_CURV

    def test_trace_is_scalar_extraction(self):
        E = compute_E_at_x0()
        s6 = CliffordElem.scalar(frac(1, 6) * S_CURV)
        assert trace_interior() == spin_trace(s6 + E)


class TestResidueBridge:
    def test_prefactor(self):
        expected = (ScalarExpr.const(-512) * ScalarExpr.var("PI") ** 2
                    * FINV(2))
        assert theorem32_prefactor() == expected
