"""Boundary symbol calculus: closed symbol forms, the order-by-order
parametrix, composition, and the golden serialized forms."""

import os

import pytest

from wres4 import sexpr
from wres4.clifford import CliffordElem
from wres4.errors import UnsupportedOrder
from wres4.scalars import ScalarExpr, usq
from wres4.symbols import (
    BoundarySymbol,
    XinPoly,
    build_sigma,
    c_xi_poly,
    compose_orders,
    derive,
    jet_mid,
    parametrix,
    restrict_on_shell,
    sigma0_dirac,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".sexp")) as fh:
        return fh.read()


class TestClosedForms:
    def test_leading_symbol_is_i_c_xi(self):
        s = build_sigma("D", 1)
        expected = BoundarySymbol.from_poly(
            c_xi_poly().scale(ScalarExpr.i_unit()))
        assert s == expected

    def test_conformal_leading_scaling(self):
        sD = build_sigma("D", -1)
        sDt = build_sigma("Dtilde", -1)
        expected = sD.scale(ScalarExpr.const(2) * ScalarExpr.f_inverse())
        assert sDt.canonical() == expected.canonical()

    def test_parametrix_matches_closed_forms(self):
        for op in ("D", "Dtilde"):
            r1, r2 = parametrix(op)
            assert r1.canonical() == build_sigma(op, -1).canonical()
            assert r2.canonical() == build_sigma(op, -2).canonical()

    def test_composition_is_identity(self):
        for op in ("D", "Dtilde"):
            a = {1: build_sigma(op, 1), 0: build_sigma(op, 0)}
            b = {-1: build_sigma(op, -1), -2: build_sigma(op, -2)}
            ident = compose_orders(a, b, 0).canonical()
            one = BoundarySymbol.from_clifford(CliffordElem.one()).canonical()
            assert ident == one
            assert compose_orders(a, b, -1).canonical().is_zero()

    def test_sigma0_dirac_value(self):
        expected = CliffordElem.c_dxn().scale(
            ScalarExpr.var("HP") * ScalarExpr.const(-3) / 4)
        assert sigma0_dirac() == expected


class TestDerivation:
    def test_second_x_derivative_rejected(self):
        s = derive(build_sigma("D", -1), "x_n")
        with pytest.raises(UnsupportedOrder):
            derive(s, "x_n")

    def test_xi_n_derivative_lowers_decay(self):
        s = restrict_on_shell(build_sigma("D", -1))
        d = derive(s, "xi_n")
        # every on-shell pole pair must deepen by exactly one in total
        assert max(a + b for a, b in d.terms) == max(
            a + b for a, b in s.terms) + 1

    def test_restrict_sets_unit_cosphere(self):
        s = restrict_on_shell(build_sigma("D", -1))
        for poly in s.terms.values():
            for elem in poly.coeffs.values():
                for coeff in elem.terms.values():
                    assert "U" not in coeff.free_names()

    def test_derivatives_commute(self):
        s = build_sigma("Dtilde", -1)
        ab = derive(derive(s, "xi_1"), "xi_n")
        ba = derive(derive(s, "xi_n"), "xi_1")
        assert ab.canonical() == ba.canonical()


class TestGoldenForms:
    @pytest.mark.parametrize("name,builder", [
        ("4.4", lambda: build_sigma("Dtilde", -1)),
        ("4.4b", lambda: build_sigma("Dtilde", -2)),
        ("4.14", lambda: derive(build_sigma("D", -1), "xi_n", 2)),
        ("4.15", lambda: derive(build_sigma("D", -1), "x_n")),
        ("4.22", lambda: restrict_on_shell(
            derive(derive(build_sigma("D", -1), "x_n"), "xi_n"))),
    ])
    def test_symbol_golden_round_trip(self, name, builder):
        text = golden(name)
        value = builder()
        assert sexpr.dumps(value) + "\n" == text

    def test_case_c_factor_goldens(self):
        from wres4.boundary import _sandwich
        builders = {
            "4.42": restrict_on_shell(
                derive(_sandwich(CliffordElem.c_df()), "xi_n")),
            "4.43": restrict_on_shell(
                derive(build_sigma("D", -2), "xi_n")),
            "4.48": restrict_on_shell(
                derive(_sandwich(jet_mid()), "xi_n")),
        }
        for name, value in builders.items():
            text = golden(name)
            assert sexpr.dumps(value) + "\n" == text


class TestXinPoly:
    def test_mul_shell_expands_poles(self):
        p = XinPoly.const(CliffordElem.one())
        q = p.mul_shell(1, 1)
        # (xi_n - i)(xi_n + i) = xi_n^2 + 1
        assert q.coeffs[2] == CliffordElem.one()
        assert q.coeffs[0] == CliffordElem.one()
        assert 1 not in q.coeffs

    def test_mul_w(self):
        p = XinPoly.const(CliffordElem.one())
        q = p.mul_w(1)
        assert q.coeffs[2] == CliffordElem.one()
        assert q.coeffs[0] == CliffordElem.scalar(usq())
