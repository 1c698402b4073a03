"""The floating-point referee: gamma representation, evaluation
homomorphism, quadrature primitives, and determinism."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wres4
from wres4.clifford import CliffordElem, spin_trace
from wres4.errors import MissingBinding, NonConvergence, ShellViolation
from wres4.halfplane import pi_plus
from wres4.oracle import (
    CompiledSymbol,
    GammaRep,
    LoweredSymbol,
    NumericContext,
    _gauss_legendre,
    _horner,
    _trace_coefficients,
    _panel,
    _qags21,
    _qk21,
    _XGK,
    _WG,
    quad_line,
    quad_sphere,
)
from wres4.scalars import NAMES, ScalarExpr
from wres4.sphere import moment
from wres4.symbols import (
    D,
    DTILDE,
    OFF,
    BoundarySymbol,
    build_sigma,
    derive,
    restrict_on_shell,
)

from helpers import (
    MatrixSymbol,
    eval_clifford,
    eval_symbol,
    evaluate,
    on_shell_term,
    quad_contour_pi_plus,
)


def rand_elem(rng, depth=3):
    out = CliffordElem.zero()
    for _ in range(depth):
        term = CliffordElem.scalar(ScalarExpr.const(rng.randint(-5, 5)))
        for _ in range(rng.randint(0, 3)):
            term = term * CliffordElem.gen(rng.randint(1, 4))
        out = out + term
    return out


@pytest.fixture(scope="module")
def ctx():
    return NumericContext(42)


class TestGammaRep:
    def test_clifford_relations(self):
        assert GammaRep().max_relation_defect() < 1e-14

    def test_traceless(self):
        rep = GammaRep()
        for g in rep.gamma:
            assert abs(np.trace(g)) < 1e-14
        g1, g2, g3, g4 = (np.asarray(g) for g in rep.gamma)
        vol = g1 @ g2 @ g3 @ g4
        assert abs(np.trace(vol)) < 1e-14

    def test_python_complex_and_exact(self):
        # the referee's matrices are 4x4 tuples of Python complex, and the
        # default representation meets the relations with no rounding, as
        # the gamma.relations row prints; any four 4x4 sequences convert
        for rep in (GammaRep(), GammaRep([np.eye(4)] * 4)):
            for m in rep.gamma + [rep.basis_matrix((1, 3, 4))]:
                assert type(m) is tuple and len(m) == 4
                for row in m:
                    assert type(row) is tuple and len(row) == 4
                    assert {type(x) for x in row} == {complex}
        assert GammaRep().max_relation_defect() == 0.0
        assert GammaRep([np.eye(4)] * 4).max_relation_defect() == 4.0

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            GammaRep([np.eye(4)] * 3)


class TestEvaluate:
    def test_generator_square(self, ctx):
        g1 = CliffordElem.gen(1)
        assert np.allclose(evaluate(g1 * g1, ctx), -np.eye(4))

    def test_homomorphism_random_pairs(self, ctx):
        rng = random.Random(67)
        pt = ((0.3, -0.5, 0.7), 1.3)
        for _ in range(200):
            a, b = rand_elem(rng), rand_elem(rng)
            lhs = np.asarray(evaluate(a * b, ctx, pt))
            rhs = np.asarray(evaluate(a, ctx, pt)) @ np.asarray(
                evaluate(b, ctx, pt))
            scale = max(1.0, float(np.abs(lhs).max()))
            assert np.abs(lhs - rhs).max() / scale < 1e-12

    def test_scalar_follows_num_over_f_power(self, ctx):
        # eval_scalar walks the Laurent terms, yet must perform exactly the
        # float operations of sum(num terms) / F**fpow.
        rng = random.Random(73)
        pt = ((0.3, -0.5, 0.7), None)
        bind = dict(ctx.assignment, XI1=0.3, XI2=-0.5, XI3=0.7)
        for _ in range(100):
            e = ScalarExpr.zero()
            for _ in range(4):
                term = ScalarExpr.const(rng.randint(-9, 9))
                for name in ("HP", "F", "FI4", "XI1", "S"):
                    term = term * ScalarExpr.var(name, rng.randint(0, 2))
                e = e + term * ScalarExpr.var("F", rng.randint(-3, 1))
            expected = sum(
                complex(c) * math.prod(bind[NAMES[i]] ** k for i, k in m)
                for m, c in e.num.terms.items()) / bind["F"] ** e.fpow
            assert evaluate(e, ctx, pt) == expected

    def test_spin_trace_consistency(self, ctx):
        rng = random.Random(71)
        pt = ((0.2, 0.9, -0.1), -0.4)
        for _ in range(100):
            a = rand_elem(rng)
            lhs = evaluate(spin_trace(a), ctx, pt)
            rhs = np.trace(evaluate(a, ctx, pt))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_leading_inverse_symbol_shape(self, ctx):
        # on the unit cosphere the order -1 symbol of the rescaled
        # operator is 2i c(xi) / (f (1 + xi_n^2))
        s = restrict_on_shell(build_sigma(DTILDE, -1))
        x1, x2 = 0.6, -0.48
        x3 = math.sqrt(1 - x1 * x1 - x2 * x2)
        xi_n = 0.9
        pt = ((x1, x2, x3), xi_n)
        cxi = (np.asarray(evaluate(CliffordElem.c_xi_prime(), ctx, pt))
               + xi_n * np.asarray(evaluate(CliffordElem.c_dxn(), ctx, pt)))
        expected = 2j * cxi / (ctx.assignment["F"] * (1 + xi_n ** 2))
        got = evaluate(s, ctx, pt)
        assert np.abs(got - expected).max() < 1e-12

    def test_missing_binding(self, ctx):
        with pytest.raises(MissingBinding):
            evaluate(ScalarExpr.var("XI1"), ctx)
        with pytest.raises(MissingBinding):
            evaluate(build_sigma(D, -1), ctx, None)

    def test_unknown_type(self, ctx):
        with pytest.raises(TypeError):
            evaluate("bogus", ctx)


def reference_symbol(s, ctx, xi_prime, xi_n):
    """eval_clifford of each coefficient times xi_n**deg over its on-shell
    denominator, written out term by term."""
    out = np.zeros((4, 4), dtype=complex)
    for key, poly in s.terms.items():
        den = (xi_n - 1j) ** key[0] * (xi_n + 1j) ** key[1]
        for deg, coeff in poly.items():
            out += (np.asarray(eval_clifford(coeff, ctx, (xi_prime, None)))
                    * xi_n ** deg / den)
    return out


def case_factor_symbols():
    from wres4.boundary import case_factors, enumerate_cases

    return [s for spec in enumerate_cases()
            for pair in case_factors(spec, DTILDE) for s in pair]


OFF_SHELL = {
    "D,-1": lambda: build_sigma(D, -1),
    "Dtilde,-2": lambda: build_sigma(DTILDE, -2),
    "d_xn D,-1": lambda: derive(build_sigma(D, -1), x=(4,)),
    # W-pole orders 1, 2, 3
    "D,-1 + Dtilde,-2": lambda: (build_sigma(D, -1)
                                 + build_sigma(DTILDE, -2)),
}

# xi_n-polynomial numerators over one denominator must agree with the
# per-entry weights from the origin out to where the terms nearly cancel
XI_N = (0.0, 0.3, -0.3, 1.0, -1.0, 290.0, -290.0, 1e3)


class TestLoweredEvaluator:
    def check_against_reference(self, s, ctx, rng):
        # three points on the unit sphere, and one off it so that
        # XI1^2 + XI2^2 + XI3^2 is not 1
        for radius in (1.0, 1.0, 1.0, rng.uniform(0.5, 2.0)):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            xp = tuple(radius * x / norm for x in v)
            compiled = MatrixSymbol(LoweredSymbol(s, ctx), xp)
            for xi_n in (rng.uniform(-3.0, 3.0),
                         complex(rng.uniform(-2.0, 2.0),
                                 rng.uniform(-0.5, 0.5))) + XI_N:
                got = np.asarray(compiled.matrix(xi_n))
                ref = reference_symbol(s, ctx, xp, xi_n)
                scale = max(1.0, float(np.abs(ref).max()))
                assert got.shape == (4, 4)
                assert np.abs(got - ref).max() <= 1e-13 * scale

    def test_case_factors_match_reference(self, ctx):
        factors = case_factor_symbols()
        assert len(factors) == 14
        rng = random.Random(79)
        for s in factors:
            assert s.shell != OFF
            self.check_against_reference(s, ctx, rng)
            # a polynomial of degree at most 7 in xi_n
            assert max(n for n, _ in LoweredSymbol(s, ctx).lift) <= 7

    def test_off_shell_symbols_are_rejected(self, ctx):
        # every factor the referee is given is on shell, so it lowers no
        # other; a full point does not change that
        for make in OFF_SHELL.values():
            s = make()
            assert s.shell == OFF
            with pytest.raises(ShellViolation):
                LoweredSymbol(s, ctx)
            with pytest.raises(ShellViolation):
                eval_symbol(s, ctx, ((0.6, 0.0, 0.8), 0.5))

    def check_shared_against_fresh(self, s, ctx, rng):
        # instances of one lowered symbol at five points, three on the unit
        # sphere and two off it, called in turn so that on shell they share
        # the reciprocal denominators, against a fresh lowering per point
        low = LoweredSymbol(s, ctx)
        points = []
        for radius in (1.0, 1.0, 1.0, rng.uniform(0.5, 2.0),
                       rng.uniform(0.5, 2.0)):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            points.append(tuple(radius * x / norm for x in v))
        shared = [MatrixSymbol(low, xp) for xp in points]
        for xi_n in (rng.uniform(-3.0, 3.0),
                     complex(rng.uniform(-2.0, 2.0),
                             rng.uniform(-0.5, 0.5))) + XI_N:
            for xp, compiled in zip(points, shared):
                fresh = MatrixSymbol(LoweredSymbol(s, ctx), xp)
                assert compiled(xi_n) == fresh(xi_n)
                assert compiled.matrix(xi_n) == fresh.matrix(xi_n)
        return low

    def test_case_factors_share_reciprocals_across_points(self, ctx):
        factors = case_factor_symbols()
        assert len(factors) == 14
        rng = random.Random(89)
        for s in factors:
            low = self.check_shared_against_fresh(s, ctx, rng)
            # one memo for all points: 10 xi_n values
            assert len(low.recips) == 10

    @pytest.mark.parametrize("shell", ["on"])
    def test_zero_symbol(self, ctx, shell):
        got = eval_symbol(BoundarySymbol.zero(shell), ctx,
                          ((0.6, 0.0, 0.8), 0.5))
        assert np.array_equal(got, np.zeros((4, 4)))
        compiled = MatrixSymbol(
            LoweredSymbol(BoundarySymbol.zero(shell), ctx), (0.3, 0.4, 1.2))
        for xi_n in XI_N:
            assert np.array_equal(compiled.matrix(xi_n), np.zeros((4, 4)))

    @pytest.mark.parametrize("make", [lambda: case_factor_symbols()[-1]],
                             ids=["case factor"])
    def test_shared_reciprocal_is_fresh(self, ctx, make):
        # a repeated xi_n returns the first call's reciprocal denominator,
        # equal to a fresh evaluation and shared by every instance of the
        # lowered symbol, at any point, and the matrix built on it is
        # immutable
        low = LoweredSymbol(make(), ctx)
        xp, other = (0.36, -0.48, 0.8), (0.6, 0.0, 1.6)
        compiled = MatrixSymbol(low, xp)
        for xi_n in (0.7, complex(0.4, -0.3)):
            first = compiled(xi_n)
            assert compiled(xi_n) is first
            assert CompiledSymbol(LoweredSymbol(make(), ctx))(xi_n) == first
            assert CompiledSymbol(low)(xi_n) is first
            assert MatrixSymbol(low, other)(xi_n) is first
            assert low.recips[xi_n] is first
            assert type(compiled.matrix(xi_n)) is tuple

    def test_trace_polynomial_matches_matrix_trace(self, ctx):
        # at each sphere node the summed tr(L R) of a case's pairs, which
        # share their pole orders, is one xi_n-polynomial, contracted once
        # per case, over one pair's reciprocal denominators; against the
        # sum of the traces of the two matrices' products, for every factor
        # pair of every case on its own and for each case's pairs together
        # (a1's three), at real and complex xi_n
        from wres4.boundary import case_factors, enumerate_cases

        c = _gauss_legendre(12)[0][4]
        s = math.sqrt(1.0 - c * c)
        nodes = [(s * math.cos(2.0 * math.pi * k / 24),
                  s * math.sin(2.0 * math.pi * k / 24), c)
                 for k in range(0, 24, 5)] + [(0.3, -1.1, 0.5)]
        sums = []
        for spec in enumerate_cases():
            pairs = [(LoweredSymbol(left, ctx), LoweredSymbol(right, ctx))
                     for left, right in case_factors(spec, DTILDE)]
            assert len({(lo.poles, ro.poles) for lo, ro in pairs}) == 1
            sums += [[pair] for pair in pairs] + [pairs]
        assert sorted(map(len, sums)) == [1] * 11 + [3]
        for pairs in sums:
            trace_at = _trace_coefficients(pairs)
            lc, rc = (CompiledSymbol(low) for low in pairs[0])
            for xp in nodes:
                coeffs = trace_at(*xp)
                assert {type(x) for x in coeffs} == {complex}
                factors = [(MatrixSymbol(low_l, xp), MatrixSymbol(low_r, xp))
                           for low_l, low_r in pairs]
                for xi_n in (0.7, -2.5, complex(0.4, -0.3)):
                    got = _horner(coeffs, xi_n) * lc(xi_n) * rc(xi_n)
                    ref = sum(np.trace(np.asarray(ml.matrix(xi_n))
                                       @ np.asarray(mr.matrix(xi_n)))
                              for ml, mr in factors)
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("name", ["XIN", "W"])
    @pytest.mark.parametrize("make", [
        lambda poly, k: on_shell_term(poly, k, k),
    ], ids=["on"])
    def test_unbound_name_in_coefficient(self, name, make):
        # xi_n and |xi|^2 are no scalar names: xi_n is the numerator degree
        # and |xi|^2 the term key. A coefficient that holds HP, under a
        # context that leaves HP unbound, must name it wherever it sits,
        # not read a stale or default value
        partial = NumericContext(42)
        del partial.assignment["HP"]
        c = CliffordElem.scalar(ScalarExpr.var("HP"))
        if name == "XIN":
            s = make({1: c}, 0)
        else:
            s = make({0: c}, 1)
        with pytest.raises(MissingBinding, match="HP"):
            eval_symbol(s, partial, ((0.6, 0.0, 0.8), 0.5))
        # the same symbol lowers once HP is bound
        eval_symbol(s, NumericContext(42), ((0.6, 0.0, 0.8), 0.5))


class TestGaussKronrod:
    def test_gauss_nodes_and_weights(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        # descending positive half, as dqk21 stores them
        assert tuple(nodes[:4:-1]) == _XGK[1::2]
        assert np.abs(weights[:4:-1] - _WG).max() <= 2 * np.finfo(float).eps

    def test_panel_is_dqk21s_node_order(self):
        # the centre, then centre -/+ hlgth x over the Gauss abscissae, then
        # over the Kronrod-only ones, with dqk21's arithmetic; one cached
        # tuple per interval
        a, b = -0.3, 1.1
        centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
        order = [centr]
        for x in _XGK[1::2] + _XGK[0:10:2]:
            order += [centr - hlgth * x, centr + hlgth * x]
        assert _panel(a, b) == tuple(order)
        assert _panel(a, b) is _panel(a, b)

    def test_kronrod_exact_to_degree_30(self):
        val, _, _, _ = _qk21(lambda ts: [t ** 30 for t in ts], -1.0, 1.0)
        assert abs(val - 2.0 / 31.0) <= 1e-15

    def test_bisects_until_tolerance(self):
        # a kink at 0.3 needs many bisections; the summed error estimate
        # must meet the tolerance, and each bisection costs two rules, each
        # one call of the panel function at 21 nodes
        calls, nodes = [0], [0]

        def f(ts):
            calls[0] += 1
            nodes[0] += len(ts)
            return [abs(t - 0.3) ** 0.5 for t in ts]

        exact = (2.0 / 3.0) * (1.3 ** 1.5 + 0.7 ** 1.5)
        val, err = _qags21(f, -1.0, 1.0, 1e-10, 1e-10, 200)
        assert err <= 1e-10 * abs(val)
        assert abs(val - exact) <= err
        assert nodes[0] == 21 * calls[0]
        assert calls[0] > 3 and calls[0] % 2 == 1
        calls[0] = nodes[0] = 0
        val, err = _qags21(f, -1.0, 1.0, 1e-10, 1e-10, 3)
        assert (calls[0], nodes[0]) == (5, 5 * 21) and err > 1e-10

    def test_matches_scipy_quad(self, monkeypatch):
        # same value, error estimate and integrand calls as QUADPACK's
        # dqagse, on the referee's own integrands at a few sphere nodes
        scipy_integrate = pytest.importorskip("scipy.integrate")
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        port = oracle._qags21
        compared = []

        def against_scipy(f, a, b, epsabs, epsrel, limit):
            calls = [0]

            def counted(ts):
                calls[0] += len(ts)
                return f(ts)

            val, err = port(counted, a, b, epsabs, epsrel, limit)
            ref, ref_err, info = scipy_integrate.quad(
                lambda x: f((x,))[0], a, b, epsabs=epsabs, epsrel=epsrel,
                limit=limit, full_output=1)[:3]
            compared.append((val, err, calls[0], ref, ref_err,
                             info["neval"]))
            return val, err

        monkeypatch.setattr(oracle, "_qags21", against_scipy)
        quad_line(lambda t: 1 / (1 + t * t))
        # crosscheck_case's own integrands, at 2 x 3 sphere nodes
        monkeypatch.setattr(
            oracle, "quad_sphere",
            lambda p: quad_sphere(p, n_theta=2, n_phi=3))
        for spec in enumerate_cases():
            oracle.crosscheck_case(spec, NumericContext(42))
        # Cauchy kernel, then one sphere pass for each of the five cases
        # (a1's three factor pairs share one), each at 6 nodes, real and
        # imaginary parts: 31 integrands
        assert len(compared) == 2 + 5 * 6 * 2
        # both the one-rule exit and one bisection are exercised
        assert {neval for *_, neval in compared} == {21, 63}
        for val, err, calls, ref, ref_err, neval in compared:
            assert (val, err, calls) == (ref, ref_err, neval)


def _loaded_after(code: str, package: str) -> str:
    """The sorted names of `package`'s modules loaded in a fresh
    interpreter after running `code`, as printed."""
    src = str(Path(wres4.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code += (f"; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


class TestImportGuard:
    def test_no_scipy_at_runtime(self):
        assert _loaded_after("import sys, wres4.cli, wres4.oracle",
                             "scipy") == "[]"

    def test_crosscheck_loads_no_numpy(self):
        code = ("import sys, wres4.cli; wres4.cli.run(['crosscheck', "
                "'--seed', '42', '--case', 'c', '--format', 'json'])")
        assert _loaded_after(code, "numpy") == "[]"


class TestWorkGuard:
    @pytest.mark.parametrize("label, factors", [("c", 2), ("a1", 6)])
    def test_each_factor_lowered_once(self, monkeypatch, label, factors):
        # the referee binds each factor to the context once, not once per
        # sphere node; eval_scalar runs only for the symbolic value
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        counts = {"lowered": 0, "eval_scalar": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "LoweredSymbol",
                            counting("lowered", oracle.LoweredSymbol))
        monkeypatch.setattr(oracle, "eval_scalar",
                            counting("eval_scalar", oracle.eval_scalar))
        (spec,) = [s for s in enumerate_cases() if s.label == label]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert counts["lowered"] == factors
        assert counts["eval_scalar"] <= 1
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

    def test_one_evaluation_per_factor_and_xi_n(self, monkeypatch):
        # on shell a factor's reciprocal denominator depends on xi_n alone:
        # each (factor, xi_n) is computed once and shared by all 288
        # sphere nodes; case c bisects each line pass once, at the same 63
        # nodes everywhere
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        class CountingDict(dict):
            stores = 0

            def __setitem__(self, key, value):
                CountingDict.stores += 1
                super().__setitem__(key, value)

        cls = oracle.LoweredSymbol
        init, call = cls.__init__, oracle.CompiledSymbol.__call__
        lowered, calls = [], [0]

        def counting_init(self, *args):
            init(self, *args)
            self.recips = CountingDict()
            lowered.append(self)

        def counting_call(self, xi_n):
            calls[0] += 1
            return call(self, xi_n)

        monkeypatch.setattr(cls, "__init__", counting_init)
        monkeypatch.setattr(oracle.CompiledSymbol, "__call__", counting_call)
        (spec,) = [s for s in enumerate_cases() if s.label == "c"]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert [len(low.recips) for low in lowered] == [63, 63]
        assert CountingDict.stores == 2 * 63
        assert calls[0] == 72576
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

    def test_one_trace_polynomial_per_sphere_node(self, monkeypatch):
        # case c has one factor pair, and a1's three share their pole
        # orders: either way the case compiles its two factors' reciprocal
        # denominators once, contracts its trace once, over all its pairs,
        # and the sphere rule calls the node function 288 times with
        # floats; each node builds its trace coefficients, none of which
        # is alive when the next node starts
        import weakref

        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        class Coefficients(list):
            pass  # a list that takes weak references

        init, sphere = oracle.CompiledSymbol.__init__, oracle.quad_sphere
        contract = oracle._trace_coefficients
        compiled, built, nodes, contractions = [], [], [], []

        def tracking_init(self, *args):
            init(self, *args)
            compiled.append(self)

        def tracked_contraction(pairs):
            contractions.append(len(pairs))
            at = contract(pairs)

            def tracked_at(*xp):
                coeffs = Coefficients(at(*xp))
                built.append(weakref.ref(coeffs))
                return coeffs

            return tracked_at

        def watched_sphere(p):
            def node(x, y, z):
                assert [r for r in built if r() is not None] == []
                nodes.append({type(x), type(y), type(z)})
                return p(x, y, z)

            return sphere(node)

        monkeypatch.setattr(oracle.CompiledSymbol, "__init__", tracking_init)
        monkeypatch.setattr(oracle, "_trace_coefficients",
                            tracked_contraction)
        monkeypatch.setattr(oracle, "quad_sphere", watched_sphere)
        specs = {s.label: s for s in enumerate_cases()}
        for label, pairs in (("c", 1), ("a1", 3)):
            for log in (compiled, built, nodes, contractions):
                log.clear()
            rec = oracle.crosscheck_case(specs[label], NumericContext(42))
            assert len(compiled) == 2
            assert contractions == [pairs]
            assert nodes == [{float}] * 288
            assert len(built) == 288
            assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

    def test_one_horner_per_node_and_xi_n(self, monkeypatch):
        # case c: each sphere node keeps its own line integral, whose
        # integrand asks both factors at every evaluation, and evaluates
        # the node's trace polynomial once per xi_n node; quad_line's
        # imaginary-part pass revisits the real-part pass's 63 nodes
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        counts = dict.fromkeys(("call", "horner", "line"), 0)

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        cls = oracle.CompiledSymbol
        monkeypatch.setattr(cls, "__call__", counting("call", cls.__call__))
        monkeypatch.setattr(oracle, "_horner",
                            counting("horner", oracle._horner))
        monkeypatch.setattr(oracle, "quad_line",
                            counting("line", oracle.quad_line))
        (spec,) = [s for s in enumerate_cases() if s.label == "c"]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert counts == {"call": 72576, "horner": 288 * 63, "line": 288}
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

    @pytest.mark.parametrize("seed", [42, 7, 11, 23, 101, 977])
    def test_a1_lines_take_one_rule_per_pass(self, monkeypatch, seed):
        # a1's trace is purely imaginary in exact arithmetic; the rounding
        # left in its real part must not make the line rule bisect, so
        # each of its 288 line integrals (one sphere pass for its three
        # factor pairs) is two 21-point passes; a1 = 0 exactly, so its
        # value is rounding alone, at the acceptance seeds too
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        line, evaluations = oracle.quad_line, [0]

        def counting_line(f):
            def counted(t):
                evaluations[0] += 1
                return f(t)
            return line(counted)

        monkeypatch.setattr(oracle, "quad_line", counting_line)
        (spec,) = [s for s in enumerate_cases() if s.label == "a1"]
        rec = oracle.crosscheck_case(spec, NumericContext(seed))
        assert evaluations[0] == 288 * 2 * 21 == 12096
        assert rec["abs_error"] <= 1e-12

    def test_no_matrix_outlives_its_sphere_node(self, capsys):
        # a case run between two runs of another must not change its bytes
        from wres4.cli import run

        outputs = []
        for label in ("c", "b", "c"):
            assert run(["crosscheck", "--seed", "42", "--case", label,
                        "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2]
        assert outputs[0] != outputs[1]

    def test_crosscheck_builds_no_audit(self, monkeypatch):
        # the referee needs only the case value, never the printed steps
        import wres4.boundary as boundary
        import wres4.oracle as oracle

        def forbidden(label):
            raise AssertionError(f"audit of case {label} built")

        monkeypatch.setattr(boundary, "intermediates", forbidden)
        (spec,) = [s for s in boundary.enumerate_cases() if s.label == "c"]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))


class TestOneSpherePass:
    """A case's factor pairs share their pole orders, hence their
    denominators, so the referee takes one sphere pass per case over their
    summed trace; the value must be that of one pass per pair, and pairs of
    unequal pole orders are refused."""

    @staticmethod
    def numeric(monkeypatch, labels):
        # case c's referee value with its factors replaced by the pairs of
        # the labelled cases, in order, and the number of sphere passes;
        # the symbolic value is computed beforehand, so no engine cache
        # sees the substituted factors
        import wres4.boundary as boundary
        import wres4.oracle as oracle

        specs = {s.label: s for s in boundary.enumerate_cases()}
        pairs = [pair for label in labels
                 for pair in boundary.case_factors(specs[label], DTILDE)]
        symbolic = boundary.compute_case(specs["c"])
        sphere, passes = oracle.quad_sphere, [0]

        def counted(p):
            passes[0] += 1
            return sphere(p)

        with monkeypatch.context() as m:
            m.setattr(boundary, "case_factors", lambda spec, op: pairs)
            m.setattr(boundary, "compute_case", lambda spec: symbolic)
            m.setattr(oracle, "quad_sphere", counted)
            rec = oracle.crosscheck_case(specs["c"], NumericContext(42))
        return rec["numeric"], passes[0]

    def test_each_case_takes_one_sphere_pass(self, monkeypatch):
        # a1's three pairs included; a coarse 2 x 3 rule, since only the
        # passes are counted
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        passes = []

        def counted(p):
            passes[-1] += 1
            return quad_sphere(p, n_theta=2, n_phi=3)

        monkeypatch.setattr(oracle, "quad_sphere", counted)
        for spec in enumerate_cases():
            passes.append(0)
            oracle.crosscheck_case(spec, NumericContext(42))
        assert passes == [1] * 5

    def test_a_pair_given_twice_doubles_the_value(self, monkeypatch):
        once, passes_once = self.numeric(monkeypatch, ["c"])
        twice, passes_twice = self.numeric(monkeypatch, ["c", "c"])
        assert passes_once == passes_twice == 1
        assert abs(twice - 2 * once) <= 1e-13 * abs(2 * once)

    def test_two_pole_orders_raise(self, monkeypatch, ctx):
        # c's pair and b's pair differ in pole orders, so no one pair's
        # denominators serve their summed trace: the referee refuses them
        from wres4.boundary import case_factors, enumerate_cases

        specs = {s.label: s for s in enumerate_cases()}
        poles = {label: tuple(LoweredSymbol(s, ctx).poles
                              for s in case_factors(specs[label], DTILDE)[0])
                 for label in ("b", "c")}
        assert poles["b"] != poles["c"]
        with pytest.raises(ValueError, match="pole orders"):
            self.numeric(monkeypatch, ["c", "b"])


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def close(a, b):
    # 1e-10 relative, on the max(1, |value|) scale of the crosscheck bound
    return abs(a - b) <= 1e-10 * max(1.0, abs(a))


class TestMetamorphic:
    """The referee's result is a trace and a sphere integral, so it must
    not move under a change of gamma representation or a rotation of the
    sphere grid."""

    def test_gamma_conjugation(self, monkeypatch):
        # tr(U L U^-1 U R U^-1) = tr(L R) node by node, so a coarse 2 x 3
        # sphere grid shows it
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        u = random_unitary(np.random.default_rng(97), 4)
        rep = GammaRep([u @ g @ u.conj().T for g in GammaRep().gamma])
        assert rep.max_relation_defect() < 1e-14
        monkeypatch.setattr(oracle, "quad_sphere",
                            lambda p: quad_sphere(p, n_theta=2, n_phi=3))
        for spec in enumerate_cases():
            ref = oracle.crosscheck_case(spec, NumericContext(42))
            got = oracle.crosscheck_case(spec, NumericContext(42, rep))
            assert close(ref["numeric"], got["numeric"])

    def test_sphere_rotation(self, monkeypatch):
        # the 12 x 24 rule is exact for the case integrand, so it must
        # give the same value at rotated nodes
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        (spec,) = [s for s in enumerate_cases() if s.label == "b"]
        ref = oracle.crosscheck_case(spec, NumericContext(42))
        rot = random_rotation(np.random.default_rng(89))
        assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-15
        monkeypatch.setattr(
            oracle, "quad_sphere",
            lambda p: quad_sphere(lambda x, y, z: p(*(rot @ (x, y, z)))))
        got = oracle.crosscheck_case(spec, NumericContext(42))
        assert got["numeric"] != ref["numeric"]
        assert close(ref["numeric"], got["numeric"])


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = NumericContext(7)
        b = NumericContext(7)
        assert a.assignment == b.assignment

    def test_different_seed_differs(self):
        assert NumericContext(7).assignment != NumericContext(8).assignment

    def test_assignment_range(self, ctx):
        for name, val in ctx.assignment.items():
            if name == "OMEGA":
                assert val == 4 * math.pi
            elif name == "PI":
                assert val == math.pi
            else:
                assert 0.5 <= val <= 2.0


def _upper_residue(coeffs, a, b):
    """Res_{t=i} of P(t) / ((t - i)^a (t + i)^b), P = sum_n coeffs[n] t^n:
    the (a-1)-th derivative of P(t) (t + i)^-b at i over (a-1)!, by the
    Leibniz rule, with d^j/dt^j (t + i)^-b = (-1)^j b (b+1) ... (b+j-1)
    (t + i)^(-b-j)."""
    m = a - 1
    total = 0j
    for k in range(m + 1):
        p_k = sum(c * math.perm(n, k) * 1j ** (n - k)
                  for n, c in enumerate(coeffs) if n >= k)
        j = m - k
        q_j = (-1) ** j * math.prod(range(b, b + j)) * (2j) ** (-b - j)
        total += math.comb(m, k) * p_k * q_j
    return total / math.factorial(m)


class TestQuadrature:
    def test_cauchy_line(self):
        val = quad_line(lambda t: 1 / (1 + t * t))
        assert abs(val - math.pi) < 1e-10

    @pytest.mark.parametrize("f", [
        lambda t: 1.0,                   # the integral of sec^2 diverges
        lambda t: (1 + t * t) ** -0.5,   # diverges logarithmically
    ], ids=["constant", "log_divergent"])
    def test_divergent_line_raises_nonconvergence(self, f):
        # a divergent integral raises instead of returning a partial sum;
        # test_cauchy_line is the control, 1/(1 + t^2) integrating to pi
        with pytest.raises(NonConvergence):
            quad_line(f)

    def test_higher_pole_line(self):
        val = quad_line(lambda t: 1 / ((t - 1j) ** 2 * (t + 1j) ** 3))
        assert abs(val - (-3j * math.pi / 8)) < 1e-9

    @pytest.mark.parametrize("a, b", [(4, 2), (5, 3), (5, 2), (5, 4)])
    def test_line_rule_matches_the_upper_residue(self, a, b):
        # the referee's pole orders (a1; a2 and a3; b; c) with random
        # complex numerators of degree <= a + b - 2, so the integrand
        # decays like t^-2 and the line integral is 2 pi i Res_{t=i};
        # the residue is computed here, independently of halfplane
        rng = random.Random(100 * a + b)
        for _ in range(30):
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(rng.randint(1, a + b - 1))]

            def f(t):
                return (_horner(coeffs, t)
                        / ((t - 1j) ** a * (t + 1j) ** b))

            exact = 2j * math.pi * _upper_residue(coeffs, a, b)
            val = quad_line(f)
            assert abs(val - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_contour_fixed_point(self):
        val = quad_contour_pi_plus(lambda z: 1 / (z - 1j), 0.7)
        assert abs(val - 1 / (0.7 - 1j)) < 1e-9

    def test_contour_kills_lower_pole(self):
        val = quad_contour_pi_plus(lambda z: 1 / (z + 1j), 0.7)
        assert abs(val) < 1e-9

    def test_contour_matches_engine_projection(self, ctx):
        # adjudication of the projected leading-symbol sign at 10 points
        full = restrict_on_shell(build_sigma(DTILDE, -1))
        proj = pi_plus(full)
        xp = (0.6, 0.0, 0.8)
        # bound to ctx and xp once; each contour node is then one call
        compiled = MatrixSymbol(LoweredSymbol(full, ctx), xp)
        for k in range(10):
            xi0 = -2.0 + 0.45 * k
            num = quad_contour_pi_plus(
                lambda z: np.asarray(compiled.matrix(z)), xi0)
            sym = evaluate(proj, ctx, (xp, xi0))
            assert np.abs(num - sym).max() < 1e-8

    def test_sphere_constant(self):
        val = quad_sphere(lambda x, y, z: 1.0)
        assert abs(val - 4 * math.pi) < 1e-10

    def test_sphere_rings_sum_the_node_by_node_rule(self):
        # the rule against the same 12 x 24 rule written as a loop over
        # single nodes on numpy's Gauss-Legendre nodes, which may differ
        # from the rule's own in the last bits, so the bound is rounding,
        # not bit equality
        nodes, weights = np.polynomial.legendre.leggauss(12)
        # exponents up to 16 pass the rule's exactness (azimuthal
        # frequency 24, degree 24), so a misplaced node shows
        rng = random.Random(103)
        for _ in range(60):
            a, b, c = (rng.randint(0, 16) for _ in range(3))

            def monomial(x, y, z):
                return x ** a * y ** b * z ** c

            ref = 0j
            for zc, w in zip(nodes, weights):
                s = math.sqrt(1.0 - zc * zc)
                for k in range(24):
                    phi = 2.0 * math.pi * k / 24
                    ref += w * monomial(s * math.cos(phi),
                                        s * math.sin(phi), zc)
            ref *= 2.0 * math.pi / 24
            got = quad_sphere(monomial)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_sphere_matches_moments(self):
        rng = random.Random(73)
        for _ in range(30):
            a, b, c = (rng.randint(0, 3) for _ in range(3))
            val = quad_sphere(
                lambda x, y, z: x ** a * y ** b * z ** c)
            exact = 4 * math.pi * complex(moment(a, b, c)).real
            assert abs(val - exact) < 1e-10


class TestGaussLegendre:
    @pytest.mark.parametrize("n", range(2, 25))
    def test_matches_numpy_leggauss(self, n):
        # Newton's iteration on P_n against numpy's rule, ascending, to a
        # few ulp of 1: nodes to 2, weights to 8, since numpy's own weights
        # are up to ~7 ulp of 1 from the 50-digit values at n = 24 (these
        # are within ~1)
        nodes, weights = _gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        ulp = np.finfo(float).eps
        assert len(nodes) == len(weights) == n
        assert nodes == sorted(nodes)
        assert {type(x) for x in nodes + weights} == {float}
        assert np.abs(np.array(nodes) - ref_nodes).max() <= 2 * ulp
        assert np.abs(np.array(weights) - ref_weights).max() <= 8 * ulp
        assert abs(sum(weights) - 2.0) <= 8 * ulp

    def test_sphere_exact_to_degree_23(self):
        # every monomial of degree 23 or 22 (the two parities), and every
        # one of degree <= 5, against the exact moment
        def monomials(degree):
            return [(a, b, degree - a - b) for a in range(degree + 1)
                    for b in range(degree + 1 - a)]

        cases = (monomials(23) + monomials(22)
                 + [m for d in range(6) for m in monomials(d)])
        for a, b, c in cases:
            val = quad_sphere(lambda x, y, z: x ** a * y ** b * z ** c)
            exact = 4 * math.pi * complex(moment(a, b, c)).real
            assert abs(val - exact) <= 1e-13
        # degree 24 is past the rule's exactness
        val = quad_sphere(lambda x, y, z: z ** 24)
        assert abs(val - 4 * math.pi * complex(moment(0, 0, 24)).real) > 1e-6
