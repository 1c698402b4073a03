"""The floating-point referee: gamma representation, evaluation
homomorphism, quadrature primitives, and determinism."""

import itertools
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
from wres4.errors import MissingBinding
from wres4.halfplane import pi_plus
from wres4.oracle import (
    CompiledSymbol,
    GammaRep,
    LoweredSymbol,
    NumericContext,
    _ring_traces,
    eval_clifford,
    eval_symbol,
    evaluate,
    _qags21,
    _qk21,
    _XGK,
    _WG,
    quad_contour_pi_plus,
    quad_line,
    quad_sphere,
)
from wres4.scalars import NAMES, ScalarExpr
from wres4.sphere import moment
from wres4.symbols import (
    OFF,
    BoundarySymbol,
    XinPoly,
    build_sigma,
    derive,
    restrict_on_shell,
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
        vol = rep.gamma[0] @ rep.gamma[1] @ rep.gamma[2] @ rep.gamma[3]
        assert abs(np.trace(vol)) < 1e-14

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
            lhs = evaluate(a * b, ctx, pt)
            rhs = evaluate(a, ctx, pt) @ evaluate(b, ctx, pt)
            scale = max(1.0, float(np.abs(lhs).max()))
            assert np.abs(lhs - rhs).max() / scale < 1e-12

    def test_scalar_follows_num_over_f_power(self, ctx):
        # eval_scalar walks the Laurent terms, yet must perform exactly the
        # float operations of sum(num terms) / F**fpow.
        rng = random.Random(73)
        pt = ((0.3, -0.5, 0.7), None)
        bind = dict(ctx.assignment, XI1=0.3, XI2=-0.5, XI3=0.7,
                    U=0.3 * 0.3 + -0.5 * -0.5 + 0.7 * 0.7)
        for _ in range(100):
            e = ScalarExpr.zero()
            for _ in range(4):
                term = ScalarExpr.const(rng.randint(-9, 9))
                for name in ("HP", "F", "FI4", "XI1", "U"):
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
        s = restrict_on_shell(build_sigma("Dtilde", -1))
        x1, x2 = 0.6, -0.48
        x3 = math.sqrt(1 - x1 * x1 - x2 * x2)
        xi_n = 0.9
        cxi = (CliffordElem.c_xi_prime()
               + CliffordElem.c_dxn().scale(ScalarExpr.var("XIN")))
        expected = (2j * evaluate(cxi, ctx, ((x1, x2, x3), xi_n))
                    / (ctx.assignment["F"] * (1 + xi_n ** 2)))
        got = evaluate(s, ctx, ((x1, x2, x3), xi_n))
        assert np.abs(got - expected).max() < 1e-12

    def test_missing_binding(self, ctx):
        with pytest.raises(MissingBinding):
            evaluate(ScalarExpr.var("XI1"), ctx)
        with pytest.raises(MissingBinding):
            evaluate(build_sigma("D", -1), ctx, None)

    def test_unknown_type(self, ctx):
        with pytest.raises(TypeError):
            evaluate("bogus", ctx)


def reference_symbol(s, ctx, xi_prime, xi_n):
    """eval_clifford of each coefficient times xi_n**deg over its
    denominator, written out term by term."""
    u = sum(x * x for x in xi_prime)
    out = np.zeros((4, 4), dtype=complex)
    for key, poly in s.terms.items():
        if s.shell == OFF:
            den = (u + xi_n * xi_n) ** key
        else:
            den = (xi_n - 1j) ** key[0] * (xi_n + 1j) ** key[1]
        for deg, coeff in poly.coeffs.items():
            out += (eval_clifford(coeff, ctx, (xi_prime, None))
                    * xi_n ** deg / den)
    return out


def case_factor_symbols():
    from wres4.boundary import case_factors, enumerate_cases

    return [s for spec in enumerate_cases()
            for pair in case_factors(spec, "Dtilde") for s in pair]


OFF_SHELL = {
    "D,-1": lambda: build_sigma("D", -1),
    "Dtilde,-2": lambda: build_sigma("Dtilde", -2),
    "d_xn D,-1": lambda: derive(build_sigma("D", -1), "x_n"),
    # W-pole orders 1, 2, 3: the order-1 entry gains (U + xi_n**2)**2
    "D,-1 + Dtilde,-2": lambda: (build_sigma("D", -1)
                                 + build_sigma("Dtilde", -2)),
}

# xi_n-polynomial numerators over one denominator must agree with the
# per-entry weights from the origin out to where the terms nearly cancel
XI_N = (0.0, 0.3, -0.3, 1.0, -1.0, 290.0, -290.0, 1e3)


class TestLoweredEvaluator:
    def check_against_reference(self, s, ctx, rng):
        # three points on the unit sphere, and one off it so that U is
        # not 1
        for radius in (1.0, 1.0, 1.0, rng.uniform(0.5, 2.0)):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            xp = tuple(radius * x / norm for x in v)
            compiled = CompiledSymbol(LoweredSymbol(s, ctx), xp)
            for xi_n in (rng.uniform(-3.0, 3.0),
                         complex(rng.uniform(-2.0, 2.0),
                                 rng.uniform(-0.5, 0.5))) + XI_N:
                got = compiled(xi_n)
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
            assert len(LoweredSymbol(s, ctx).powers) <= 8

    @pytest.mark.parametrize("name", sorted(OFF_SHELL))
    def test_off_shell_symbols_match_reference(self, ctx, name):
        s = OFF_SHELL[name]()
        assert s.shell == OFF
        self.check_against_reference(s, ctx, random.Random(83))

    def check_stack_against_points(self, s, ctx, rng):
        # an (N, 3) stack, three points on the unit sphere and two off
        # it, against one single-point instance per row
        low = LoweredSymbol(s, ctx)
        points = []
        for radius in (1.0, 1.0, 1.0, rng.uniform(0.5, 2.0),
                       rng.uniform(0.5, 2.0)):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            points.append(tuple(radius * x / norm for x in v))
        stack = CompiledSymbol(low, np.array(points))
        singles = [CompiledSymbol(low, xp) for xp in points]
        for xi_n in (rng.uniform(-3.0, 3.0),
                     complex(rng.uniform(-2.0, 2.0),
                             rng.uniform(-0.5, 0.5))) + XI_N:
            got = stack(xi_n)
            assert got.shape == (len(points), 4, 4)
            with pytest.raises(ValueError):
                got[0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                got *= 2.0
            for row, single in zip(got, singles):
                one = single(xi_n)
                assert one.shape == (4, 4)
                assert (np.abs(row - one)
                        <= 1e-14 * np.maximum(1.0, np.abs(one))).all()

    def test_case_factor_stacks_match_points(self, ctx):
        factors = case_factor_symbols()
        assert len(factors) == 14
        rng = random.Random(89)
        for s in factors:
            self.check_stack_against_points(s, ctx, rng)

    @pytest.mark.parametrize("name", sorted(OFF_SHELL))
    def test_off_shell_stacks_match_points(self, ctx, name):
        self.check_stack_against_points(OFF_SHELL[name](), ctx,
                                        random.Random(97))

    @pytest.mark.parametrize("shell", ["on", "off"])
    def test_zero_symbol(self, ctx, shell):
        got = eval_symbol(BoundarySymbol.zero(shell), ctx,
                          ((0.6, 0.0, 0.8), 0.5))
        assert np.array_equal(got, np.zeros((4, 4)))
        compiled = CompiledSymbol(
            LoweredSymbol(BoundarySymbol.zero(shell), ctx), (0.3, 0.4, 1.2))
        for xi_n in XI_N:
            assert np.array_equal(compiled(xi_n), np.zeros((4, 4)))

    @pytest.mark.parametrize("make", [
        lambda: case_factor_symbols()[-1],
        OFF_SHELL["D,-1 + Dtilde,-2"],
    ], ids=["case factor", "off shell"])
    def test_shared_matrix_is_read_only_and_fresh(self, ctx, make):
        # a repeated xi_n returns the first call's array; its bytes are
        # those of a fresh evaluation, and no caller can write into it
        low = LoweredSymbol(make(), ctx)
        xp = (0.36, -0.48, 0.8)
        compiled = CompiledSymbol(low, xp)
        for xi_n in (0.7, complex(0.4, -0.3)):
            first = compiled(xi_n)
            assert compiled(xi_n) is first
            assert CompiledSymbol(low, xp)(xi_n).tobytes() == first.tobytes()
            with pytest.raises(ValueError):
                first[0, 0] = 1.0
            with pytest.raises(ValueError):
                first *= 2.0

    def test_ring_traces_match_per_node_dot(self, ctx):
        # the batched tr(L_k R_k) of one polar ring against each node's
        # 16-term dot, for every factor pair of every case
        from wres4.boundary import case_factors, enumerate_cases

        c = np.polynomial.legendre.leggauss(12)[0][4]
        s = math.sqrt(1.0 - c * c)
        ring = np.array([(s * math.cos(2.0 * math.pi * k / 24),
                          s * math.sin(2.0 * math.pi * k / 24), c)
                         for k in range(24)])
        pairs = [pair for spec in enumerate_cases()
                 for pair in case_factors(spec, "Dtilde")]
        assert len(pairs) == 7
        for left, right in pairs:
            lc = CompiledSymbol(LoweredSymbol(left, ctx), ring)
            rc = CompiledSymbol(LoweredSymbol(right, ctx), ring)
            for xi_n in (0.7, complex(0.4, -0.3)):
                lt, rt = lc(xi_n), rc(xi_n)
                got = _ring_traces(lt, rt)
                assert len(got) == len(ring)
                for k, value in enumerate(got):
                    assert type(value) is complex
                    ref = lt[k].ravel() @ rt[k].ravel(order="F")
                    assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("name", ["XIN", "W"])
    @pytest.mark.parametrize("make", [
        lambda c: BoundarySymbol.on_shell_term(XinPoly.const(c), 1, 1),
        lambda c: BoundarySymbol.from_clifford(c, 1),
    ], ids=["on", "off"])
    def test_unbound_name_in_coefficient(self, ctx, name, make):
        s = make(CliffordElem.scalar(ScalarExpr.var(name)))
        with pytest.raises(MissingBinding):
            eval_symbol(s, ctx, ((0.6, 0.0, 0.8), 0.5))


class TestGaussKronrod:
    def test_gauss_nodes_and_weights(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        # descending positive half, as dqk21 stores them
        assert tuple(nodes[:4:-1]) == _XGK[1::2]
        assert np.abs(weights[:4:-1] - _WG).max() <= 2 * np.finfo(float).eps

    def test_kronrod_exact_to_degree_30(self):
        val, _, _, _ = _qk21(lambda t: t ** 30, -1.0, 1.0)
        assert abs(val - 2.0 / 31.0) <= 1e-15

    def test_bisects_until_tolerance(self):
        # a kink at 0.3 needs many bisections; the summed error estimate
        # must meet the tolerance, and each bisection costs two rules
        calls = [0]

        def f(t):
            calls[0] += 1
            return abs(t - 0.3) ** 0.5

        exact = (2.0 / 3.0) * (1.3 ** 1.5 + 0.7 ** 1.5)
        val, err = _qags21(f, -1.0, 1.0, 1e-10, 1e-10, 200)
        assert err <= 1e-10 * abs(val)
        assert abs(val - exact) <= err
        assert calls[0] > 63 and calls[0] % 42 == 21
        calls[0] = 0
        val, err = _qags21(f, -1.0, 1.0, 1e-10, 1e-10, 3)
        assert calls[0] == 5 * 21 and err > 1e-10

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

            def counted(x):
                calls[0] += 1
                return f(x)

            val, err = port(counted, a, b, epsabs, epsrel, limit)
            ref, ref_err, info = scipy_integrate.quad(
                f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                full_output=1)[:3]
            compared.append((val, err, calls[0], ref, ref_err,
                             info["neval"]))
            return val, err

        monkeypatch.setattr(oracle, "_qags21", against_scipy)
        quad_line(lambda t: 1 / (1 + t * t))
        # crosscheck_case's own integrands, at 2 x 3 sphere nodes
        monkeypatch.setattr(
            oracle, "quad_sphere",
            lambda p: quad_sphere(p, n_theta=2, n_phi=3))
        specs = {s.label: s for s in enumerate_cases()}
        for label in ("a1", "c"):
            oracle.crosscheck_case(specs[label], NumericContext(42))
        # Cauchy kernel, then 3 factor pairs of a1 and 1 of c, each at 6
        # nodes, real and imaginary parts
        assert len(compared) == 2 + (3 + 1) * 6 * 2
        # both the one-rule exit and one bisection are exercised
        assert {neval for *_, neval in compared} == {21, 63}
        for val, err, calls, ref, ref_err, neval in compared:
            assert (val, err, calls) == (ref, ref_err, neval)


class TestImportGuard:
    def test_no_scipy_at_runtime(self):
        src = str(Path(wres4.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, wres4.cli, wres4.oracle; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


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
        # quad_line's imaginary-part pass revisits the real-part pass's
        # nodes; each (factor at a sphere node, xi_n) is computed once
        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        cls = oracle.CompiledSymbol
        init, call, compute = cls.__init__, cls.__call__, cls._evaluate
        serials = itertools.count()
        calls, pairs, evaluations = [0], set(), [0]

        def counting_init(self, *args):
            init(self, *args)
            # a serial, not id(): instances die with their ring
            self.serial = next(serials)

        def counting_call(self, xi_n):
            calls[0] += 1
            pairs.add((self.serial, xi_n))
            return call(self, xi_n)

        def counting_evaluate(self, xi_n):
            evaluations[0] += 1
            return compute(self, xi_n)

        monkeypatch.setattr(cls, "__init__", counting_init)
        monkeypatch.setattr(cls, "__call__", counting_call)
        monkeypatch.setattr(cls, "_evaluate", counting_evaluate)
        (spec,) = [s for s in enumerate_cases() if s.label == "c"]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert evaluations[0] == len(pairs)
        assert 2 * evaluations[0] <= calls[0]
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

    def test_one_batch_per_factor_ring_and_xi_n(self, monkeypatch):
        # case c has one factor pair; each factor is built once per polar
        # ring of the 12 x 24 sphere rule and computes its ring's matrices
        # once per xi_n node (63 of them), and nothing built for a ring is
        # alive when the next ring starts
        import weakref

        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        cls = oracle.CompiledSymbol
        init, compute, sphere = cls.__init__, cls._evaluate, oracle.quad_sphere
        built, rings, evaluations = [], [], [0]

        def tracking_init(self, *args):
            init(self, *args)
            built.append(weakref.ref(self))

        def counting_evaluate(self, xi_n):
            evaluations[0] += 1
            return compute(self, xi_n)

        def watched_sphere(p):
            sizes = []
            rings.append(sizes)

            def ring(x, y, z):
                assert [r for r in built if r() is not None] == []
                sizes.append((len(x), len(y), len(z)))
                return p(x, y, z)

            return sphere(ring)

        monkeypatch.setattr(cls, "__init__", tracking_init)
        monkeypatch.setattr(cls, "_evaluate", counting_evaluate)
        monkeypatch.setattr(oracle, "quad_sphere", watched_sphere)
        (spec,) = [s for s in enumerate_cases() if s.label == "c"]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert evaluations[0] == 2 * 12 * 63
        assert len(built) == 2 * 12
        assert rings == [[(24, 24, 24)] * 12]
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

    def test_one_trace_batch_per_ring_and_xi_n(self, monkeypatch):
        # case c: the traces of a ring's 24 products are taken once per
        # xi_n node (63 per ring), while each sphere node keeps its own
        # line integral and both factor lookups per evaluation, and no
        # trace vector of a ring is alive when the next ring starts
        import weakref

        import wres4.oracle as oracle
        from wres4.boundary import enumerate_cases

        class Traces(list):
            pass  # a list that takes weak references

        cls = oracle.CompiledSymbol
        call, compute = cls.__call__, cls._evaluate
        ring_traces, line = oracle._ring_traces, oracle.quad_line
        sphere = oracle.quad_sphere
        counts = dict.fromkeys(("traces", "call", "evaluate", "line"), 0)
        vectors = []

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        def tracked_traces(left, right):
            counts["traces"] += 1
            vec = Traces(ring_traces(left, right))
            vectors.append(weakref.ref(vec))
            return vec

        def watched_sphere(p):
            def ring(x, y, z):
                assert [v for v in vectors if v() is not None] == []
                return p(x, y, z)

            return sphere(ring)

        monkeypatch.setattr(cls, "__call__", counting("call", call))
        monkeypatch.setattr(cls, "_evaluate", counting("evaluate", compute))
        monkeypatch.setattr(oracle, "_ring_traces", tracked_traces)
        monkeypatch.setattr(oracle, "quad_line", counting("line", line))
        monkeypatch.setattr(oracle, "quad_sphere", watched_sphere)
        (spec,) = [s for s in enumerate_cases() if s.label == "c"]
        rec = oracle.crosscheck_case(spec, NumericContext(42))
        assert counts == {"traces": 12 * 63, "call": 72576,
                          "evaluate": 1512, "line": 288}
        assert [v for v in vectors if v() is not None] == []
        assert rec["abs_error"] <= 1e-8 * max(1.0, abs(rec["symbolic"]))

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


class TestQuadrature:
    def test_cauchy_line(self):
        val = quad_line(lambda t: 1 / (1 + t * t))
        assert abs(val - math.pi) < 1e-10

    def test_higher_pole_line(self):
        val = quad_line(lambda t: 1 / ((t - 1j) ** 2 * (t + 1j) ** 3))
        assert abs(val - (-3j * math.pi / 8)) < 1e-9

    def test_contour_fixed_point(self):
        val = quad_contour_pi_plus(lambda z: 1 / (z - 1j), 0.7)
        assert abs(val - 1 / (0.7 - 1j)) < 1e-9

    def test_contour_kills_lower_pole(self):
        val = quad_contour_pi_plus(lambda z: 1 / (z + 1j), 0.7)
        assert abs(val) < 1e-9

    def test_contour_matches_engine_projection(self, ctx):
        # adjudication of the projected leading-symbol sign at 10 points
        full = restrict_on_shell(build_sigma("Dtilde", -1))
        proj = pi_plus(full)
        xp = (0.6, 0.0, 0.8)
        # bound to ctx and xp once; each contour node is then one call
        compiled = CompiledSymbol(LoweredSymbol(full, ctx), xp)
        for k in range(10):
            xi0 = -2.0 + 0.45 * k
            num = quad_contour_pi_plus(compiled, xi0)
            sym = evaluate(proj, ctx, (xp, xi0))
            assert np.abs(num - sym).max() < 1e-8

    def test_sphere_constant(self):
        val = quad_sphere(lambda x, y, z: 1.0)
        assert abs(val - 4 * math.pi) < 1e-10

    def test_sphere_rings_sum_the_node_by_node_rule(self):
        # the ring-vectorised rule against the same 12 x 24 rule written
        # as a loop over single nodes; numpy's array power and Python's
        # scalar power may differ in the last bit, so the bound is
        # rounding, not bit equality
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
            exact = 4 * math.pi * float(moment(a, b, c))
            assert abs(val - exact) < 1e-10

