"""Periodic grids, stencils, quadrature, RK4."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab.expr import (
    Call, Const, EvaluationDomainError, Pow, Prod, Quot, Sum, Var, VarId,
    eval_numeric,
)
from liftlab.grid import (
    AperiodicDataError, Grid, GridError, NumericalAbortError,
    check_periodic, compile_numeric, discretize, quadrature, rk4_step,
    spatial_derivative,
)
from liftlab.parser import parse_expr

X, Y, Z = (VarId(n, i) for i, n in enumerate("xyz"))


class TestGrid:
    def test_spacing_closes_the_circle(self):
        g = Grid(1, 8)
        assert g.h * g.n == pytest.approx(2 * math.pi, abs=1e-15)

    def test_odd_n_rejected(self):
        with pytest.raises(GridError):
            Grid(1, 9)

    def test_out_of_range_n_rejected(self):
        with pytest.raises(GridError):
            Grid(1, 6)
        with pytest.raises(GridError):
            Grid(2, 130)


class TestDiscretize:
    def test_sine_samples(self):
        g = Grid(1, 8)
        vals = discretize(parse_expr("sin(x)", [X]), g, {X: 0})
        want = np.sin(np.arange(8) * g.h)
        assert np.allclose(vals, want, atol=1e-15)

    def test_constant_field(self):
        g = Grid(2, 8)
        vals = discretize(Const(1), g, {X: 0, Y: 1})
        assert vals.shape == (8, 8) and np.all(vals == 1.0)

    def test_aperiodic_rejected_without_override(self):
        g = Grid(1, 8)
        with pytest.raises(AperiodicDataError):
            discretize(Var(X), g, {X: 0})
        vals = discretize(Var(X), g, {X: 0}, allow_aperiodic=True)
        assert vals[1] == pytest.approx(g.h)

    def test_periodicity_checker_accepts_trig(self):
        g = Grid(2, 8)
        e = parse_expr("sin(x)*cos(2*y) + 1/2", [X, Y])
        assert check_periodic(e, g, {X: 0, Y: 1})


class TestSpatialDerivative:
    def test_sine_derivative_accuracy(self):
        g = Grid(1, 32)
        x = np.arange(32) * g.h
        d = spatial_derivative(np.sin(x), 0, g.h)
        assert np.max(np.abs(d - np.cos(x))) < 2e-4

    def test_constant_derivative_exact_zero(self):
        g = Grid(1, 16)
        assert np.all(spatial_derivative(np.full(16, 3.7), 0, g.h) == 0.0)

    def test_fourth_order_refinement(self):
        errs = []
        for n in (16, 32, 64):
            g = Grid(1, n)
            x = np.arange(n) * g.h
            d = spatial_derivative(np.sin(x), 0, g.h)
            errs.append(np.max(np.abs(d - np.cos(x))))
        rate = math.log2(errs[0] / errs[1])
        assert rate > 3.8
        rate2 = math.log2(errs[1] / errs[2])
        assert rate2 > 3.8

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_matches_roll_formula_bitwise(self, n):
        # contiguous components of component-major states in 3-D and 2-D
        # (Vlasov), as the models pass them, and strided component views
        rng = np.random.default_rng(n)
        major3 = rng.standard_normal((3,) + Grid(3, n).shape)
        major2 = rng.standard_normal((2,) + Grid(2, n).shape)
        last3 = rng.standard_normal(Grid(3, n).shape + (3,))
        comps = [*major3, *major2, *(last3[..., l] for l in range(3))]
        assert [u.flags.c_contiguous for u in comps] == [True] * 5 + [False] * 3
        h = 2 * math.pi / n
        for u in comps:
            for axis in range(u.ndim):
                d1 = np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)
                d2 = np.roll(u, -2, axis=axis) - np.roll(u, 2, axis=axis)
                want = (8.0 * d1 - d2) / (12.0 * h)
                assert np.array_equal(spatial_derivative(u, axis, h), want)

    def test_needs_four_points_along_the_axis(self):
        # the flat shifts by two planes wrap correctly from 4 points on
        rng = np.random.default_rng(0)
        with pytest.raises(GridError, match="at least 4 points"):
            spatial_derivative(rng.standard_normal((5, 3)), 1, 0.5)
        u = rng.standard_normal((5, 4))
        d1 = np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)
        d2 = np.roll(u, -2, axis=1) - np.roll(u, 2, axis=1)
        assert np.array_equal(spatial_derivative(u, 1, 0.5), (8.0 * d1 - d2) / (12.0 * 0.5))


class TestQuadrature:
    def test_sine_integrates_to_zero(self):
        g = Grid(1, 16)
        x = np.arange(16) * g.h
        assert abs(quadrature(np.sin(x), g.h, 1)) < 1e-12

    def test_unit_volume_of_torus(self):
        for n in (8, 16, 32):
            g = Grid(3, n)
            assert quadrature(np.ones(g.shape), g.h, 3) == pytest.approx(
                (2 * math.pi) ** 3, rel=1e-14)

    def test_sine_squared(self):
        g = Grid(1, 16)
        x = np.arange(16) * g.h
        assert quadrature(np.sin(x) ** 2, g.h, 1) == pytest.approx(math.pi, abs=1e-10)


class TestRk4:
    def test_linear_mode_matches_exponential(self):
        # one step on u' = 3u has error O(dt^5)
        for dt in (1e-2, 5e-3):
            out = rk4_step(np.array([1.0]), lambda u: 3.0 * u, dt)
            err = abs(out[0] - math.exp(3 * dt))
            assert err < (3 * dt) ** 5 / 60

    def test_zero_rhs_keeps_state(self):
        state = np.arange(12.0).reshape(3, 4)
        out = rk4_step(state, lambda u: np.zeros_like(u), 0.1)
        assert np.array_equal(out, state)

    def test_nan_detected(self):
        def blowup(u):
            return u * math.inf
        with pytest.raises(NumericalAbortError) as err:
            rk4_step(np.ones(4), blowup, 0.1, step_index=7)
        assert err.value.step == 7

    def test_positive_dt_required(self):
        with pytest.raises(GridError):
            rk4_step(np.ones(2), lambda u: u, 0.0)


class TestCompileNumeric:
    def test_matches_scalar_evaluation(self):
        from liftlab.expr import eval_numeric
        e = parse_expr("x^2*cos(y) - 1/2*exp(x)", [X, Y])
        fn = compile_numeric(e, {X: 0, Y: 1})
        xs = np.linspace(0.0, 1.0, 5)
        ys = np.linspace(-1.0, 1.0, 5)
        got = fn([xs, ys])
        want = [eval_numeric(e, {X: float(a), Y: float(b)}) for a, b in zip(xs, ys)]
        assert np.allclose(got, want, rtol=1e-15)

    def test_division_guard(self):
        fn = compile_numeric(parse_expr("1/x", [X]), {X: 0})
        with pytest.raises(EvaluationDomainError):
            fn([np.array([1.0, 0.0])])

    @pytest.mark.parametrize("e", [
        Prod((Const(2 ** 2000), Var(X))),
        Sum((Const(2), Prod((Pow(Const(10), 5000), Call("sin", Var(X)))))),
        Prod((Call("exp", Const(1000)), Var(X))),
    ], ids=["constant", "power", "exp"])
    def test_overflow_is_a_domain_error_as_in_scalar_evaluation(self, e):
        with pytest.raises(EvaluationDomainError):
            eval_numeric(e, {X: 0.5})
        with pytest.raises(EvaluationDomainError):
            compile_numeric(e, {X: 0})
        with pytest.raises(EvaluationDomainError):
            discretize(e, Grid(1, 8), {X: 0})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_initial_data_raises_without_numpy_warnings(self):
        # the periodicity probes overflow too, quietly; the fold raises
        with pytest.raises(EvaluationDomainError):
            discretize(parse_expr("exp(1000*sin(x))", [X]), Grid(1, 8), {X: 0})

    def test_folded_guards_raise_when_compiled(self):
        # x = 0 is a grid node, where sin(x) vanishes
        line = {X: Grid(1, 8).axis_line(0)}
        for text in ("1/sin(x)", "sin(x)^-2", "y/sin(x)"):
            with pytest.raises(EvaluationDomainError):
                compile_numeric(parse_expr(text, [X, Y]), {Y: 0}, line)
        fn = compile_numeric(parse_expr("1/(2 + sin(x))", [X]), {}, line)
        assert fn().shape == (8,)

    def test_structurally_equal_subtrees_fold_once(self, monkeypatch):
        terms = tuple(parse_expr("sin(x)", [X]) for _ in range(200))
        assert all(t is terms[0] for t in terms)
        calls = []
        real_sin = np.sin
        monkeypatch.setattr(np, "sin", lambda a: calls.append(1) or real_sin(a))
        xs = Grid(1, 8).axis_line(0)
        fn = compile_numeric(Sum(terms), {}, {X: xs})
        assert len(calls) == 1
        assert np.array_equal(fn(), fn())
        assert len(calls) == 1

    def test_batch_shares_one_dag_and_folds_read_only(self):
        rates = [parse_expr(t, [X, Y]) for t in ("cos(x)*y", "cos(x) + 1", "y")]
        xs = Grid(2, 8).axis_line(0)
        ys = np.arange(64.0).reshape(8, 8)
        got = compile_numeric(rates, {Y: 0}, {X: xs})([ys])
        assert [a.shape for a in got] == [(8, 8), (8, 1), (8, 8)]
        assert np.array_equal(got[0], np.cos(xs) * ys)
        assert got[2] is ys
        with pytest.raises(ValueError):
            got[1][0, 0] = 0.0

    def test_unmapped_variable_rejected(self):
        with pytest.raises(GridError):
            compile_numeric(parse_expr("x*y", [X, Y]), {X: 0})

    @pytest.mark.parametrize("depth, folded", [(5000, True), (300, False)])
    def test_deep_chain_compiles_at_default_recursion_limit(self, depth, folded):
        xs = Grid(1, 8).axis_coordinate(0)
        e = Var(X)
        for _ in range(depth):
            e = Sum((Call("sin", e), Var(X)))
        want = xs
        for _ in range(depth):
            want = np.sin(want) + xs
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            if folded:
                got = compile_numeric(e, {}, {X: xs})()
            else:
                got = compile_numeric(e, {X: 0})([xs])
        finally:
            sys.setrecursionlimit(limit)
        assert np.array_equal(got, want)


LEAVES = st.one_of(
    st.sampled_from([Var(X), Var(Y)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const),
)


def _branches(children):
    # denominators and negative-power bases are kept in [1, 3]
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda ts: Sum(tuple(ts))),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: Prod(tuple(fs))),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda t: Call(*t)),
        st.tuples(children, children).map(
            lambda t: Quot(t[0], 2 + Call("cos", t[1]))),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(*t)),
        st.tuples(children, st.integers(-2, -1)).map(
            lambda t: Pow(2 + Call("sin", t[0]), t[1])),
    )


TRIG_RATIONAL = st.recursive(LEAVES, _branches, max_leaves=12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(TRIG_RATIONAL)
def test_compiled_matches_scalar_evaluation(e):
    g = Grid(2, 8)
    xs, ys = g.axis_line(0), g.axis_line(1)
    want = np.array([[eval_numeric(e, {X: float(a), Y: float(b)})
                      for b in ys[0]] for a in xs[:, 0]])
    at_call = compile_numeric(e, {X: 0, Y: 1})([g.axis_coordinate(0), g.axis_coordinate(1)])
    folded = compile_numeric(e, {}, {X: xs, Y: ys})()
    mixed = compile_numeric(e, {Y: 0}, {X: xs})([ys])
    for got in (at_call, folded, mixed):
        np.testing.assert_allclose(np.broadcast_to(got, g.shape), want,
                                   rtol=1e-12, atol=1e-12)
