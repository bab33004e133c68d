"""Periodic grids, stencils, quadrature, RK4."""

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab.expr import (
    Call, Const, EvaluationDomainError, Pow, Prod, Quot, Sum, Var, VarId,
    eval_numeric,
)
from liftlab.grid import (
    AperiodicDataError, Grid, GridError, LinearPlan, NumericalAbortError,
    check_periodic, compile_numeric, discretize, march, quadrature, rk4_step,
    spatial_derivative, stencil_calls,
)
from liftlab.parser import parse_expr

X, Y, Z = (VarId(n, i) for i, n in enumerate("xyz"))


def deriv(u, axis, h):
    """``spatial_derivative`` into fresh buffers."""
    return spatial_derivative(u, axis, h, out=(np.empty(u.shape), np.empty(u.shape)))


def step(state, rate, dt, step_index=0):
    """``rk4_step`` into fresh buffers, for a ``rate(u)`` that returns the rate."""
    def rhs(u, k):
        k[...] = rate(u)
    return rk4_step(state, rhs, dt, step_index, out=np.empty_like(state),
                    work=np.empty((2,) + state.shape))


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
        # finite on the grid, past the doubles one period on
        with pytest.raises(AperiodicDataError):
            discretize(parse_expr("exp(x^3)", [X]), g, {X: 0})
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
        d = deriv(np.sin(x), 0, g.h)
        assert np.max(np.abs(d - np.cos(x))) < 2e-4

    def test_constant_derivative_exact_zero(self):
        g = Grid(1, 16)
        assert np.all(deriv(np.full(16, 3.7), 0, g.h) == 0.0)

    def test_fourth_order_refinement(self):
        errs = []
        for n in (16, 32, 64):
            g = Grid(1, n)
            x = np.arange(n) * g.h
            d = deriv(np.sin(x), 0, g.h)
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
                assert np.array_equal(deriv(u, axis, h), want)

    def test_needs_four_points_along_the_axis(self):
        # the flat shifts by two planes wrap correctly from 4 points on
        rng = np.random.default_rng(0)
        with pytest.raises(GridError, match="at least 4 points"):
            deriv(rng.standard_normal((5, 3)), 1, 0.5)
        u = rng.standard_normal((5, 4))
        d1 = np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)
        d2 = np.roll(u, -2, axis=1) - np.roll(u, 2, axis=1)
        assert np.array_equal(deriv(u, 1, 0.5), (8.0 * d1 - d2) / (12.0 * 0.5))

    def test_writes_into_the_first_out_array(self):
        u = np.random.default_rng(1).standard_normal((8, 8))
        out = (np.empty((8, 8)), np.empty(64))
        assert spatial_derivative(u, 0, 0.5, out=out) is out[0]
        assert np.array_equal(out[0], deriv(u, 0, 0.5))
        for bad in ((np.empty((8, 16))[:, ::2], out[1]), (out[0], np.empty(63))):
            with pytest.raises(GridError, match="C-contiguous"):
                spatial_derivative(u, 0, 0.5, out=bad)


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
            out = step(np.array([1.0]), lambda u: 3.0 * u, dt)
            err = abs(out[0] - math.exp(3 * dt))
            assert err < (3 * dt) ** 5 / 60

    def test_zero_rhs_keeps_state(self):
        state = np.arange(12.0).reshape(3, 4)
        out = step(state, lambda u: np.zeros_like(u), 0.1)
        assert np.array_equal(out, state)

    def test_nan_detected(self):
        def blowup(u):
            return u * math.inf
        with pytest.raises(NumericalAbortError) as err:
            step(np.ones(4), blowup, 0.1, step_index=7)
        assert err.value.step == 7

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_one_non_finite_value_detected(self, bad):
        def rate(u):
            k = np.zeros_like(u)
            k[2] = bad
            return k
        with pytest.raises(NumericalAbortError):
            step(np.ones(4), rate, 0.1)

    def test_positive_dt_required(self):
        with pytest.raises(GridError):
            step(np.ones(2), lambda u: u, 0.0)


def decay(u, k):
    np.multiply(u, -1.0, out=k)


class TestMarch:
    def test_yields_each_step_in_order_as_rk4_step_does(self):
        state = np.linspace(1.0, 2.0, 6).reshape(2, 3)
        want = state.copy()
        got = []
        for i, s in march(state, decay, 0.1, 5):
            want = step(want, lambda u: -u, 0.1, i)
            got.append(i)
            assert np.array_equal(s, want)
        assert got == [1, 2, 3, 4, 5]

    def test_states_alternate_between_the_input_and_one_spare(self):
        state = np.ones(4)
        yielded = [s for _, s in march(state, decay, 0.1, 6)]
        assert all(s is state for s in yielded[1::2])
        spare = yielded[0]
        assert spare is not state and not np.shares_memory(spare, state)
        assert all(s is spare for s in yielded[0::2])

    def test_zero_steps_yield_nothing(self):
        assert list(march(np.ones(4), decay, 0.1, 0)) == []

    def test_abort_carries_its_step(self):
        # u' = 1e40 u grows about 4e158-fold a step: the second step overflows
        def grow(u, k):
            np.multiply(u, 1e40, out=k)
        done = []
        with pytest.raises(NumericalAbortError) as err:
            for i, _ in march(np.ones(4), grow, 1.0, 10):
                done.append(i)
        assert done == [1]
        assert err.value.step == 2

    def test_steps_through_the_module_rk4_step(self, monkeypatch):
        from liftlab import grid
        seen = []
        real = grid.rk4_step

        def counting(state, rhs, dt, step_index, **kw):
            seen.append((step_index, rhs))
            return real(state, rhs, dt, step_index, **kw)

        monkeypatch.setattr(grid, "rk4_step", counting)
        for _ in march(np.ones(4), decay, 0.1, 3):
            pass
        assert seen == [(1, decay), (2, decay), (3, decay)]


def linear_plan(g: Grid) -> LinearPlan:
    """sin(x)*u_x + v and 3*u + cos(y)*v_y + x*u_x over (u, v): a stencil
    that two rates read, a state term, folded and constant coefficients."""
    xs, ys = g.axis_line(0), g.axis_line(1)
    return LinearPlan(g, [[(0, 0, np.sin(xs)), (1, None, np.float64(1.0))],
                          [(0, None, np.float64(3.0)), (1, 1, np.cos(ys)), (0, 0, xs)]])


class TestBoundPrograms:
    def test_more_pairs_than_kept_stay_bitwise_equal_to_a_fresh_evaluator(self):
        g = Grid(2, 8)
        rng = np.random.default_rng(3)
        arrays = [np.empty((2,) + g.shape) for _ in range(6)]
        plan = linear_plan(g)
        # six distinct pairs, roles swapped, and returns to evicted pairs
        pairs = [(0, 1), (2, 3), (0, 3), (2, 1), (4, 5), (1, 0), (3, 2), (0, 1), (5, 4),
                 (2, 3), (0, 1), (0, 1)]
        for i, o in pairs:
            arrays[i][...] = rng.uniform(-1.0, 1.0, arrays[i].shape)
            arrays[o][...] = np.nan
            want = linear_plan(g)(arrays[i].copy(), np.empty_like(arrays[o]))
            assert plan(arrays[i], arrays[o]) is arrays[o]
            assert np.array_equal(arrays[o].view(np.uint64), want.view(np.uint64))
            assert len(plan.bound) <= 4
        assert plan.binds == 10        # the last two calls find (0, 1) kept

    def test_arrays_of_evicted_pairs_are_collected(self):
        g = Grid(2, 8)
        plan = linear_plan(g)
        refs = []
        for _ in range(7):
            pair = np.zeros((2,) + g.shape), np.empty((2,) + g.shape)
            plan(*pair)
            refs.append([weakref.ref(a) for a in pair])
            del pair
        gc.collect()
        alive = [[r() is not None for r in pair] for pair in refs]
        assert alive == [[False, False]] * 3 + [[True, True]] * 4

    def test_terms_add_in_order_and_a_rate_without_terms_is_zero(self):
        g = Grid(2, 8)
        xs, ys = g.axis_line(0), g.axis_line(1)
        state = np.random.default_rng(6).uniform(-1.0, 1.0, (2,) + g.shape)
        plan = LinearPlan(g, linear_plan(g).terms + [[]])
        out = np.full((3,) + g.shape, np.nan)
        plan(state, out)
        u_x, v_y = deriv(state[0], 0, g.h), deriv(state[1], 1, g.h)
        want = [np.sin(xs) * u_x + 1.0 * state[1],
                3.0 * state[0] + np.cos(ys) * v_y + xs * u_x, np.zeros(g.shape)]
        for got, w in zip(out, want):
            assert np.array_equal(got.view(np.uint64), w.view(np.uint64))
        assert (plan.nterms, plan.nstencils) == (5, 3)


class TestCompileNumeric:
    def test_matches_scalar_evaluation(self):
        from liftlab.expr import eval_numeric
        e = parse_expr("x^2*cos(y) - 1/2*exp(x)", [X, Y])
        xs = np.linspace(0.0, 1.0, 5)
        ys = np.linspace(-1.0, 1.0, 5)
        got = compile_numeric(e, {X: xs, Y: ys})
        want = [eval_numeric(e, {X: float(a), Y: float(b)}) for a, b in zip(xs, ys)]
        assert np.allclose(got, want, rtol=1e-15)

    def test_division_guard(self):
        with pytest.raises(EvaluationDomainError, match="division by a value"):
            compile_numeric(parse_expr("1/x", [X]), {X: np.array([1.0, 0.0])})

    @pytest.mark.parametrize("e", [
        Prod((Const(2 ** 2000), Var(X))),
        Sum((Const(2), Prod((Pow(Const(10), 5000), Call("sin", Var(X)))))),
        Prod((Call("exp", Const(1000)), Var(X))),
    ], ids=["constant", "power", "exp"])
    def test_overflow_is_a_domain_error_as_in_scalar_evaluation(self, e):
        with pytest.raises(EvaluationDomainError):
            eval_numeric(e, {X: 0.5})
        with pytest.raises(EvaluationDomainError):
            compile_numeric(e, {X: np.array([0.5])})
        with pytest.raises(EvaluationDomainError):
            discretize(e, Grid(1, 8), {X: 0})

    @pytest.mark.parametrize("text", ["10^308*10*x", "(10^308 + 10^308)*0 + x",
                                      "sin(x)/(10^308*10)"])
    def test_folded_constants_overflow_as_doubles(self, text):
        # Python floats would fold these to inf or nan without a word; the
        # scalar route and the fold raise alike
        e = parse_expr(text, [X])
        with pytest.raises(EvaluationDomainError, match="too large for a double"):
            compile_numeric(e, {X: np.array([1.0])})
        with pytest.raises(EvaluationDomainError, match="too large for a double"):
            eval_numeric(e, {X: 1.0})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_initial_data_raises_without_numpy_warnings(self):
        # the periodicity probes overflow too, and the fold raises
        with pytest.raises(EvaluationDomainError):
            discretize(parse_expr("exp(1000*sin(x))", [X]), Grid(1, 8), {X: 0})

    def test_folded_guards_raise_when_compiled(self):
        # x = 0 is a grid node, where sin(x) vanishes
        g = Grid(2, 8)
        lines = {X: g.axis_line(0), Y: g.axis_line(1) + 1.0}
        for text in ("1/sin(x)", "sin(x)^-2", "y/sin(x)"):
            with pytest.raises(EvaluationDomainError):
                compile_numeric(parse_expr(text, [X, Y]), lines)
        assert np.isfinite(compile_numeric(parse_expr("1/(2 + sin(x))", [X]), lines)).all()

    def test_structurally_equal_subtrees_fold_once(self, monkeypatch):
        terms = tuple(parse_expr("sin(x)", [X]) for _ in range(200))
        assert all(t is terms[0] for t in terms)
        calls = []
        real_sin = np.sin
        monkeypatch.setattr(np, "sin", lambda a: calls.append(1) or real_sin(a))
        xs = Grid(1, 8).axis_line(0)
        got = compile_numeric(Sum(terms), {X: xs})
        assert len(calls) == 1
        assert np.allclose(got, 200 * real_sin(xs), rtol=1e-13, atol=1e-12)

    def test_batch_shares_one_dag(self, monkeypatch):
        rates = [parse_expr(t, [X, Y]) for t in ("cos(x)*y", "cos(x) + 1", "y", "3")]
        calls = []
        real_cos = np.cos
        monkeypatch.setattr(np, "cos", lambda a: calls.append(1) or real_cos(a))
        g = Grid(2, 8)
        xs, ys = g.axis_line(0), g.axis_line(1)
        got = compile_numeric(rates, {X: xs, Y: ys})
        assert len(calls) == 1
        # each value spans the points of its variables
        assert [np.shape(v) for v in got] == [(8, 8), (8, 1), (1, 8), ()]
        assert np.array_equal(got[0], real_cos(xs) * ys)
        assert np.array_equal(got[1], real_cos(xs) + 1)
        assert got[2] is ys and got[3] == 3.0

    def test_computed_nodes_match_numpy_bitwise(self):
        # powers 2, 3 and -1, a quotient, and a subtree shared by a root
        # and four nodes
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(0.5, 2.0, (2, 6, 6))
        shared = Sum((Call("sin", Var(X)), Var(Y)))
        roots = [Pow(shared, 2), Pow(shared, 3), Pow(shared, -1),
                 Quot(Call("cos", Var(Y)), shared), shared]
        s = np.sin(xs) + ys
        want = [s ** 2, s ** 3, s ** -1, np.cos(ys) / s, s]
        for g, w in zip(compile_numeric(roots, {X: xs, Y: ys}), want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        xs[2, 3], ys[2, 3] = 0.0, 0.0
        with pytest.raises(EvaluationDomainError):
            compile_numeric(roots, {X: xs, Y: ys})

    def test_unmapped_variable_rejected(self):
        with pytest.raises(GridError):
            compile_numeric(parse_expr("x*y", [X, Y]), {X: np.zeros(2)})

    def test_deep_chain_compiles_at_default_recursion_limit(self):
        xs = Grid(1, 8).axis_coordinate(0)
        e = Var(X)
        for _ in range(5000):
            e = Sum((Call("sin", e), Var(X)))
        want = xs
        for _ in range(5000):
            want = np.sin(want) + xs
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            got = compile_numeric(e, {X: xs})
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
    full = {X: g.axis_coordinate(0), Y: g.axis_coordinate(1)}
    # on full arrays, on coordinate lines, and on one of each
    for fixed in (full, {X: xs, Y: ys}, {X: xs, Y: full[Y]}):
        got = np.broadcast_to(compile_numeric(e, fixed), g.shape)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
