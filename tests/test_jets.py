"""Jet charts, prolongation, holonomic/vertical split, obstruction form."""

import pytest

from liftlab.expr import ONE, ZERO, Var, canon, expr_equal
from liftlab.geometry import MAX_DIM, Chart, ChartError, VectorField
from liftlab.jets import (
    GeneralizedVectorField, JetChart, JetConsistencyError,
    ProjectabilityError, holonomic_lift, holonomic_part, obstruction_form,
    prolong1, prolongation_bracket, total_derivative, vertical_representative,
)
from liftlab.samplers import rand_poly


@pytest.fixture
def jc11():
    return JetChart.make(["x"], ["u"])


@pytest.fixture
def jc22():
    return JetChart.make(["x", "y"], ["u", "v"])


def rand_ordinary(rng, jc, degree=2):
    base = tuple(rand_poly(rng, jc.base, degree, 2) for _ in range(jc.m))
    fiber = tuple(rand_poly(rng, jc.base + jc.fiber, degree, 2) for _ in range(jc.k))
    return GeneralizedVectorField(jc, base, fiber)


class TestJetChart:
    def test_symmetric_second_jets_share_storage(self, jc22):
        assert jc22.jet2_var(0, 0, 1) is jc22.jet2_var(0, 1, 0)
        # k * m(m+1)/2 slots
        assert len(jc22.jet2) == 2 * 3

    def test_name_collision_rejected(self):
        with pytest.raises(Exception):
            JetChart.make(["x"], ["u", "u_x"])

    def test_base_and_fibers_are_a_chart(self):
        # the chart of E bounds the names before any jet variable is made
        assert MAX_DIM == 8
        with pytest.raises(ChartError, match="got 9"):
            JetChart.make(["a", "b", "c", "d", "e"], ["u", "v", "w", "s"])
        with pytest.raises(ChartError, match="invalid variable name '1x'"):
            JetChart.make(["1x"], ["u"])
        with pytest.raises(ChartError, match="function name"):
            JetChart.make(["x"], ["sin"])


class TestTotalDerivative:
    def test_fiber_variable(self, jc11):
        out = total_derivative(jc11, Var(jc11.fiber[0]), 0)
        assert expr_equal(out, Var(jc11.jet(0, 0)))

    def test_product_with_jet(self, jc11):
        x, ux, uxx = Var(jc11.base[0]), Var(jc11.jet(0, 0)), Var(jc11.jet2_var(0, 0, 0))
        out = total_derivative(jc11, canon(x * ux), 0)
        assert expr_equal(out, canon(ux + x * uxx))

    def test_base_only_reduces_to_partial(self, jc11):
        x = Var(jc11.base[0])
        out = total_derivative(jc11, canon(x ** 3), 0)
        assert expr_equal(out, canon(3 * x ** 2))

    def test_second_jet_input_rejected(self, jc11):
        with pytest.raises(JetConsistencyError):
            total_derivative(jc11, Var(jc11.jet2_var(0, 0, 0)), 0)


class TestProlongation:
    def test_translation_prolongs_trivially(self, jc11):
        pr = prolong1(GeneralizedVectorField(jc11, (ONE,), (ZERO,)))
        assert pr.jet_components[0][0] == ZERO

    def test_fiber_dilation(self, jc11):
        pr = prolong1(GeneralizedVectorField(jc11, (ZERO,), (Var(jc11.fiber[0]),)))
        assert expr_equal(pr.jet_components[0][0], Var(jc11.jet(0, 0)))

    def test_base_linear_fiber_component(self, jc11):
        pr = prolong1(GeneralizedVectorField(jc11, (ZERO,), (Var(jc11.base[0]),)))
        assert expr_equal(pr.jet_components[0][0], ONE)

    def test_projectability_enforced(self, jc11):
        with pytest.raises(ProjectabilityError):
            GeneralizedVectorField(jc11, (Var(jc11.fiber[0]),), (ZERO,))

    def test_second_jets_rejected_in_fiber(self, jc11):
        with pytest.raises(JetConsistencyError):
            GeneralizedVectorField(jc11, (ONE,), (Var(jc11.jet2_var(0, 0, 0)),))


class TestProlongationBracket:
    def test_reduces_to_jacobi_lie(self, rng, jc22):
        echart = Chart.make(*[v.name for v in jc22.base + jc22.fiber])
        for _ in range(5):
            xi = rand_ordinary(rng, jc22)
            eta = rand_ordinary(rng, jc22)
            out = prolongation_bracket(xi, eta)
            from liftlab.geometry import jacobi_lie_bracket
            X = VectorField(echart, xi.base_components + xi.fiber_components)
            Y = VectorField(echart, eta.base_components + eta.fiber_components)
            want = jacobi_lie_bracket(X, Y)
            got = out.base_components + out.fiber_components
            assert all(expr_equal(a, b) for a, b in zip(got, want.components))

    def test_translation_commutes_with_dilation(self, jc11):
        dx = GeneralizedVectorField(jc11, (ONE,), (ZERO,))
        udu = GeneralizedVectorField(jc11, (ZERO,), (Var(jc11.fiber[0]),))
        assert prolongation_bracket(dx, udu).is_zero()

    def test_against_direct_prolongation_expansion(self, jc11):
        # oracle: expand pr1(xi)(eta^u) - pr1(eta)(xi^u) by hand for
        # xi = x d/dx, eta = -u_x d/du
        x, ux = Var(jc11.base[0]), Var(jc11.jet(0, 0))
        xi = GeneralizedVectorField(jc11, (x,), (ZERO,))
        eta = GeneralizedVectorField(jc11, (ZERO,), (canon(ux * -1),))
        p_xi, p_eta = prolong1(xi), prolong1(eta)
        want_fiber = canon(p_xi.apply(canon(ux * -1)) - p_eta.apply(ZERO))
        out = prolongation_bracket(xi, eta)
        assert expr_equal(out.fiber_components[0], want_fiber)
        assert expr_equal(out.base_components[0], ZERO)

    def test_second_jet_residue_detected(self, jc22):
        # [v_x d/du, v_x d/dv] genuinely leaves second-jet variables behind:
        # the bracket closes at first order only on the jet-linear class
        vx = Var(jc22.jet(1, 0))
        xi = GeneralizedVectorField(jc22, (ZERO, ZERO), (vx, ZERO))
        eta = GeneralizedVectorField(jc22, (ZERO, ZERO), (ZERO, vx))
        with pytest.raises(JetConsistencyError):
            prolongation_bracket(xi, eta)


class TestHolonomicVertical:
    def test_holonomic_lift_of_translation(self, jc11):
        lifted = holonomic_lift(jc11, VectorField(jc11.base_chart, (ONE,)))
        assert expr_equal(lifted.fiber_components[0], Var(jc11.jet(0, 0)))

    def test_holonomic_lift_of_dilation(self, jc11):
        x = Var(jc11.base[0])
        lifted = holonomic_lift(jc11, VectorField(jc11.base_chart, (x,)))
        assert expr_equal(lifted.fiber_components[0], canon(x * Var(jc11.jet(0, 0))))

    def test_lift_projects_back(self, rng, jc22):
        X = VectorField(jc22.base_chart,
                        tuple(rand_poly(rng, jc22.base, 2) for _ in range(2)))
        lifted = holonomic_lift(jc22, X)
        back = lifted.pushforward()
        assert all(expr_equal(a, b) for a, b in zip(back.components, X.components))

    def test_holonomic_part_drops_fiber_component(self, jc11):
        xi = GeneralizedVectorField(jc11, (ONE,), (canon(ONE * 5),))
        h = holonomic_part(xi)
        assert expr_equal(h.base_components[0], ONE)
        assert expr_equal(h.fiber_components[0], Var(jc11.jet(0, 0)))

    def test_vertical_field_has_zero_holonomic_part(self, jc11):
        xi = GeneralizedVectorField(jc11, (ZERO,), (Var(jc11.fiber[0]),))
        assert holonomic_part(xi).is_zero()

    def test_projector(self, rng, jc22):
        for _ in range(5):
            xi = rand_ordinary(rng, jc22)
            h = holonomic_part(xi)
            assert holonomic_part(h) == h

    def test_vertical_representative_of_translation(self, jc11):
        v = vertical_representative(GeneralizedVectorField(jc11, (ONE,), (ZERO,)))
        assert v.is_vertical()
        assert expr_equal(v.fiber_components[0], canon(Var(jc11.jet(0, 0)) * -1))

    def test_vertical_field_is_its_own_representative(self, jc11):
        xi = GeneralizedVectorField(jc11, (ZERO,), (Var(jc11.fiber[0]),))
        assert vertical_representative(xi) == xi

    def test_decomposition_reassembles(self, rng, jc22):
        for _ in range(5):
            xi = rand_ordinary(rng, jc22)
            assert (vertical_representative(xi) + holonomic_part(xi)) == xi


class TestObstructionForm:
    def test_antisymmetric_in_its_arguments(self, rng, jc22):
        xi = rand_ordinary(rng, jc22)
        assert obstruction_form(xi, xi).is_zero()

    def test_defining_identity_both_routes(self, jc11):
        # B(d/dx, x d/du) against [V d/dx, V x d/du] - V[d/dx, x d/du]
        dx = GeneralizedVectorField(jc11, (ONE,), (ZERO,))
        xdu = GeneralizedVectorField(jc11, (ZERO,), (Var(jc11.base[0]),))
        b = obstruction_form(dx, xdu)
        alt = prolongation_bracket(vertical_representative(dx),
                                   vertical_representative(xdu)) - \
            vertical_representative(prolongation_bracket(dx, xdu))
        assert b == alt

    def test_identity_on_random_ordinary_fields(self, rng, jc22):
        for _ in range(3):
            xi = rand_ordinary(rng, jc22)
            eta = rand_ordinary(rng, jc22)
            lhs = prolongation_bracket(vertical_representative(xi),
                                       vertical_representative(eta))
            rhs = vertical_representative(prolongation_bracket(xi, eta)) + \
                obstruction_form(xi, eta)
            assert lhs == rhs


class TestHolonomicLiftIsomorphism:
    def test_connection_intertwines_brackets(self, rng):
        from liftlab.geometry import jacobi_lie_bracket
        for base_names, fiber_names in ((["x"], ["u"]), (["x", "y"], ["u", "v"])):
            jc = JetChart.make(base_names, fiber_names)
            echart = Chart.make(*(base_names + fiber_names))
            for _ in range(3):
                xi = rand_ordinary(rng, jc)
                eta = rand_ordinary(rng, jc)
                X = VectorField(echart, xi.base_components + xi.fiber_components)
                Y = VectorField(echart, eta.base_components + eta.fiber_components)
                br = jacobi_lie_bracket(X, Y)
                as_gvf = GeneralizedVectorField(jc, br.components[:jc.m],
                                                br.components[jc.m:])
                lhs = holonomic_part(as_gvf)
                rhs = prolongation_bracket(holonomic_part(xi), holonomic_part(eta))
                assert lhs == rhs
