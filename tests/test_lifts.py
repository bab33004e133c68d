"""Cotangent lifts, canonical structure, and the vertical/holonomic split."""

from fractions import Fraction

import pytest

from liftlab.expr import ONE, ZERO, Var, canon, expr_equal, partial, substitute
from liftlab.geometry import (
    Chart, ChartError, VectorField, exterior_derivative, interior_product,
    jacobi_lie_bracket, lie_derivative_form, one_form,
)
from liftlab.jets import prolongation_bracket
from liftlab.lifts import (
    CotangentChart, as_generalized, canonical_poisson,
    complete_cotangent_lift, euler_vector_field, hamiltonian_vector_field,
    lift_decomposition, momentum_function, vertical_lift,
)
from liftlab.samplers import rand_one_form, rand_poly, rand_vector_field


@pytest.fixture
def cc1():
    return CotangentChart.make(Chart.make("x"))


@pytest.fixture
def cc2():
    return CotangentChart.make(Chart.make("x", "y"))


def vf_equal(a, b):
    return all(expr_equal(p, q) for p, q in zip(a.components, b.components))


class TestCotangentChart:
    def test_omega_is_minus_dtheta(self, cc2):
        omega = cc2.symplectic_form()
        dtheta = exterior_derivative(cc2.tautological_form())
        assert (omega + dtheta).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_omega_is_darboux(self, m):
        # {(a, m+a): 1} pairs each x^a with y_a alone, so Omega is nondegenerate
        cc = CotangentChart.make(Chart.make(*"abcd"[:m]))
        assert cc.symplectic_form().terms == {(a, m + a): ONE for a in range(m)}

    def test_dimension_cap(self):
        with pytest.raises(ChartError):
            CotangentChart.make(Chart.make("a", "b", "c", "d", "e"))


class TestCompleteCotangentLift:
    def test_translation_lifts_to_itself(self, cc1):
        lift = complete_cotangent_lift(cc1, VectorField(cc1.base, (ONE,)))
        assert vf_equal(lift, VectorField(cc1.full, (ONE, ZERO)))

    def test_dilation(self, cc1):
        x, y = Var(cc1.base_var(0)), Var(cc1.fiber_var(0))
        lift = complete_cotangent_lift(cc1, VectorField(cc1.base, (x,)))
        assert vf_equal(lift, VectorField(cc1.full, (x, canon(y * -1))))

    def test_fiber_dependent_input_rejected(self, cc1):
        with pytest.raises(ChartError):
            complete_cotangent_lift(
                cc1, VectorField(cc1.base, (Var(cc1.fiber_var(0)),)))

    def test_bracket_homomorphism(self, rng, cc2):
        for _ in range(5):
            X = rand_vector_field(rng, cc2.base, 3)
            Y = rand_vector_field(rng, cc2.base, 3)
            lhs = complete_cotangent_lift(cc2, jacobi_lie_bracket(X, Y))
            rhs = jacobi_lie_bracket(complete_cotangent_lift(cc2, X),
                                     complete_cotangent_lift(cc2, Y))
            assert vf_equal(lhs, rhs)

    def test_projects_to_the_base_field(self, rng, cc2):
        X = rand_vector_field(rng, cc2.base, 3)
        lift = complete_cotangent_lift(cc2, X)
        assert all(expr_equal(lift.components[a], X.components[a]) for a in range(2))


class TestMomentumFunction:
    def test_translation(self, cc1):
        p = momentum_function(cc1, VectorField(cc1.base, (ONE,)))
        assert expr_equal(p, Var(cc1.fiber_var(0)))

    def test_dilation(self, cc1):
        x, y = Var(cc1.base_var(0)), Var(cc1.fiber_var(0))
        p = momentum_function(cc1, VectorField(cc1.base, (x,)))
        assert expr_equal(p, canon(x * y))

    def test_generates_the_lift(self, rng, cc2):
        for _ in range(5):
            X = rand_vector_field(rng, cc2.base, 3)
            lhs = hamiltonian_vector_field(cc2, momentum_function(cc2, X))
            assert vf_equal(lhs, complete_cotangent_lift(cc2, X))


class TestHamiltonianConventions:
    def test_free_particle(self, cc1):
        # h = p^2/2 must flow as dq/dt = p
        p = Var(cc1.fiber_var(0))
        X = hamiltonian_vector_field(cc1, canon(p ** 2 / 2))
        assert vf_equal(X, VectorField(cc1.full, (p, ZERO)))

    def test_charged_particle(self):
        # h = (1/2m) p^2 + e phi(q) flows as (p/m, -e phi')
        pc = CotangentChart.make(Chart.make("q"), ["p"])
        q, p = Var(pc.base_var(0)), Var(pc.fiber_var(0))
        m, e = Fraction(2), Fraction(3)
        phi = canon(q ** 3)
        h = canon(p ** 2 / (2 * m) + e * phi)
        X = hamiltonian_vector_field(pc, h)
        assert vf_equal(X, VectorField(pc.full, (
            canon(p / m), canon(-e * partial(phi, pc.base_var(0))))))

    def test_constant_hamiltonian_is_static(self, cc2):
        assert hamiltonian_vector_field(cc2, canon(ONE * 7)).is_zero()

    def test_defining_contraction(self, rng, cc2):
        # i_{X_h} Omega = dh
        from liftlab.geometry import zero_form
        for _ in range(5):
            h = rand_poly(rng, cc2.full.vars, 3)
            X = hamiltonian_vector_field(cc2, h)
            lhs = interior_product(X, cc2.symplectic_form())
            dh = exterior_derivative(zero_form(cc2.full, h))
            assert (lhs - dh).is_zero()


class TestCanonicalPoisson:
    def test_coordinate_pair(self, cc1):
        assert expr_equal(canonical_poisson(cc1, Var(cc1.base_var(0)),
                                            Var(cc1.fiber_var(0))), ONE)

    def test_antisymmetry_diagonal(self, rng, cc2):
        f = rand_poly(rng, cc2.full.vars, 3)
        assert expr_equal(canonical_poisson(cc2, f, f), ZERO)

    def test_bracket_antihomomorphism(self, rng, cc2):
        # [X_h, X_f] = -X_{{h,f}}
        for _ in range(5):
            h = rand_poly(rng, cc2.full.vars, 3)
            f = rand_poly(rng, cc2.full.vars, 3)
            lhs = jacobi_lie_bracket(hamiltonian_vector_field(cc2, h),
                                     hamiltonian_vector_field(cc2, f))
            rhs = hamiltonian_vector_field(
                cc2, canonical_poisson(cc2, h, f)).scaled(-1)
            assert vf_equal(lhs, rhs)


class TestEulerField:
    def test_coordinate_form(self, cc2):
        xe = euler_vector_field(cc2)
        for a in range(2):
            assert xe.components[a] == ZERO
            assert expr_equal(xe.components[2 + a],
                              canon(Var(cc2.fiber_var(a)) * -1))

    def test_three_defining_identities(self, cc2):
        xe = euler_vector_field(cc2)
        omega, theta = cc2.symplectic_form(), cc2.tautological_form()
        assert (interior_product(xe, omega) - theta).is_zero()
        assert (lie_derivative_form(xe, omega) + omega).is_zero()
        assert (lie_derivative_form(xe, theta) + theta).is_zero()

    def test_vertical_lift_composition(self, rng, cc2):
        # alpha^v = X_E after substituting y_a -> alpha_a(x)
        alpha = rand_one_form(rng, cc2.base, 3)
        xe = euler_vector_field(cc2)
        bind = {cc2.fiber_var(a): alpha.coeff((a,)) for a in range(2)}
        composed = [substitute(c, bind) for c in xe.components]
        lifted = vertical_lift(cc2, alpha)
        assert all(expr_equal(a, b) for a, b in zip(composed, lifted.components))


class TestVerticalLift:
    def test_basis_form(self, cc1):
        v = vertical_lift(cc1, one_form(cc1.base, (ONE,)))
        assert vf_equal(v, VectorField(cc1.full, (ZERO, canon(ONE * -1))))

    def test_zero_form(self, cc2):
        assert vertical_lift(cc2, one_form(cc2.base, (ZERO, ZERO))).is_zero()

    def test_bracket_with_lift_is_lifted_lie_derivative(self, rng, cc2):
        for _ in range(5):
            X = rand_vector_field(rng, cc2.base, 3)
            alpha = rand_one_form(rng, cc2.base, 3)
            lhs = jacobi_lie_bracket(complete_cotangent_lift(cc2, X),
                                     vertical_lift(cc2, alpha))
            rhs = vertical_lift(cc2, lie_derivative_form(X, alpha))
            assert vf_equal(lhs, rhs)

    def test_lift_preserves_theta(self, rng, cc2):
        X = rand_vector_field(rng, cc2.base, 3)
        lied = lie_derivative_form(complete_cotangent_lift(cc2, X),
                                   cc2.tautological_form())
        assert lied.is_zero()


class TestLiftDecomposition:
    def test_translation_split(self, cc1):
        v, h = lift_decomposition(cc1, VectorField(cc1.base, (ONE,)))
        jc = v.jet_chart
        jet = Var(jc.jet(0, 0))
        assert v.is_vertical()
        assert expr_equal(v.fiber_components[0], canon(jet * -1))
        assert expr_equal(h.base_components[0], ONE)
        assert expr_equal(h.fiber_components[0], jet)

    def test_dilation_split(self, cc1):
        x = Var(cc1.base_var(0))
        v, _ = lift_decomposition(cc1, VectorField(cc1.base, (x,)))
        jc = v.jet_chart
        y, jet = Var(jc.fiber[0]), Var(jc.jet(0, 0))
        assert expr_equal(v.fiber_components[0], canon((y + x * jet) * -1))

    def test_parts_reassemble(self, rng, cc2):
        for _ in range(5):
            X = rand_vector_field(rng, cc2.base, 3)
            v, h = lift_decomposition(cc2, X)
            xi = as_generalized(cc2, complete_cotangent_lift(cc2, X))
            assert (v + h) == xi

    def test_vertical_homomorphism(self, rng, cc2):
        # V[X,Y]^{c*} = [V X^{c*}, V Y^{c*}]_pro
        for _ in range(3):
            X = rand_vector_field(rng, cc2.base, 2)
            Y = rand_vector_field(rng, cc2.base, 2)
            vxy, _ = lift_decomposition(cc2, jacobi_lie_bracket(X, Y))
            vx, _ = lift_decomposition(cc2, X)
            vy, _ = lift_decomposition(cc2, Y)
            assert prolongation_bracket(vx, vy) == vxy

    def test_transcendental_coefficients_decompose(self, cc1):
        # trig fields skip the symbolic route checks but still split
        from liftlab.expr import Call, eval_numeric
        X = VectorField(cc1.base, (Call("sin", Var(cc1.base_var(0))),))
        v, h = lift_decomposition(cc1, X)
        assert v.is_vertical()
        jc = v.jet_chart
        pt = {jc.base[0]: 0.7, jc.fiber[0]: 1.3, jc.jet(0, 0): -0.4}
        got = eval_numeric(v.fiber_components[0], pt)
        import math
        want = -(1.3 * math.cos(0.7) + math.sin(0.7) * -0.4)
        assert abs(got - want) < 1e-14


class TestPlasmaLiftDisplays:
    """The charged-particle lift on T*T*Q, all four displayed fields."""

    def setup_method(self):
        self.pc = CotangentChart.make(Chart.make("q"), ["p"])
        self.tc = CotangentChart.make(self.pc.full, ["Pi1", "Pi_1"])
        self.q, self.p = Var(self.tc.full.vars[0]), Var(self.tc.full.vars[1])
        self.pi_d, self.pi_u = Var(self.tc.full.vars[2]), Var(self.tc.full.vars[3])
        self.m, self.e = Fraction(2), Fraction(3)
        self.phi = canon(self.q ** 3)
        self.h = canon(self.p ** 2 / (2 * self.m) + self.e * self.phi)

    def test_lift_matches_display(self):
        # X_h^{c*} = X_h - (1/m) Pi_1 d/dPi^1 + e Pi^1 phi'' d/dPi_1
        qv = self.tc.full.vars[0]
        X_h = hamiltonian_vector_field(self.pc, self.h)
        lift = complete_cotangent_lift(self.tc, X_h)
        phi_qq = partial(partial(self.phi, qv), qv)
        want = (X_h.components[0], X_h.components[1],
                canon(self.e * self.pi_u * phi_qq),
                canon(self.pi_d / self.m * -1))
        assert all(expr_equal(a, b) for a, b in zip(lift.components, want))

    def test_vertical_and_holonomic_displays(self):
        qv = self.tc.full.vars[0]
        X_h = hamiltonian_vector_field(self.pc, self.h)
        v, h = lift_decomposition(self.tc, X_h)
        jc = v.jet_chart
        phi_qq = partial(partial(self.phi, qv), qv)

        def x_h_on_section(l):
            # X_h acting through the first-jet variables of component l
            return canon(X_h.components[0] * Var(jc.jet(l, 0))
                         + X_h.components[1] * Var(jc.jet(l, 1)))

        # V X_h^{c*} = (e Pi^1 phi'' - X_h(Pi_1)) d/dPi_1
        #              - ((1/m) Pi_1 + X_h(Pi^1)) d/dPi^1
        want_v0 = canon(self.e * Var(jc.fiber[1]) * phi_qq - x_h_on_section(0))
        want_v1 = canon((Var(jc.fiber[0]) / self.m + x_h_on_section(1)) * -1)
        assert expr_equal(v.fiber_components[0], want_v0)
        assert expr_equal(v.fiber_components[1], want_v1)
        # H X_h^{c*} = X_h + X_h(Pi_1) d/dPi_1 + X_h(Pi^1) d/dPi^1
        assert expr_equal(h.fiber_components[0], x_h_on_section(0))
        assert expr_equal(h.fiber_components[1], x_h_on_section(1))
        assert all(expr_equal(a, b) for a, b in
                   zip(h.base_components, X_h.components))
