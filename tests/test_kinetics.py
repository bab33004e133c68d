"""Coadjoint flow, fluid, Vlasov plasma, and contact-particle dynamics."""

from fractions import Fraction

import pytest

from liftlab.expr import (
    ONE, ZERO, Var, canonicalize, expr_equal, is_zero_expr, partial, substitute,
)
from liftlab.geometry import (
    ChartError, ChartMismatchError, DifferentialForm, VectorField, VolumeForm,
    divergence, exterior_derivative, interior_product, is_exact_candidate,
    jacobi_lie_bracket, lie_derivative_form, one_form, pointwise_pairing,
    wedge, zero_form,
)
from liftlab.kinetics import (
    ContactStructure, PlasmaParams, contact_bracket, contact_density,
    contact_density_rhs, contact_momentum_rhs, contact_vector_field,
    hamiltonian_operator_density, hamiltonian_operator_momentum,
    lie_poisson_rhs, momentum_rhs_via_lift, plasma_chart, plasma_density,
    plasma_hamiltonian, vlasov_density_rhs, vlasov_momentum_rhs,
)
from liftlab.lifts import (
    CotangentChart, complete_cotangent_lift, hamiltonian_vector_field,
    lift_decomposition,
)
from liftlab.parser import parse_expr
from liftlab.samplers import rand_one_form, rand_poly, rand_vector_field


@pytest.fixture
def cs():
    return ContactStructure.standard()


def div_free_field(rng, chart):
    """Random 2D Hamiltonian field (h_y, -h_x): divergence free by design."""
    h = rand_poly(rng, chart.vars, 3)
    return VectorField(chart, (partial(h, chart.vars[1]),
                               canonicalize(partial(h, chart.vars[0]) * -1)))


def curl_field(rng, chart):
    """Random 3D field curl A: divergence free by design."""
    A = [rand_poly(rng, chart.vars, 3) for _ in range(3)]
    return VectorField(chart, tuple(
        canonicalize(partial(A[(i + 2) % 3], chart.vars[(i + 1) % 3])
                     - partial(A[(i + 1) % 3], chart.vars[(i + 2) % 3]))
        for i in range(3)))


def contact_lift_rhs(cs, alpha, K):
    """The lift route for X_K and the volume dsigma^sigma."""
    return momentum_rhs_via_lift(contact_vector_field(cs, K), alpha, cs.vol)


def fluid_rate(upsilon, X):
    """The ideal fluid's rate: the coadjoint formula on a divergence-free X."""
    return lie_poisson_rhs(X, upsilon, VolumeForm.standard(X.chart))


class TestLiePoissonRhs:
    def test_translation_of_x_dy(self, chart2):
        x = Var(chart2.vars[0])
        rate = lie_poisson_rhs(VectorField(chart2, (ONE, ZERO)),
                               one_form(chart2, (ZERO, x)), VolumeForm.standard(chart2))
        assert (rate + one_form(chart2, (ZERO, ONE))).is_zero()

    def test_zero_field_gives_zero_rate(self, rng, chart2):
        rate = lie_poisson_rhs(VectorField(chart2, (ZERO, ZERO)),
                               rand_one_form(rng, chart2, 3), VolumeForm.standard(chart2))
        assert rate.is_zero()

    def test_chart_mismatch(self, chart2, chart3):
        with pytest.raises(ChartMismatchError):
            lie_poisson_rhs(VectorField(chart2, (ONE, ZERO)),
                            one_form(chart3, (ONE, ZERO, ZERO)), VolumeForm.standard(chart3))

    def test_volume_form_on_another_chart(self, chart2, chart3):
        with pytest.raises(ChartMismatchError):
            lie_poisson_rhs(VectorField(chart2, (ONE, ZERO)),
                            one_form(chart2, (ONE, ZERO)), VolumeForm.standard(chart3))

    def test_rejects_a_two_form(self, chart2):
        w = DifferentialForm(chart2, 2, {(0, 1): ONE})
        with pytest.raises(ChartError, match="one-form"):
            lie_poisson_rhs(VectorField(chart2, (ONE, ZERO)), w, VolumeForm.standard(chart2))

    def test_divergence_free_rate_is_vertical_lift_part(self, rng, chart2):
        # for div-free X the rate read on a section equals the fiber part of
        # V X^{c*} with jet variables bound to the section derivatives
        cc = CotangentChart.make(chart2)
        for _ in range(5):
            X = div_free_field(rng, chart2)
            comps = tuple(rand_poly(rng, chart2.vars, 3) for _ in range(2))
            rate = lie_poisson_rhs(X, one_form(chart2, comps), VolumeForm.standard(chart2))
            v, _ = lift_decomposition(cc, X)
            jc = v.jet_chart
            bind = {}
            for l in range(2):
                bind[jc.fiber[l]] = comps[l]
                for a in range(2):
                    bind[jc.jet(l, a)] = partial(comps[l], chart2.vars[a])
            for a in range(2):
                assert expr_equal(rate.coeff((a,)),
                                  substitute(v.fiber_components[a], bind))


class TestFluid:
    def test_shear_transport(self, chart2):
        x, y = (Var(v) for v in chart2.vars)
        rate = fluid_rate(one_form(chart2, (ZERO, x)), VectorField(chart2, (y, ZERO)))
        assert (rate + one_form(chart2, (ZERO, y))).is_zero()

    def test_invariant_representative(self, chart2):
        rate = fluid_rate(one_form(chart2, (ONE, ZERO)), VectorField(chart2, (ONE, ZERO)))
        assert rate.is_zero()

    def test_representative_shift_stays_exact(self, rng, chart2):
        for _ in range(5):
            X = div_free_field(rng, chart2)
            upsilon = rand_one_form(rng, chart2, 3)
            f = rand_poly(rng, chart2.vars, 3)
            df = exterior_derivative(zero_form(chart2, f))
            shifted = upsilon + one_form(chart2, tuple(df.coeff((a,)) for a in range(2)))
            diff = fluid_rate(shifted, X) - fluid_rate(upsilon, X)
            assert is_exact_candidate(diff)

    def test_vorticity_of_invariant_area_form(self, chart2):
        # x dy has vorticity dx^dy, which a translation carries to itself
        X = VectorField(chart2, (ONE, ZERO))
        upsilon = one_form(chart2, (ZERO, Var(chart2.vars[0])))
        assert exterior_derivative(fluid_rate(upsilon, X)).is_zero()
        assert lie_derivative_form(X, exterior_derivative(upsilon)).is_zero()

    def test_vorticity_commutes_with_d(self, rng, chart2):
        for _ in range(5):
            X = div_free_field(rng, chart2)
            upsilon = rand_one_form(rng, chart2, 3)
            lhs = exterior_derivative(fluid_rate(upsilon, X))
            rhs = lie_derivative_form(X, exterior_derivative(upsilon)).scaled(-1)
            assert (lhs - rhs).is_zero()


class TestMomentumRhsViaLift:
    def test_vlasov_is_the_lift_route(self, rng):
        # on plasma_chart(2) the cotangent chart has MAX_DIM = 8 variables
        for n in (1, 2):
            pc = plasma_chart(n)
            for _ in range(3):
                params = PlasmaParams(Fraction(2), Fraction(1),
                                      rand_poly(rng, pc.base.vars, 3))
                pi = rand_one_form(rng, pc.full, 2, terms=3)
                X = hamiltonian_vector_field(pc, plasma_hamiltonian(pc, params))
                lift = momentum_rhs_via_lift(X, pi, VolumeForm.standard(pc.full))
                assert lift == vlasov_momentum_rhs(pc, pi, params)
                assert lift == lie_poisson_rhs(X, pi, VolumeForm.standard(pc.full))

    def test_3d_fluid_is_the_lift_route(self, rng, chart3):
        for _ in range(3):
            X = curl_field(rng, chart3)
            assert divergence(X, VolumeForm.standard(chart3)) == ZERO
            alpha = rand_one_form(rng, chart3, 2)
            vol = VolumeForm.standard(chart3)
            assert momentum_rhs_via_lift(X, alpha, vol) == fluid_rate(alpha, X)

    def test_compressible_field_is_the_lift_route(self, rng, chart2):
        vol = VolumeForm.standard(chart2)
        for _ in range(3):
            X = rand_vector_field(rng, chart2, 2)
            alpha = rand_one_form(rng, chart2, 2)
            assert momentum_rhs_via_lift(X, alpha, vol) == lie_poisson_rhs(X, alpha, vol)

    def test_rejects_a_form_off_the_field_chart(self, chart2, chart3):
        X = VectorField(chart2, (ONE, ZERO))
        vol = VolumeForm.standard(chart2)
        with pytest.raises(ChartError, match="one-form"):
            momentum_rhs_via_lift(X, one_form(chart3, (ONE, ZERO, ZERO)), vol)
        with pytest.raises(ChartError, match="one-form"):
            momentum_rhs_via_lift(X, DifferentialForm(chart2, 2, {(0, 1): ONE}), vol)


class TestPlasmaDensity:
    def setup_method(self):
        self.pc = plasma_chart(1)
        self.q = Var(self.pc.base_var(0))
        self.p = Var(self.pc.fiber_var(0))

    def pi(self, down, up):
        return one_form(self.pc.full, (down, up))

    def test_p_dq(self):
        pi = self.pi(self.p, ZERO)
        assert expr_equal(plasma_density(self.pc, pi), canonicalize(ONE * -1))
        assert not is_zero_expr(plasma_density(self.pc, pi))

    def test_q_dp(self):
        assert expr_equal(plasma_density(self.pc, self.pi(ZERO, self.q)), ONE)

    def test_exact_momentum_has_zero_density(self, rng):
        f = rand_poly(rng, self.pc.full.vars, 4)
        pi = self.pi(partial(f, self.pc.base_var(0)), partial(f, self.pc.fiber_var(0)))
        assert is_zero_expr(plasma_density(self.pc, pi))

    def test_dq_not_admissible(self):
        assert is_zero_expr(plasma_density(self.pc, self.pi(ONE, ZERO)))

    def test_canceling_combination(self):
        assert is_zero_expr(plasma_density(self.pc, self.pi(self.p, self.q)))

    def test_rejects_a_form_off_the_plasma_chart(self, chart2):
        with pytest.raises(ChartError, match="plasma chart"):
            plasma_density(self.pc, one_form(chart2, (ONE, ZERO)))
        with pytest.raises(ChartError, match="plasma chart"):
            plasma_density(plasma_chart(2), self.pi(self.p, self.q))

    def test_rejects_a_two_form(self):
        w = DifferentialForm(self.pc.full, 2, {(0, 1): ONE})
        with pytest.raises(ChartError, match="one-form"):
            plasma_density(self.pc, w)


class TestVlasov:
    def setup_method(self):
        self.pc = plasma_chart(1)
        self.q = Var(self.pc.base_var(0))
        self.p = Var(self.pc.fiber_var(0))
        self.free = PlasmaParams(Fraction(1), Fraction(0), ZERO)

    def test_free_streaming_momentum(self):
        pi = one_form(self.pc.full, (self.p, ZERO))
        rate = vlasov_momentum_rhs(self.pc, pi, self.free)
        assert rate.chart == self.pc.full and rate.degree == 1
        assert rate.coeff((0,)) == ZERO
        assert expr_equal(rate.coeff((1,)), canonicalize(self.p * -1))

    def test_zero_momentum(self):
        pi = one_form(self.pc.full, (ZERO, ZERO))
        assert vlasov_momentum_rhs(self.pc, pi, self.free).is_zero()

    def test_rejects_a_form_off_the_plasma_chart(self, chart2):
        with pytest.raises(ChartError, match="plasma chart"):
            vlasov_momentum_rhs(self.pc, one_form(chart2, (self.p, ZERO)), self.free)
        w = DifferentialForm(self.pc.full, 2, {(0, 1): ONE})
        with pytest.raises(ChartError, match="one-form"):
            vlasov_momentum_rhs(self.pc, w, self.free)

    def test_matches_coadjoint_path(self, rng):
        for n in (1, 2):
            pc = plasma_chart(n)
            params = PlasmaParams(Fraction(2), Fraction(1),
                                  rand_poly(rng, pc.base.vars, 3))
            pi = rand_one_form(rng, pc.full, 2, terms=3)
            from liftlab.kinetics import plasma_hamiltonian
            from liftlab.lifts import hamiltonian_vector_field
            X = hamiltonian_vector_field(pc, plasma_hamiltonian(pc, params))
            coad = lie_poisson_rhs(X, pi, VolumeForm.standard(pc.full))
            rate = vlasov_momentum_rhs(pc, pi, params)
            assert all(expr_equal(rate.coeff((a,)), coad.coeff((a,))) for a in range(2 * n))

    def test_density_rates(self):
        assert vlasov_density_rhs(self.pc, canonicalize(ONE * 4), self.free) == ZERO
        assert vlasov_density_rhs(self.pc, self.p, self.free) == ZERO
        assert expr_equal(vlasov_density_rhs(self.pc, self.q, self.free),
                          canonicalize(self.p * -1))

    def test_intertwining(self, rng):
        params = PlasmaParams(Fraction(1, 2), Fraction(2),
                              rand_poly(rng, self.pc.base.vars, 3))
        pi = rand_one_form(rng, self.pc.full, 3, terms=3)
        lhs = plasma_density(self.pc, vlasov_momentum_rhs(self.pc, pi, params))
        rhs = vlasov_density_rhs(self.pc, plasma_density(self.pc, pi), params)
        assert expr_equal(lhs, rhs)


class TestContactStructure:
    def test_reeb_is_dz(self, cs):
        r = cs.reeb
        assert r.components == (ZERO, ZERO, ONE)
        assert expr_equal(pointwise_pairing(cs.sigma, r), ONE)
        assert interior_product(r, exterior_derivative(cs.sigma)).is_zero()

    def test_volume_is_euclidean(self, cs):
        assert expr_equal(cs.vol.coefficient, ONE)


class TestContactVectorField:
    def test_constant_generator(self, cs):
        X = contact_vector_field(cs, ONE)
        assert X.components == (ZERO, ZERO, canonicalize(ONE * -1))

    def test_x_generator(self, cs):
        X = contact_vector_field(cs, Var(cs.x))
        assert (X - VectorField(cs.chart, (ZERO, canonicalize(ONE * -1), ZERO))).is_zero()

    def test_z_generator(self, cs):
        X = contact_vector_field(cs, Var(cs.z))
        want = VectorField(cs.chart, (canonicalize(Var(cs.x) * -1), ZERO,
                                      canonicalize(Var(cs.z) * -1)))
        assert (X - want).is_zero()

    def test_defining_identities(self, cs, rng):
        dsigma = exterior_derivative(cs.sigma)
        for _ in range(5):
            K = rand_poly(rng, cs.chart.vars, 3)
            X = contact_vector_field(cs, K)
            assert expr_equal(pointwise_pairing(cs.sigma, X), canonicalize(K * -1))
            dK = one_form(cs.chart, tuple(partial(K, v) for v in cs.chart.vars))
            want = dK - cs.sigma.scaled(partial(K, cs.z))
            assert (interior_product(X, dsigma) - want).is_zero()

    def test_divergence_formula(self, cs, rng):
        for _ in range(5):
            K = rand_poly(rng, cs.chart.vars, 3)
            div = divergence(contact_vector_field(cs, K), cs.vol)
            assert expr_equal(div, canonicalize(partial(K, cs.z) * -2))

    @pytest.mark.parametrize("K_text, div_text", [("cos(x)*sin(y) + z", "-2"),
                                                  ("exp(x)*z + sin(y)", "-2*exp(x)")])
    def test_divergence_of_a_transcendental_K_cancels(self, cs, K_text, div_text):
        # sin, cos and exp are atoms of the canonical ring, so the terms
        # around them cancel as a polynomial's do
        K = parse_expr(K_text, cs.chart.vars)
        assert divergence(contact_vector_field(cs, K), cs.vol) is \
            canonicalize(parse_expr(div_text, cs.chart.vars))

    def test_bracket_antihomomorphism(self, cs, rng):
        for _ in range(5):
            K = rand_poly(rng, cs.chart.vars, 3)
            L = rand_poly(rng, cs.chart.vars, 3)
            lhs = jacobi_lie_bracket(contact_vector_field(cs, K),
                                     contact_vector_field(cs, L))
            rhs = contact_vector_field(cs, contact_bracket(cs, K, L)).scaled(-1)
            assert (lhs - rhs).is_zero()


class TestContactBracket:
    def test_self_bracket(self, cs, rng):
        K = rand_poly(rng, cs.chart.vars, 3)
        assert is_zero_expr(contact_bracket(cs, K, K))

    def test_x_against_y(self, cs):
        assert expr_equal(contact_bracket(cs, Var(cs.x), Var(cs.y)), ONE)

    def test_unit_against_anything(self, cs, rng):
        K = rand_poly(rng, cs.chart.vars, 3)
        assert expr_equal(contact_bracket(cs, ONE, K), partial(K, cs.z))


class TestContactDensity:
    def test_dz(self, cs):
        alpha = one_form(cs.chart, (ZERO, ZERO, ONE))
        assert expr_equal(contact_density(cs, alpha), canonicalize(ONE * -2))
        assert not is_zero_expr(contact_density(cs, alpha))

    def test_x_dy(self, cs):
        alpha = one_form(cs.chart, (ZERO, Var(cs.x), ZERO))
        assert expr_equal(contact_density(cs, alpha), ONE)

    def test_dx(self, cs):
        alpha = one_form(cs.chart, (ONE, ZERO, ZERO))
        assert is_zero_expr(contact_density(cs, alpha))

    def test_zero_not_admissible(self, cs):
        assert is_zero_expr(contact_density(cs, one_form(cs.chart, (ZERO, ZERO, ZERO))))

    def test_wedge_identity(self, cs, rng):
        dsigma = exterior_derivative(cs.sigma)
        for _ in range(5):
            alpha = rand_one_form(rng, cs.chart, 3)
            L = contact_density(cs, alpha)
            lhs = wedge(exterior_derivative(alpha), cs.sigma) - \
                wedge(alpha, dsigma).scaled(2)
            assert expr_equal(lhs.coeff((0, 1, 2)), L)


class TestContactMomentumRhs:
    def test_dz_under_z(self, cs):
        alpha = one_form(cs.chart, (ZERO, ZERO, ONE))
        rate = contact_momentum_rhs(cs, alpha, Var(cs.z))
        want = one_form(cs.chart, (ZERO, ZERO, canonicalize(ONE * 3)))
        assert (rate - want).is_zero()

    def test_zero_generator(self, cs, rng):
        alpha = rand_one_form(rng, cs.chart, 3)
        assert contact_momentum_rhs(cs, alpha, ZERO).is_zero()

    def test_dual_path_equality(self, cs, rng):
        for _ in range(5):
            alpha = rand_one_form(rng, cs.chart, 3)
            K = rand_poly(rng, cs.chart.vars, 3)
            a = contact_momentum_rhs(cs, alpha, K)
            b = contact_lift_rhs(cs, alpha, K)
            assert (a - b).is_zero()

    def test_dual_path_on_trig_data_pointwise(self, cs, rng):
        # transcendental coefficients cannot be compared symbolically;
        # sample both routes instead
        from liftlab.expr import Call, Var, eval_numeric
        x, y, z = (Var(v) for v in cs.chart.vars)
        K = Call("sin", z)
        alpha = one_form(cs.chart, (Call("cos", x), Call("sin", y), Call("cos", z)))
        a = contact_momentum_rhs(cs, alpha, K)
        b = contact_lift_rhs(cs, alpha, K)
        for _ in range(10):
            pt = {v: rng.uniform(0.0, 6.28) for v in cs.chart.vars}
            for i in range(3):
                va = eval_numeric(a.coeff((i,)), pt)
                vb = eval_numeric(b.coeff((i,)), pt)
                assert abs(va - vb) <= 1e-12 * (1 + abs(va))


class TestContactDensityRhs:
    def test_matches_momentum_example(self, cs):
        assert expr_equal(contact_density_rhs(cs, canonicalize(ONE * -2), Var(cs.z)),
                          canonicalize(ONE * -6))

    def test_zero_generator(self, cs, rng):
        L = rand_poly(rng, cs.chart.vars, 3)
        assert is_zero_expr(contact_density_rhs(cs, L, ZERO))

    def test_intertwining(self, cs, rng):
        for _ in range(5):
            alpha = rand_one_form(rng, cs.chart, 3)
            K = rand_poly(rng, cs.chart.vars, 3)
            lhs = contact_density(cs, contact_momentum_rhs(cs, alpha, K))
            rhs = contact_density_rhs(cs, contact_density(cs, alpha), K)
            assert expr_equal(lhs, rhs)


class TestPrintedOperators:
    def test_momentum_operator_on_zero_form(self, cs):
        alpha = one_form(cs.chart, (ZERO, ZERO, ZERO))
        out = hamiltonian_operator_momentum(cs, alpha, VectorField(
            cs.chart, (ONE, ONE, ONE)))
        assert out.is_zero()

    def test_momentum_operator_constant_rows(self, cs):
        alpha = one_form(cs.chart, (ZERO, ZERO, ONE))
        out = hamiltonian_operator_momentum(cs, alpha, VectorField(
            cs.chart, (ZERO, ZERO, ONE)))
        assert out.is_zero()

    def test_momentum_operator_is_strong_coadjoint_form(self, cs, rng):
        # the printed matrix expands to -L_X alpha - (div X) alpha; this is
        # why its weak form against the Lie-Poisson bracket differs only by
        # the overall sign printed in the defining display
        for _ in range(3):
            alpha = rand_one_form(rng, cs.chart, 2)
            X = rand_vector_field(rng, cs.chart, 2)
            got = hamiltonian_operator_momentum(cs, alpha, X)
            div = divergence(X, cs.vol)
            want = lie_derivative_form(X, alpha).scaled(-1) - alpha.scaled(div)
            assert (got - want).is_zero()

    def test_density_operator_values(self, cs):
        assert is_zero_expr(hamiltonian_operator_density(cs, ZERO, Var(cs.z)))
        assert expr_equal(hamiltonian_operator_density(cs, ONE, Var(cs.z)),
                          canonicalize(ONE * 3))

    def test_density_operator_strong_mismatch_is_the_known_term(self, cs, rng):
        # J(L)K - (coadjoint rate) = L_z (K_z - K): zeroth- vs first-order
        # discrepancy in the printed operator, kept verbatim and decided weakly
        for _ in range(3):
            L = rand_poly(rng, cs.chart.vars, 3)
            K = rand_poly(rng, cs.chart.vars, 3)
            diff = canonicalize(hamiltonian_operator_density(cs, L, K)
                                - contact_density_rhs(cs, L, K))
            want = canonicalize(partial(L, cs.z) * (partial(K, cs.z) - K))
            assert expr_equal(diff, want)


class TestContactLift:
    def test_constant_generator(self, cs):
        lifted = complete_cotangent_lift(CotangentChart.make(cs.chart),
                                         contact_vector_field(cs, ONE))
        # lift of -d/dz is -d/dz (constant field, zero fiber action)
        assert expr_equal(lifted.components[2], canonicalize(ONE * -1))
        for a in (0, 1, 3, 4, 5):
            assert lifted.components[a] == ZERO

    def test_z_generator_against_lift_formula(self, cs, rng):
        # oracle: apply the displayed lift formula componentwise
        c6 = CotangentChart.make(cs.chart)
        K = Var(cs.z)
        X = contact_vector_field(cs, K)
        lifted = complete_cotangent_lift(c6, X)
        for a in range(3):
            assert expr_equal(lifted.components[a], X.components[a])
        for a in range(3):
            want = ZERO
            for b in range(3):
                want = want - Var(c6.fiber_var(b)) * partial(
                    X.components[b], c6.base_var(a))
            assert expr_equal(lifted.components[3 + a], canonicalize(want))

    def test_vertical_part_reproduces_momentum_rhs(self, cs, rng):
        # V-part plus the divergence term is exactly the via-lift rhs path
        for _ in range(3):
            alpha = rand_one_form(rng, cs.chart, 2)
            K = rand_poly(rng, cs.chart.vars, 2)
            a = contact_lift_rhs(cs, alpha, K)
            b = contact_momentum_rhs(cs, alpha, K)
            assert (a - b).is_zero()
