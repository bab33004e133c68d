"""Exterior calculus: brackets, d, wedge, contraction, Lie derivative."""

import pytest
from hypothesis import given, settings, strategies as st

from liftlab.expr import (
    ONE, ZERO, ExprError, Var, canon, expr_equal, is_zero_expr, partial,
)
from liftlab.geometry import (
    Chart, ChartError, ChartMismatchError, DegreeError, DifferentialForm, VectorField,
    VolumeForm, divergence, exterior_derivative, formal_adjoint, interior_product,
    is_exact_candidate, jacobi_lie_bracket, lie_derivative_form, one_form,
    pointwise_pairing, wedge, zero_form,
)
from liftlab.samplers import rand_one_form, rand_poly, rand_two_form, rand_vector_field


@pytest.mark.parametrize("name", ["sin", "cos", "exp"])
def test_function_names_are_not_chart_variables(name):
    # the parser reads these names as functions, never as the variable
    with pytest.raises(ChartError, match="function name"):
        Chart.make("x", name)


def vf_equal(a, b):
    return all(expr_equal(p, q) for p, q in zip(a.components, b.components))


class TestJacobiLieBracket:
    def test_commuting_coordinate_dilations(self, chart2):
        x, y = (Var(v) for v in chart2.vars)
        out = jacobi_lie_bracket(VectorField(chart2, (x, ZERO)),
                                 VectorField(chart2, (ZERO, y)))
        assert out.is_zero()

    def test_dilation_against_translation(self, chart2):
        # oracle: [X,Y]^a = X(Y^a) - Y(X^a) expanded by hand gives -d/dx
        x = Var(chart2.vars[0])
        out = jacobi_lie_bracket(VectorField(chart2, (x, ZERO)),
                                 VectorField(chart2, (ONE, ZERO)))
        assert vf_equal(out, VectorField(chart2, (canon(ONE * -1), ZERO)))

    def test_rotation_generators(self, chart2):
        x, y = (Var(v) for v in chart2.vars)
        out = jacobi_lie_bracket(VectorField(chart2, (ZERO, x)),
                                 VectorField(chart2, (y, ZERO)))
        assert vf_equal(out, VectorField(chart2, (x, canon(y * -1))))

    def test_chart_mismatch(self, chart2, chart3):
        with pytest.raises(ChartMismatchError):
            jacobi_lie_bracket(VectorField(chart2, (ONE, ZERO)),
                               VectorField(chart3, (ONE, ZERO, ZERO)))

    def test_jacobi_identity(self, rng, chart3):
        for _ in range(5):
            X = rand_vector_field(rng, chart3, 3)
            Y = rand_vector_field(rng, chart3, 3)
            Z = rand_vector_field(rng, chart3, 3)
            total = jacobi_lie_bracket(jacobi_lie_bracket(X, Y), Z) \
                + jacobi_lie_bracket(jacobi_lie_bracket(Y, Z), X) \
                + jacobi_lie_bracket(jacobi_lie_bracket(Z, X), Y)
            assert total.is_zero()


class TestExteriorDerivative:
    def test_d_of_x_dy(self, chart2):
        x = Var(chart2.vars[0])
        d = exterior_derivative(one_form(chart2, (ZERO, x)))
        assert expr_equal(d.coeff((0, 1)), ONE)

    def test_contact_form_derivative(self, chart3):
        # sigma = x dy + dz has d sigma = dx^dy
        x = Var(chart3.vars[0])
        d = exterior_derivative(one_form(chart3, (ZERO, x, ONE)))
        assert set(d.terms) == {(0, 1)}
        assert expr_equal(d.coeff((0, 1)), ONE)

    def test_dd_is_zero_on_functions(self, rng, chart3):
        for _ in range(5):
            f = rand_poly(rng, chart3.vars, 4)
            dd = exterior_derivative(exterior_derivative(zero_form(chart3, f)))
            assert dd.is_zero()

    def test_dd_is_zero_every_degree(self, rng, chart3):
        for _ in range(5):
            assert exterior_derivative(
                exterior_derivative(rand_one_form(rng, chart3, 3))).is_zero()

    def test_top_degree_rejected(self, chart2):
        top = DifferentialForm(chart2, 2, {(0, 1): ONE})
        with pytest.raises(DegreeError):
            exterior_derivative(top)


class TestWedge:
    def test_builds_contact_volume(self, chart3):
        x = Var(chart3.vars[0])
        sigma = one_form(chart3, (ZERO, x, ONE))
        dsigma = exterior_derivative(sigma)
        vol = wedge(dsigma, sigma)
        assert set(vol.terms) == {(0, 1, 2)}
        assert expr_equal(vol.coeff((0, 1, 2)), ONE)

    def test_graded_symmetry(self, rng, chart3):
        for _ in range(5):
            a = rand_one_form(rng, chart3, 2)
            b = rand_two_form(rng, chart3, 2)
            assert (wedge(a, b) - wedge(b, a)).is_zero()          # (-1)^{1*2} = +1
            c = rand_one_form(rng, chart3, 2)
            assert (wedge(a, c) + wedge(c, a)).is_zero()          # (-1)^{1*1} = -1

    def test_self_wedge_of_basis_one_form(self, chart2):
        dx = one_form(chart2, (ONE, ZERO))
        assert wedge(dx, dx).is_zero()

    def test_degree_overflow(self, chart2):
        a = one_form(chart2, (ONE, ZERO))
        b = DifferentialForm(chart2, 2, {(0, 1): ONE})
        with pytest.raises(DegreeError):
            wedge(a, b)


class TestInteriorProduct:
    def test_reeb_pairs_to_one(self, chart3):
        x = Var(chart3.vars[0])
        sigma = one_form(chart3, (ZERO, x, ONE))
        reeb = VectorField(chart3, (ZERO, ZERO, ONE))
        out = interior_product(reeb, sigma)
        assert expr_equal(out.coeff(()), ONE)

    def test_reeb_annihilates_dsigma(self, chart3):
        dxdy = DifferentialForm(chart3, 2, {(0, 1): ONE})
        reeb = VectorField(chart3, (ZERO, ZERO, ONE))
        assert interior_product(reeb, dxdy).is_zero()

    def test_double_contraction_vanishes(self, rng, chart3):
        for _ in range(5):
            X = rand_vector_field(rng, chart3, 2)
            w = rand_two_form(rng, chart3, 2)
            assert interior_product(X, interior_product(X, w)).is_zero()

    def test_degree_zero_rejected(self, chart2):
        with pytest.raises(DegreeError):
            interior_product(VectorField(chart2, (ONE, ZERO)),
                             zero_form(chart2, ONE))


def coeff_signed(omega, idx):
    """The coefficient of ``omega`` at any index tuple, antisymmetrized."""
    if len(set(idx)) != len(idx):
        return ZERO
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
    return omega.coeff(tuple(sorted(idx))) * (-1) ** inversions


def lie_derivative_componentwise(X, omega):
    """Oracle: (L_X w)_I = X^j d_j w_I + sum_k w_{I with I_k -> j} d_{I_k} X^j."""
    chart = X.chart
    out = {}
    for idx in omega.terms:
        coeff = X.apply(omega.terms[idx])
        for slot in range(len(idx)):
            for j in range(chart.dim):
                replaced = idx[:slot] + (j,) + idx[slot + 1:]
                coeff = coeff + coeff_signed(omega, replaced) * \
                    partial(X.components[j], chart.vars[idx[slot]])
        out[idx] = canon(coeff)
    return DifferentialForm(chart, omega.degree, out)


class TestLieDerivative:
    def test_translation_of_x_dy(self, chart2):
        x = Var(chart2.vars[0])
        out = lie_derivative_form(VectorField(chart2, (ONE, ZERO)),
                                  one_form(chart2, (ZERO, x)))
        assert vf_one_form_equal(out, one_form(chart2, (ZERO, ONE)))

    def test_shear_of_x_dy(self, chart2):
        x, y = (Var(v) for v in chart2.vars)
        out = lie_derivative_form(VectorField(chart2, (y, ZERO)),
                                  one_form(chart2, (ZERO, x)))
        assert vf_one_form_equal(out, one_form(chart2, (ZERO, y)))

    def test_reduces_to_directional_derivative_on_functions(self, rng, chart3):
        for _ in range(5):
            X = rand_vector_field(rng, chart3, 2)
            f = rand_poly(rng, chart3.vars, 3)
            lied = lie_derivative_form(X, zero_form(chart3, f))
            assert expr_equal(lied.coeff(()), X.apply(f))

    def test_cartan_matches_componentwise_formula(self, rng, chart3):
        for _ in range(5):
            X = rand_vector_field(rng, chart3, 2)
            a = rand_one_form(rng, chart3, 2)
            w = rand_two_form(rng, chart3, 2)
            assert (lie_derivative_form(X, a) - lie_derivative_componentwise(X, a)).is_zero()
            assert (lie_derivative_form(X, w) - lie_derivative_componentwise(X, w)).is_zero()


def vf_one_form_equal(a, b):
    return (a - b).is_zero()


class TestDivergence:
    def test_dilation_in_one_dimension(self):
        chart = Chart.make("x")
        x = Var(chart.vars[0])
        div = divergence(VectorField(chart, (x,)), VolumeForm.standard(chart))
        assert expr_equal(div, ONE)

    def test_matches_lie_derivative_of_volume(self, rng, chart3):
        for _ in range(5):
            X = rand_vector_field(rng, chart3, 2)
            rho = canon(rand_poly(rng, chart3.vars, 2) ** 2 + 1)   # nonvanishing
            vol = VolumeForm(DifferentialForm(chart3, 3, {(0, 1, 2): rho}))
            div = divergence(X, vol)
            lied = lie_derivative_form(X, vol.form)
            assert expr_equal(lied.coeff((0, 1, 2)), canon(div * rho))

    def test_hamiltonian_field_is_divergence_free(self, rng, chart2):
        # X = (h_y, -h_x) for random h on a 2D chart
        for _ in range(5):
            h = rand_poly(rng, chart2.vars, 3)
            X = VectorField(chart2, (partial(h, chart2.vars[1]),
                                     canon(partial(h, chart2.vars[0]) * -1)))
            assert is_zero_expr(divergence(X, VolumeForm.standard(chart2)))


class TestPairingAndExactness:
    def test_basis_pairing(self, chart2):
        dx = one_form(chart2, (ONE, ZERO))
        assert expr_equal(pointwise_pairing(dx, VectorField(chart2, (ONE, ZERO))), ONE)

    def test_weighted_pairing(self, chart2):
        x, y = (Var(v) for v in chart2.vars)
        out = pointwise_pairing(one_form(chart2, (y, ZERO)),
                                VectorField(chart2, (x, ZERO)))
        assert expr_equal(out, canon(x * y))

    def test_exact_form_is_closed(self, chart2):
        x, y = (Var(v) for v in chart2.vars)
        f = canon(x ** 2 * y)
        df = exterior_derivative(zero_form(chart2, f))
        assert is_exact_candidate(one_form(chart2, tuple(
            df.coeff((a,)) for a in range(2))))

    def test_x_dy_is_not_closed(self, chart2):
        x = Var(chart2.vars[0])
        assert not is_exact_candidate(one_form(chart2, (ZERO, x)))

    def test_class_representatives_differ_by_exact(self, rng, chart3):
        for _ in range(5):
            alpha = rand_one_form(rng, chart3, 3)
            f = rand_poly(rng, chart3.vars, 3)
            df = exterior_derivative(zero_form(chart3, f))
            beta = alpha + one_form(chart3, tuple(df.coeff((a,)) for a in range(3)))
            assert is_exact_candidate(beta - alpha)


class TestFormalAdjoint:
    def test_multiplication_is_its_own_adjoint(self, rng, chart3):
        c = rand_poly(rng, chart3.vars, 3)
        assert formal_adjoint(chart3, lambda H: canon(c * H)) == c

    def test_first_derivative_moves_onto_the_coefficient_with_a_minus(self, rng, chart3):
        x = chart3.vars[0]
        c = rand_poly(rng, chart3.vars, 3)
        assert formal_adjoint(chart3, lambda H: canon(c * partial(H, x))) == \
            canon(partial(c, x) * -1)

    def test_mixed_second_derivative_moves_onto_the_coefficient(self, rng, chart3):
        x, y, _ = chart3.vars
        c = rand_poly(rng, chart3.vars, 3)
        assert formal_adjoint(chart3, lambda H: canon(c * partial(partial(H, x), y))) == \
            partial(partial(c, x), y)

    @pytest.mark.parametrize("chart", [Chart.make("x"), Chart.make("x", "y", "z")])
    def test_adjoint_is_an_involution(self, rng, chart):
        # D*[H] is the adjoint of G -> H D[G]; the adjoint of H -> L D*[H]
        # is then D[L]
        v = chart.vars
        for _ in range(10):
            c = rand_poly(rng, v, 2, 2)
            first = [rand_poly(rng, v, 2, 2) for _ in v]
            second = {(a, b): rand_poly(rng, v, 2, 2)
                      for a in range(chart.dim) for b in range(a, chart.dim)}

            def D(G):
                return canon(c * G
                             + sum((ca * partial(G, v[a]) for a, ca in enumerate(first)), ZERO)
                             + sum((cab * partial(partial(G, v[a]), v[b])
                                    for (a, b), cab in second.items()), ZERO))

            def D_star(H):
                return formal_adjoint(chart, lambda G: canon(H * D(G)))

            L = rand_poly(rng, v, 3)
            assert formal_adjoint(chart, lambda H: canon(L * D_star(H))) == D(L)

    @pytest.mark.parametrize("axes", [(0, 0, 0), (0, 1, 2)])
    def test_third_order_operator_is_refused(self, chart3, axes):
        def D(H):
            for a in axes:
                H = partial(H, chart3.vars[a])
            return H

        with pytest.raises(ExprError, match="order above 2"):
            formal_adjoint(chart3, D)


# ---------------------------------------------------------------------------
# hypothesis-driven structure laws

CHART3 = Chart.make("x", "y", "z")


@st.composite
def poly3(draw, degree=3):
    e = ZERO
    for _ in range(draw(st.integers(1, 3))):
        term = canon(ONE * draw(st.integers(-3, 3)))
        budget = degree
        for v in CHART3.vars:
            k = draw(st.integers(0, budget))
            budget -= k
            if k:
                term = term * Var(v) ** k
        e = e + term
    return canon(e)


@st.composite
def one_form3(draw):
    return one_form(CHART3, tuple(draw(poly3()) for _ in range(3)))


@st.composite
def field3(draw):
    return VectorField(CHART3, tuple(draw(poly3()) for _ in range(3)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(one_form3())
def test_dd_vanishes_hypothesis(alpha):
    assert exterior_derivative(exterior_derivative(alpha)).is_zero()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field3(), one_form3(), one_form3())
def test_lie_derivative_is_a_derivation_of_wedge(X, a, b):
    lhs = lie_derivative_form(X, wedge(a, b))
    rhs = wedge(lie_derivative_form(X, a), b) + wedge(a, lie_derivative_form(X, b))
    assert (lhs - rhs).is_zero()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(field3(), field3())
def test_bracket_in_lie_derivative_on_functions(X, Y):
    f = canon(Var(CHART3.vars[0]) * Var(CHART3.vars[1]) ** 2
              + Var(CHART3.vars[2]))
    lhs = X.apply(Y.apply(f)) - Y.apply(X.apply(f))
    assert expr_equal(lhs, jacobi_lie_bracket(X, Y).apply(f))
