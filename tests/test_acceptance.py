"""Acceptance criteria, one test per criterion, tolerances pinned here.

Each test prints a single summary line (run with `pytest -s` to stream
them).  Criterion 9 compares the two discrete paths on the nodes that the
torus initial data determine.  The contact models carry the bare Darboux
coefficient x, and for K = z the field X_K = (-x, 0, -z) is aperiodic in
z too, so nodes whose backward characteristic reaches the seam at
0 = 2pi take their values from the jump there, not from the data; the
global gap, seam wake included, is printed as a diagnostic.
"""

import random
import time
from fractions import Fraction

from liftlab.expr import canonicalize, expr_equal, partial
from liftlab.geometry import (
    divergence, exterior_derivative, interior_product, jacobi_lie_bracket,
    lie_derivative_form, one_form, pointwise_pairing,
)
from liftlab.jets import (
    JetChart, holonomic_part, obstruction_form, prolongation_bracket,
)
from liftlab.kinetics import (
    ContactStructure, PlasmaParams, contact_bracket,
    contact_density, contact_density_rhs, contact_momentum_rhs,
    contact_vector_field, momentum_rhs_via_lift, plasma_chart,
    plasma_density, vlasov_density_rhs, vlasov_momentum_rhs,
)
from liftlab.lifts import (
    complete_cotangent_lift, euler_vector_field, lift_decomposition,
    vertical_lift, as_generalized,
)
from liftlab.samplers import rand_one_form, rand_poly, rand_vector_field
from liftlab.sim import (
    SimConfig, discrete_intertwining_error,
    spatial_operator_order, temporal_order, build_model, initial_state,
)
from liftlab.verify import _COT_CHARTS, run_suite
from liftlab.grid import march, quadrature

TRIALS = 25
SEED = 2024


def announce(num, name, detail, elapsed, budget):
    print(f"\nACCEPT {num:02d} {name}: PASS ({detail}, {elapsed:.1f}s < {budget:.0f}s)")


def vf_equal(a, b):
    return all(expr_equal(p, q) for p, q in zip(a.components, b.components))


def test_criterion_01_lift_bracket_isomorphism():
    t0 = time.time()
    rng = random.Random(SEED + 1)
    for _ in range(TRIALS):
        cc = _COT_CHARTS[rng.randrange(3)]
        X = rand_vector_field(rng, cc.base, 3)
        Y = rand_vector_field(rng, cc.base, 3)
        lhs = complete_cotangent_lift(cc, jacobi_lie_bracket(X, Y))
        rhs = jacobi_lie_bracket(complete_cotangent_lift(cc, X),
                                 complete_cotangent_lift(cc, Y))
        assert vf_equal(lhs, rhs)
    elapsed = time.time() - t0
    assert elapsed < 10
    announce(1, "lift-bracket-isomorphism", f"{TRIALS} random pairs, dims 1-3",
             elapsed, 10)


def test_criterion_02_vertical_representative_suite():
    t0 = time.time()
    rng = random.Random(SEED + 2)
    for _ in range(TRIALS):
        cc = _COT_CHARTS[rng.randrange(3)]
        X = rand_vector_field(rng, cc.base, 3)
        Y = rand_vector_field(rng, cc.base, 3)
        xi = as_generalized(cc, complete_cotangent_lift(cc, X))
        eta = as_generalized(cc, complete_cotangent_lift(cc, Y))
        assert obstruction_form(xi, eta).is_zero()
        vxy, _ = lift_decomposition(cc, jacobi_lie_bracket(X, Y))
        vx, _ = lift_decomposition(cc, X)
        vy, _ = lift_decomposition(cc, Y)
        assert prolongation_bracket(vx, vy) == vxy
    elapsed = time.time() - t0
    assert elapsed < 20
    announce(2, "vertical-representative-suite",
             f"{TRIALS} pairs: obstruction zero + V-homomorphism", elapsed, 20)


def test_criterion_03_holonomic_lift_suite():
    from liftlab.geometry import Chart, VectorField
    from liftlab.jets import GeneralizedVectorField
    t0 = time.time()
    rng = random.Random(SEED + 3)
    shapes = ((["x"], ["u"]), (["x", "y"], ["u", "v"]))
    charts = [(JetChart.make(b, f), Chart.make(*(b + f))) for b, f in shapes]
    for _ in range(TRIALS):
        jc, echart = charts[rng.randrange(2)]

        def sample():
            base = tuple(rand_poly(rng, jc.base, 2, 2) for _ in range(jc.m))
            fiber = tuple(rand_poly(rng, jc.base + jc.fiber, 2, 2)
                          for _ in range(jc.k))
            return GeneralizedVectorField(jc, base, fiber)

        xi, eta = sample(), sample()
        X = VectorField(echart, xi.base_components + xi.fiber_components)
        Y = VectorField(echart, eta.base_components + eta.fiber_components)
        br = jacobi_lie_bracket(X, Y)
        as_gvf = GeneralizedVectorField(jc, br.components[:jc.m], br.components[jc.m:])
        assert holonomic_part(as_gvf) == prolongation_bracket(
            holonomic_part(xi), holonomic_part(eta))
    elapsed = time.time() - t0
    assert elapsed < 20
    announce(3, "holonomic-lift-suite", f"{TRIALS} projectable pairs on (1,1),(2,2)",
             elapsed, 20)


def test_criterion_04_euler_field_suite():
    t0 = time.time()
    rng = random.Random(SEED + 4)
    for cc in _COT_CHARTS:
        xe = euler_vector_field(cc)
        omega, theta = cc.symplectic_form(), cc.tautological_form()
        assert (interior_product(xe, omega) - theta).is_zero()
        assert (lie_derivative_form(xe, omega) + omega).is_zero()
        assert (lie_derivative_form(xe, theta) + theta).is_zero()
    for _ in range(TRIALS):
        cc = _COT_CHARTS[rng.randrange(3)]
        X = rand_vector_field(rng, cc.base, 3)
        alpha = rand_one_form(rng, cc.base, 3)
        lhs = jacobi_lie_bracket(complete_cotangent_lift(cc, X),
                                 vertical_lift(cc, alpha))
        rhs = vertical_lift(cc, lie_derivative_form(X, alpha))
        assert vf_equal(lhs, rhs)
    elapsed = time.time() - t0
    assert elapsed < 10
    announce(4, "euler-field-suite",
             f"3 charts x 3 identities + {TRIALS} lift/vertical brackets",
             elapsed, 10)


def test_criterion_05_contact_structure_suite():
    t0 = time.time()
    rng = random.Random(SEED + 5)
    cs = ContactStructure.standard()
    dsigma = exterior_derivative(cs.sigma)
    for _ in range(TRIALS):
        K = rand_poly(rng, cs.chart.vars, 3)
        L = rand_poly(rng, cs.chart.vars, 3)
        X_K = contact_vector_field(cs, K)
        assert expr_equal(pointwise_pairing(cs.sigma, X_K), canonicalize(K * -1))
        dK = one_form(cs.chart, tuple(partial(K, v) for v in cs.chart.vars))
        want = dK - cs.sigma.scaled(partial(K, cs.z))
        assert (interior_product(X_K, dsigma) - want).is_zero()
        assert expr_equal(divergence(X_K, cs.vol), canonicalize(partial(K, cs.z) * -2))
        lhs = jacobi_lie_bracket(X_K, contact_vector_field(cs, L))
        rhs = contact_vector_field(cs, contact_bracket(cs, K, L)).scaled(-1)
        assert vf_equal(lhs, rhs)
    elapsed = time.time() - t0
    assert elapsed < 10
    announce(5, "contact-structure-suite",
             f"{TRIALS} generators: defining identities, divergence, bracket",
             elapsed, 10)


def test_criterion_06_intertwining_suite_symbolic():
    t0 = time.time()
    rng = random.Random(SEED + 6)
    cs = ContactStructure.standard()
    for _ in range(TRIALS):
        alpha = rand_one_form(rng, cs.chart, 3)
        K = rand_poly(rng, cs.chart.vars, 3)
        lhs = contact_density(cs, contact_momentum_rhs(cs, alpha, K))
        rhs = contact_density_rhs(cs, contact_density(cs, alpha), K)
        assert expr_equal(lhs, rhs)
    for _ in range(TRIALS):
        pc = plasma_chart(rng.choice((1, 2)))
        params = PlasmaParams(Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))),
                              Fraction(rng.choice((-1, 0, 1, 2))),
                              rand_poly(rng, pc.base.vars, 3))
        pi = rand_one_form(rng, pc.full, 3, terms=3)
        lhs = plasma_density(pc, vlasov_momentum_rhs(pc, pi, params))
        rhs = vlasov_density_rhs(pc, plasma_density(pc, pi), params)
        assert expr_equal(lhs, rhs)
    elapsed = time.time() - t0
    assert elapsed < 30
    announce(6, "intertwining-suite-symbolic",
             f"{TRIALS} contact + {TRIALS} plasma instances", elapsed, 30)


def test_criterion_07_dual_path_equality():
    t0 = time.time()
    rng = random.Random(SEED + 7)
    cs = ContactStructure.standard()
    for _ in range(TRIALS):
        alpha = rand_one_form(rng, cs.chart, 3)
        K = rand_poly(rng, cs.chart.vars, 3)
        a = contact_momentum_rhs(cs, alpha, K)
        b = momentum_rhs_via_lift(contact_vector_field(cs, K), alpha, cs.vol)
        assert (a - b).is_zero()
    elapsed = time.time() - t0
    assert elapsed < 10
    announce(7, "dual-path-equality", f"{TRIALS} (alpha, K) instances",
             elapsed, 10)


L0_TEXT = "2 + sin(x)*sin(y)*sin(z)"


def test_criterion_08_numerical_convergence():
    from liftlab.kinetics import ContactStructure, contact_density_rhs
    from liftlab.parser import parse_expr
    t0 = time.time()
    cfg = SimConfig(model="contact-density", n=32, dt=1e-3, steps=1,
                    K="z", init=(L0_TEXT,))
    t_order, diffs = temporal_order(cfg, (2e-3, 1e-3, 5e-4), t_end=0.04)
    assert t_order >= 3.8, f"temporal order {t_order:.2f} (diffs {diffs})"

    cs = ContactStructure.standard()
    exact = [contact_density_rhs(cs, parse_expr(L0_TEXT, cs.chart.vars),
                                 parse_expr("z", cs.chart.vars))]

    def mk(n):
        return SimConfig(model="contact-density", n=n, dt=1e-4, steps=1,
                         K="z", init=(L0_TEXT,))

    # stencil spatial order measured on the manufactured field: the compiled
    # semi-discrete operator against the exact symbolic rate (solution-level
    # spatial Richardson is polluted by the aperiodic x coefficient's seam
    # band and does not isolate the stencil order; see the operator note in
    # the README)
    s_order, errs = spatial_operator_order(mk, exact, (16, 32, 64))
    assert s_order >= 3.5, f"spatial order {s_order:.2f} (errs {errs})"
    elapsed = time.time() - t0
    assert elapsed < 300
    announce(8, "numerical-convergence",
             f"temporal {t_order:.2f} >= 3.8, spatial {s_order:.2f} >= 3.5",
             elapsed, 300)


def test_criterion_09_discrete_intertwining():
    t0 = time.time()
    params = dict(n=64, dt=5e-4, steps=200, cadence=20)
    gap, determined, checked = discrete_intertwining_error(
        "z", ("0", "-cos(x)*sin(y)*sin(z)", "-1"), L0_TEXT, **params)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\nACCEPT 09 discrete-intertwining: determined max gap "
          f"{determined:.3e} (tolerance 1e-3) on {min(checked):.0%}-"
          f"{max(checked):.0%} of nodes, global max gap {gap:.3e} "
          f"({elapsed:.1f}s < 300s)")
    assert min(checked) > 0.5, f"too few determined nodes: {checked}"
    assert determined <= 1e-3, (
        f"two-path max-norm gap {determined:.3e} > 1e-3 on the nodes the "
        f"initial data determine (global gap, seam wake included: {gap:.3e})")


def test_criterion_10_vlasov_conservation():
    t0 = time.time()
    cfg = SimConfig(model="vlasov-density", n=64, dt=1e-3, steps=100,
                    params={"m": "1", "e": "1", "phi": "cos(q)"},
                    init=("1 + 3/10*sin(q)*sin(p)",))
    model = build_model(cfg)
    state = initial_state(cfg, model)
    h, d = model.grid.h, model.grid.dim
    mass0 = quadrature(state[0], h, d)
    for _, state in march(state, model.rhs, cfg.dt, cfg.steps):
        pass
    drift = abs(quadrature(state[0], h, d) - mass0) / abs(mass0)
    elapsed = time.time() - t0
    assert drift <= 1e-8, f"mass drift {drift:.3e}"
    assert elapsed < 60
    announce(10, "vlasov-conservation", f"relative drift {drift:.2e} <= 1e-8",
             elapsed, 60)


def test_criterion_11_weak_operator_probe_report():
    # each weak identity of the printed operators is decided as an equality
    # of formal adjoints, and the printed displays' defects as identities
    t0 = time.time()
    report = run_suite("operators-weak", trials=10, degree=3, seed=SEED)
    elapsed = time.time() - t0
    assert [(r.name, r.trials, r.passed) for r in report.results] == [
        ("pairing-duality", 10, True), ("momentum-operator-weak", 10, True),
        ("momentum-display-sign", 10, True), ("density-operator-weak", 10, True),
        ("operator-relation", 10, True)]
    assert report.verdict == "PASS"
    assert elapsed < 120
    print(f"\nACCEPT 11 weak-operator-identities: PASS (5 checks x 10 trials, "
          f"decided in {elapsed:.2f}s < 120s):")
    for line in report.render().splitlines():
        print("   " + line)
