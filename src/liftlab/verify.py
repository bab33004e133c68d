"""Seeded randomized verification suites behind `liftlab verify`.

Exact suites check symbolic identities and fail loudly with the first
counterexample.  The operators-weak suite evaluates quadrature probes of
the printed Hamiltonian operators and only *reports* residuals: the probes
window all data in x by ((1-cos x)/2)^4 so that every integration-by-parts
boundary term at the x-seam vanishes (the Darboux coefficient x is not
periodic on the torus); with the window in place a residual above the
probe tolerance indicates an operator-level discrepancy, not a seam
artifact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .expr import (
    Call, Expr, Var, ZERO, canon, expr_equal, kernel_stats, partial, substitute,
)
from .geometry import (
    Chart, VectorField, VolumeForm, divergence, exterior_derivative,
    interior_product, jacobi_lie_bracket, lie_derivative_form, one_form,
    pointwise_pairing, wedge,
)
from .grid import Grid, discretize, quadrature
from .jets import (
    GeneralizedVectorField, JetChart, holonomic_part,
    obstruction_form, prolongation_bracket, vertical_representative,
)
from .kinetics import (
    ContactStructure, MomentumDensity, PlasmaMomentum, PlasmaParams,
    contact_bracket, contact_density, contact_density_rhs,
    contact_momentum_rhs, contact_momentum_rhs_via_lift,
    contact_vector_field, hamiltonian_operator_density,
    hamiltonian_operator_momentum, lie_poisson_rhs, plasma_chart,
    plasma_density, plasma_hamiltonian, vlasov_density_rhs,
    vlasov_momentum_rhs,
)
from .lifts import (
    CotangentChart, as_generalized, canonical_poisson,
    complete_cotangent_lift, euler_vector_field, hamiltonian_vector_field,
    lift_decomposition, momentum_function, vertical_lift,
)
from .samplers import (
    rand_one_form, rand_poly, rand_trig_poly, rand_vector_field,
)

__all__ = ["SuiteReport", "CheckResult", "run_suite", "SUITES",
           "WEAK_PROBE_TOL"]

WEAK_PROBE_TOL = 1e-6
# points per axis of the operators-weak quadrature grid
WEAK_PROBE_N = 48


@dataclass
class CheckResult:
    """One check's outcome.  ``seconds`` and ``kernel``, the change of
    ``expr.kernel_stats()`` while it ran, are set where the check runs on
    its own; the operators-weak checks share one loop and leave them unset."""

    name: str
    trials: int
    passed: bool
    counterexample: str | None = None
    residuals: list[float] = field(default_factory=list)
    flagged: bool = False
    note: str | None = None
    seconds: float | None = None
    kernel: dict[str, int] | None = None


@dataclass
class SuiteReport:
    suite: str
    trials: int
    degree: int
    seed: int
    results: list[CheckResult] = field(default_factory=list)
    informational: bool = False
    seconds: float | None = None
    kernel: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return self.informational or all(r.passed for r in self.results)

    @property
    def verdict(self) -> str:
        return "REPORTED" if self.informational else ("PASS" if self.ok else "FAIL")

    def render(self) -> str:
        lines = [f"suite: {self.suite}  trials={self.trials} "
                 f"degree={self.degree} seed={self.seed}"]
        for r in self.results:
            if r.residuals:
                worst = max(r.residuals)
                tag = "FLAG" if r.flagged else "ok  "
                lines.append(f"  [{tag}] {r.name}: max residual {worst:.3e} "
                             f"(tol {WEAK_PROBE_TOL:.0e}, {len(r.residuals)} probes)")
                if r.flagged:
                    lines.append("         residual exceeds tolerance: documented "
                                 "operator discrepancy, reported not asserted")
                if r.note:
                    lines.append(f"         {r.note}")
            else:
                tag = "PASS" if r.passed else "FAIL"
                lines.append(f"  [{tag}] {r.name} ({r.trials} trials)")
                if r.counterexample:
                    lines.append(f"         counterexample: {r.counterexample}")
        lines.append(f"RESULT: {self.verdict}")
        return "\n".join(lines)


def _run_checks(report: SuiteReport,
                checks: Sequence[tuple[str, Callable[[random.Random], str | None]]],
                trials: int, seed: int) -> SuiteReport:
    for name, check in checks:
        rng = random.Random(f"{seed}:{name}")
        failure = None
        done = 0
        start, stats = time.perf_counter(), kernel_stats()
        for t in range(trials):
            failure = check(rng)
            done += 1
            if failure:
                break
        report.results.append(CheckResult(
            name, done, failure is None, failure,
            seconds=time.perf_counter() - start, kernel=_kernel_delta(stats)))
    return report


def _kernel_delta(before: dict[str, int]) -> dict[str, int]:
    return {k: v - before[k] for k, v in kernel_stats().items()}


# ---------------------------------------------------------------------------
# jets

def _rand_ordinary_field(rng, jc: JetChart, degree: int) -> GeneralizedVectorField:
    """Projectable field on E: base comps in x, fiber comps in (x, u)."""
    base = tuple(rand_poly(rng, jc.base, degree, 2) for _ in range(jc.m))
    fiber = tuple(rand_poly(rng, jc.base + jc.fiber, degree, 2) for _ in range(jc.k))
    return GeneralizedVectorField(jc, base, fiber)


def _rand_generalized_field(rng, jc: JetChart, degree: int) -> GeneralizedVectorField:
    base = tuple(rand_poly(rng, jc.base, degree, 2) for _ in range(jc.m))
    first = tuple(sorted(jc.first_order_vars(), key=lambda v: v.index))
    fiber = tuple(rand_poly(rng, first, degree, 2) for _ in range(jc.k))
    return GeneralizedVectorField(jc, base, fiber)


def _ordinary_bracket_on_jet(jc: JetChart, a: GeneralizedVectorField,
                             b: GeneralizedVectorField) -> GeneralizedVectorField:
    """Jacobi-Lie bracket of two ordinary (jet-independent) fields on E."""
    echart = Chart(jc.base + jc.fiber)
    X = VectorField(echart, a.base_components + a.fiber_components)
    Y = VectorField(echart, b.base_components + b.fiber_components)
    comps = jacobi_lie_bracket(X, Y).components
    return GeneralizedVectorField(jc, comps[:jc.m], comps[jc.m:])


def suite_jets(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("jets", trials, degree, seed)
    shapes = (("x",), ("u",)), (("x", "y"), ("u", "v"))
    charts = [JetChart.make(b, f) for b, f in shapes]

    def holonomic_iso(rng):
        jc = rng.choice(charts)
        xi = _rand_ordinary_field(rng, jc, degree)
        eta = _rand_ordinary_field(rng, jc, degree)
        lhs = holonomic_part(_ordinary_bracket_on_jet(jc, xi, eta))
        rhs = prolongation_bracket(holonomic_part(xi), holonomic_part(eta))
        if not lhs.equals(rhs):
            return f"xi = {xi}; eta = {eta}; lhs = {lhs}; rhs = {rhs}"
        return None

    def bracket_identity(rng):
        # stated for projectable fields on E; their V images are jet-linear,
        # the class on which the bracket closes at first order
        jc = rng.choice(charts)
        xi = _rand_ordinary_field(rng, jc, degree)
        eta = _rand_ordinary_field(rng, jc, degree)
        lhs = prolongation_bracket(vertical_representative(xi),
                                   vertical_representative(eta))
        rhs = vertical_representative(prolongation_bracket(xi, eta)) + \
            obstruction_form(xi, eta)
        if not lhs.equals(rhs):
            return f"xi = {xi}; eta = {eta}"
        return None

    def antisymmetry(rng):
        jc = rng.choice(charts)
        picks = (lambda f: f, vertical_representative, holonomic_part)
        xi = rng.choice(picks)(_rand_ordinary_field(rng, jc, degree))
        eta = rng.choice(picks)(_rand_ordinary_field(rng, jc, degree))
        lhs = prolongation_bracket(xi, eta)
        rhs = prolongation_bracket(eta, xi)
        if not (lhs + rhs).is_zero():
            return f"xi = {xi}; eta = {eta}"
        return None

    def reduces_to_jl(rng):
        jc = rng.choice(charts)
        xi = _rand_ordinary_field(rng, jc, degree)
        eta = _rand_ordinary_field(rng, jc, degree)
        lhs = prolongation_bracket(xi, eta)
        rhs = _ordinary_bracket_on_jet(jc, xi, eta)
        if not lhs.equals(rhs):
            return f"xi = {xi}; eta = {eta}"
        return None

    def decomposition(rng):
        jc = rng.choice(charts)
        xi = _rand_generalized_field(rng, jc, degree)
        v, h = vertical_representative(xi), holonomic_part(xi)
        if not (v + h).equals(xi):
            return f"xi = {xi}"
        if not v.is_vertical():
            return f"V not vertical: {v}"
        if not holonomic_part(h).equals(h):
            return f"H not a projector on {xi}"
        return None

    checks = [
        ("holonomic-lift-isomorphism", holonomic_iso),
        ("vertical-bracket-identity", bracket_identity),
        ("prolongation-bracket-antisymmetry", antisymmetry),
        ("reduces-to-jacobi-lie", reduces_to_jl),
        ("holonomic-vertical-decomposition", decomposition),
    ]
    return _run_checks(report, checks, trials, seed)


# ---------------------------------------------------------------------------
# lifts

_BASE_CHARTS = [Chart.make("x"), Chart.make("x", "y"), Chart.make("x", "y", "z")]
_COT_CHARTS = [CotangentChart.make(c) for c in _BASE_CHARTS]


def _vf_equal(a: VectorField, b: VectorField) -> bool:
    return all(expr_equal(p, q) for p, q in zip(a.components, b.components))


def suite_lifts(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("lifts", trials, degree, seed)

    def bracket_homomorphism(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        Y = rand_vector_field(rng, cc.base, degree)
        lhs = complete_cotangent_lift(cc, jacobi_lie_bracket(X, Y))
        rhs = jacobi_lie_bracket(complete_cotangent_lift(cc, X),
                                 complete_cotangent_lift(cc, Y))
        if not _vf_equal(lhs, rhs):
            return f"X = {X}; Y = {Y}"
        return None

    def vertical_homomorphism(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        Y = rand_vector_field(rng, cc.base, degree)
        vxy, _ = lift_decomposition(cc, jacobi_lie_bracket(X, Y))
        vx, _ = lift_decomposition(cc, X)
        vy, _ = lift_decomposition(cc, Y)
        if not prolongation_bracket(vx, vy).equals(vxy):
            return f"X = {X}; Y = {Y}"
        return None

    def obstruction_vanishing(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        Y = rand_vector_field(rng, cc.base, degree)
        xi = as_generalized(cc, complete_cotangent_lift(cc, X))
        eta = as_generalized(cc, complete_cotangent_lift(cc, Y))
        b = obstruction_form(xi, eta)
        if not b.is_zero():
            return f"X = {X}; Y = {Y}; B = {b}"
        return None

    def momentum_generates(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        lhs = hamiltonian_vector_field(cc, momentum_function(cc, X))
        rhs = complete_cotangent_lift(cc, X)
        if not _vf_equal(lhs, rhs):
            return f"X = {X}"
        return None

    def preserves_theta(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        lied = lie_derivative_form(complete_cotangent_lift(cc, X),
                                   cc.tautological_form())
        if not lied.is_zero():
            return f"X = {X}; L theta = {lied}"
        return None

    def projection_compatible(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        lift = complete_cotangent_lift(cc, X)
        for a in range(cc.m):
            if not expr_equal(lift.components[a], X.components[a]):
                return f"X = {X}"
        return None

    checks = [
        ("cotangent-bracket-homomorphism", bracket_homomorphism),
        ("vertical-lift-homomorphism", vertical_homomorphism),
        ("obstruction-vanishing-on-lifts", obstruction_vanishing),
        ("momentum-function-generates-lift", momentum_generates),
        ("lift-preserves-tautological-form", preserves_theta),
        ("projection-compatibility", projection_compatible),
    ]
    return _run_checks(report, checks, trials, seed)


# ---------------------------------------------------------------------------
# Euler vector field

def suite_euler_field(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("euler-field", trials, degree, seed)

    def dilation_identities(rng):
        cc = rng.choice(_COT_CHARTS)
        xe = euler_vector_field(cc)
        omega, theta = cc.symplectic_form(), cc.tautological_form()
        if not (interior_product(xe, omega) - theta).is_zero():
            return "i_{X_E} Omega != theta"
        if not (lie_derivative_form(xe, omega) + omega).is_zero():
            return "L_{X_E} Omega != -Omega"
        if not (lie_derivative_form(xe, theta) + theta).is_zero():
            return "L_{X_E} theta != -theta"
        if any(c != ZERO for c in xe.components[:cc.m]):
            return "X_E is not vertical"
        return None

    def lift_bracket_vertical(rng):
        cc = rng.choice(_COT_CHARTS)
        X = rand_vector_field(rng, cc.base, degree)
        alpha = rand_one_form(rng, cc.base, degree)
        lhs = jacobi_lie_bracket(complete_cotangent_lift(cc, X),
                                 vertical_lift(cc, alpha))
        rhs = vertical_lift(cc, lie_derivative_form(X, alpha))
        if not _vf_equal(lhs, rhs):
            return f"X = {X}; alpha = {alpha}"
        return None

    def euler_composition(rng):
        cc = rng.choice(_COT_CHARTS)
        alpha = rand_one_form(rng, cc.base, degree)
        xe = euler_vector_field(cc)
        bind = {cc.fiber_var(a): alpha.coeff((a,)) for a in range(cc.m)}
        composed = [substitute(c, bind) for c in xe.components]
        lifted = vertical_lift(cc, alpha)
        for got, want in zip(composed, lifted.components):
            if not expr_equal(got, want):
                return f"alpha = {alpha}"
        return None

    checks = [
        ("euler-field-defining-identities", dilation_identities),
        ("lift-bracket-with-vertical-lift", lift_bracket_vertical),
        ("vertical-lift-via-euler-field", euler_composition),
    ]
    return _run_checks(report, checks, trials, seed)


# ---------------------------------------------------------------------------
# plasma

_PLASMA_CHARTS = [plasma_chart(1), plasma_chart(2)]


def _rand_params(rng, pc: CotangentChart, degree: int) -> PlasmaParams:
    mass = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    charge = Fraction(rng.choice((-2, -1, 0, 1, 2)))
    qvars = [pc.base_var(i) for i in range(pc.m)]
    return PlasmaParams(mass, charge, rand_poly(rng, qvars, degree, 2))


def _rand_plasma_momentum(rng, pc: CotangentChart, degree: int) -> PlasmaMomentum:
    allv = pc.full.vars
    return PlasmaMomentum(
        pc,
        tuple(rand_poly(rng, allv, degree, 2) for _ in range(pc.m)),
        tuple(rand_poly(rng, allv, degree, 2) for _ in range(pc.m)))


def _plasma_intertwining(rng, degree: int) -> str | None:
    """The plasma density of the Vlasov momentum rate is the density rate."""
    pc = rng.choice(_PLASMA_CHARTS)
    params = _rand_params(rng, pc, degree)
    pi = _rand_plasma_momentum(rng, pc, degree)
    lhs = plasma_density(vlasov_momentum_rhs(pi, params))
    rhs = vlasov_density_rhs(pc, plasma_density(pi), params)
    if not expr_equal(lhs, rhs):
        return f"Pi = {pi.down + pi.up}; params m={params.mass} e={params.charge} phi={params.phi}"
    return None


def suite_plasma(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("plasma", trials, degree, seed)

    def poisson_isomorphism(rng):
        pc = rng.choice(_PLASMA_CHARTS)
        h = rand_poly(rng, pc.full.vars, degree, 3)
        f = rand_poly(rng, pc.full.vars, degree, 3)
        lhs = jacobi_lie_bracket(hamiltonian_vector_field(pc, h),
                                 hamiltonian_vector_field(pc, f))
        rhs = hamiltonian_vector_field(pc, canonical_poisson(pc, h, f)).scaled(-1)
        if not _vf_equal(lhs, rhs):
            return f"h = {h}; f = {f}"
        return None

    def hamiltonian_div_free(rng):
        pc = rng.choice(_PLASMA_CHARTS)
        h = rand_poly(rng, pc.full.vars, degree, 3)
        div = divergence(hamiltonian_vector_field(pc, h), VolumeForm.standard(pc.full))
        if not expr_equal(div, ZERO):
            return f"h = {h}; div = {div}"
        return None

    def momentum_matches_coadjoint(rng):
        pc = rng.choice(_PLASMA_CHARTS)
        params = _rand_params(rng, pc, degree)
        pi = _rand_plasma_momentum(rng, pc, degree)
        rate = vlasov_momentum_rhs(pi, params)
        X_h = hamiltonian_vector_field(pc, plasma_hamiltonian(pc, params))
        md = MomentumDensity(pi.as_one_form(), VolumeForm.standard(pc.full))
        coad = lie_poisson_rhs(X_h, md)
        got = rate.down + rate.up
        for a in range(2 * pc.m):
            if not expr_equal(got[a], coad.coeff((a,))):
                return f"Pi = {pi.down + pi.up}; params m={params.mass} e={params.charge} phi={params.phi}"
        return None

    checks = [
        ("poisson-bracket-isomorphism", poisson_isomorphism),
        ("hamiltonian-fields-divergence-free", hamiltonian_div_free),
        ("momentum-rhs-matches-coadjoint", momentum_matches_coadjoint),
        ("plasma-density-intertwining", lambda rng: _plasma_intertwining(rng, degree)),
    ]
    return _run_checks(report, checks, trials, seed)


# ---------------------------------------------------------------------------
# contact

_CS = ContactStructure.standard()


def _contact_intertwining(rng, degree: int) -> str | None:
    """The contact density of the momentum rate is the density rate."""
    cs = _CS
    alpha = rand_one_form(rng, cs.chart, degree)
    K = rand_poly(rng, cs.chart.vars, degree, 3)
    lhs = contact_density(cs, contact_momentum_rhs(cs, alpha, K))
    rhs = contact_density_rhs(cs, contact_density(cs, alpha), K)
    if not expr_equal(lhs, rhs):
        return f"alpha = {alpha}; K = {K}"
    return None


def suite_contact(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("contact", trials, degree, seed)
    cs = _CS
    dsigma = exterior_derivative(cs.sigma)

    def contact_identities(rng):
        K = rand_poly(rng, cs.chart.vars, degree, 3)
        X = contact_vector_field(cs, K)
        if not expr_equal(pointwise_pairing(cs.sigma, X), canon(K * -1)):
            return f"K = {K}: i_X sigma != -K"
        want = one_form(cs.chart, tuple(partial(K, v) for v in cs.chart.vars)) \
            - cs.sigma.scaled(partial(K, cs.z))
        if not (interior_product(X, dsigma) - want).is_zero():
            return f"K = {K}: i_X dsigma != dK - (R K) sigma"
        return None

    def divergence_formula(rng):
        K = rand_poly(rng, cs.chart.vars, degree, 3)
        div = divergence(contact_vector_field(cs, K), cs.vol)
        if not expr_equal(div, canon(partial(K, cs.z) * -2)):
            return f"K = {K}; div = {div}"
        return None

    def bracket_antihomomorphism(rng):
        K = rand_poly(rng, cs.chart.vars, degree, 3)
        L = rand_poly(rng, cs.chart.vars, degree, 3)
        lhs = jacobi_lie_bracket(contact_vector_field(cs, K),
                                 contact_vector_field(cs, L))
        rhs = contact_vector_field(cs, contact_bracket(cs, K, L)).scaled(-1)
        if not _vf_equal(lhs, rhs):
            return f"K = {K}; L = {L}"
        return None

    def density_wedge(rng):
        alpha = rand_one_form(rng, cs.chart, degree)
        L = contact_density(cs, alpha)
        lhs = wedge(exterior_derivative(alpha), cs.sigma) - \
            wedge(alpha, dsigma).scaled(2)
        if not expr_equal(lhs.coeff((0, 1, 2)), L):
            return f"alpha = {alpha}"
        return None

    def dual_path(rng):
        alpha = rand_one_form(rng, cs.chart, degree)
        K = rand_poly(rng, cs.chart.vars, degree, 3)
        a = contact_momentum_rhs(cs, alpha, K)
        b = contact_momentum_rhs_via_lift(cs, alpha, K)
        if not (a - b).is_zero():
            return f"alpha = {alpha}; K = {K}"
        return None

    checks = [
        ("contact-field-defining-identities", contact_identities),
        ("contact-divergence-is--2Kz", divergence_formula),
        ("contact-bracket-antihomomorphism", bracket_antihomomorphism),
        ("density-wedge-consistency", density_wedge),
        ("momentum-rhs-dual-path-equality", dual_path),
        ("contact-density-intertwining", lambda rng: _contact_intertwining(rng, degree)),
    ]
    return _run_checks(report, checks, trials, seed)


# ---------------------------------------------------------------------------
# intertwining (both momentum maps, heavier sampling)

def suite_intertwining(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("intertwining", trials, degree, seed)
    checks = [
        ("contact-momentum-map-intertwining",
         lambda rng: _contact_intertwining(rng, degree)),
        ("plasma-momentum-map-intertwining",
         lambda rng: _plasma_intertwining(rng, degree)),
    ]
    return _run_checks(report, checks, trials, seed)


# ---------------------------------------------------------------------------
# weak operator probes under torus quadrature

def _window(cs: ContactStructure) -> Expr:
    """((1 - cos x)/2)^4: kills x-seam boundary terms to high order."""
    x = Var(cs.x)
    return ((1 - Call("cos", x)) / 2) ** 4


def _windowed_trig(rng, cs: ContactStructure, window: Expr) -> Expr:
    return canon(window * rand_trig_poly(rng, cs.chart.vars, terms=2, max_freq=2))


def _probe_quadrature(cs: ContactStructure, e: Expr, grid: Grid) -> float:
    var_axes = {v: i for i, v in enumerate(cs.chart.vars)}
    # the x coefficient is aperiodic, but every probe integrand carries the
    # seam window, so the sampled function is continuous across the seam
    values = discretize(e, grid, var_axes, allow_aperiodic=True)
    return quadrature(values, grid.h, grid.dim)


def suite_operators_weak(trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport("operators-weak", trials, degree, seed,
                         informational=True)
    cs = _CS
    grid = Grid(3, WEAK_PROBE_N)
    w = _window(cs)
    names = ("pairing-duality", "momentum-operator-weak",
             "momentum-display-sign", "density-operator-weak",
             "operator-relation")
    # per check, one (a, b) pair per probe: its residual is rel(a, b) and
    # its sign-flipped residual rel(a, -b)
    pairs: dict[str, list[tuple[float, float]]] = {n: [] for n in names}
    rng = random.Random(f"{seed}:operators-weak")

    def rel(a: float, b: float) -> float:
        return abs(a - b) / (1.0 + max(abs(a), abs(b)))

    for _ in range(trials):
        H = _windowed_trig(rng, cs, w)
        K = _windowed_trig(rng, cs, w)
        alpha = one_form(cs.chart, tuple(_windowed_trig(rng, cs, w) for _ in range(3)))
        L = contact_density(cs, alpha)
        X_H = contact_vector_field(cs, H)
        X_K = contact_vector_field(cs, K)

        # <alpha, X_K> integrates to K against the density
        i1 = _probe_quadrature(cs, pointwise_pairing(alpha, X_K), grid)
        i2 = _probe_quadrature(cs, canon(K * L), grid)
        pairs["pairing-duality"].append((i1, i2))

        # momentum-layer operator: int <X_H, J(alpha) X_K> against the
        # Lie-Poisson bracket -int <alpha, [X_H, X_K]>
        jx = hamiltonian_operator_momentum(cs, alpha, X_K)
        pair_j = _probe_quadrature(cs, pointwise_pairing(jx, X_H), grid)
        pair_br = _probe_quadrature(
            cs, pointwise_pairing(alpha, jacobi_lie_bracket(X_H, X_K)), grid)
        pairs["momentum-operator-weak"].append((pair_j, -pair_br))
        # the defining display writes a minus in front of both integrals;
        # taken verbatim the two sides differ by exactly that overall sign
        pairs["momentum-display-sign"].append((-pair_j, -pair_br))

        # density-layer operator against the density Lie-Poisson bracket
        d1 = _probe_quadrature(cs, canon(H * hamiltonian_operator_density(cs, L, K)), grid)
        d2 = _probe_quadrature(cs, canon(L * contact_bracket(cs, H, K)), grid)
        pairs["density-operator-weak"].append((d1, d2))

        # relation between the two printed operators
        pairs["operator-relation"].append((d1, -pair_j))

    for name in names:
        rs = [rel(a, b) for a, b in pairs[name]]
        flipped = max(rel(a, -b) for a, b in pairs[name])
        flagged = max(rs) > WEAK_PROBE_TOL
        note = None
        if flagged and flipped <= WEAK_PROBE_TOL:
            note = (f"sign-flipped residual {flipped:.3e}: the two "
                    "sides agree up to an overall sign")
        report.results.append(CheckResult(name, trials, True,
                                          residuals=rs, flagged=flagged,
                                          note=note))
    return report


SUITES: dict[str, Callable[[int, int, int], SuiteReport]] = {
    "jets": suite_jets,
    "lifts": suite_lifts,
    "euler-field": suite_euler_field,
    "plasma": suite_plasma,
    "contact": suite_contact,
    "intertwining": suite_intertwining,
    "operators-weak": suite_operators_weak,
}


def run_suite(name: str, trials: int = 20, degree: int = 3,
              seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'; choose from {sorted(SUITES)}")
    start, stats = time.perf_counter(), kernel_stats()
    report = SUITES[name](trials, degree, seed)
    report.seconds = time.perf_counter() - start
    report.kernel = _kernel_delta(stats)
    return report
