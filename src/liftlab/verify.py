"""Seeded randomized verification suites behind `liftlab verify`.

Every suite is a row of ``CHECKS``: named checks ``check(rng, degree)``
that draw an instance of a symbolic identity and return ``(drawn, lhs,
rhs)``: what they drew, by name, and the two sides of the identity (tuples
when it has parts).  The runner alone decides, by ``lhs == rhs``: nodes are
interned and every field, form and returned expression is canonical, so a
side left uncanonical can fail a check but never pass a false one.  A check
runs on its own rng until its first failure, which lists what it drew; one
that raises an ``ExprError`` fails with the error.

The operators-weak suite decides the printed Hamiltonian operators in weak
form: the integrals of A[H] and B[H] agree for every compactly supported
test function H exactly when the formal adjoints of A and B agree
pointwise, and ``geometry.formal_adjoint`` computes those exactly, with no
quadrature and no boundary term.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .expr import (
    Expr, ExprError, ZERO, canonicalize, kernel_stats, partial, scope, substitute,
)
from .geometry import (
    Chart, DifferentialForm, VectorField, VolumeForm, divergence,
    exterior_derivative, formal_adjoint, interior_product,
    jacobi_lie_bracket, lie_derivative_form, one_form, pointwise_pairing,
    wedge,
)
from .jets import (
    GeneralizedVectorField, JetChart, holonomic_part,
    obstruction_form, prolongation_bracket, vertical_representative,
)
from .kinetics import (
    ContactStructure, PlasmaParams,
    contact_bracket, contact_density, contact_density_rhs, contact_vector_field,
    hamiltonian_operator_density, hamiltonian_operator_momentum,
    lie_poisson_rhs, momentum_rhs_via_lift, plasma_chart,
    plasma_density, plasma_hamiltonian, vlasov_density_rhs,
    vlasov_momentum_rhs,
)
from .lifts import (
    CotangentChart, as_generalized, canonical_poisson,
    complete_cotangent_lift, euler_vector_field, hamiltonian_vector_field,
    lift_decomposition, momentum_function, vertical_lift,
)
from .samplers import rand_one_form, rand_poly, rand_vector_field

__all__ = ["SuiteReport", "CheckResult", "run_suite", "SUITES"]

Instance = tuple[dict[str, object], object, object]     # (drawn, lhs, rhs)
Check = Callable[[random.Random, int], Instance]


@dataclass
class CheckResult:
    """One check's outcome: the trials it ran, whether ``lhs == rhs`` held
    in all of them, and else what the first failing trial drew.  The runner
    sets ``seconds`` and ``kernel``, the change of ``expr.kernel_stats()``
    while the check ran."""

    name: str
    trials: int
    passed: bool
    counterexample: str | None = None
    seconds: float | None = None
    kernel: dict[str, int] | None = None


@dataclass
class SuiteReport:
    suite: str
    trials: int
    degree: int
    seed: int
    results: list[CheckResult] = field(default_factory=list)
    seconds: float | None = None
    kernel: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def render(self) -> str:
        lines = [f"suite: {self.suite}  trials={self.trials} "
                 f"degree={self.degree} seed={self.seed}"]
        for r in self.results:
            tag = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{tag}] {r.name} ({r.trials} trials)")
            if r.counterexample:
                lines.append(f"         counterexample: {r.counterexample}")
        lines.append(f"RESULT: {self.verdict}")
        return "\n".join(lines)


def _run_checks(name: str, trials: int, degree: int, seed: int) -> SuiteReport:
    report = SuiteReport(name, trials, degree, seed)
    for check_name, check in CHECKS[name]:
        rng = random.Random(f"{seed}:{check_name}")
        failure = None
        done = 0
        start, stats = time.perf_counter(), kernel_stats()
        for _ in range(trials):
            done += 1
            # a trial gives back the nodes it made: it keeps only text, and
            # a failure is formatted before the scope drops its nodes
            with scope():
                try:
                    drawn, lhs, rhs = check(rng, degree)
                    if lhs != rhs:
                        failure = "; ".join(f"{k} = {v}" for k, v in drawn.items())
                except ExprError as exc:
                    failure = f"{type(exc).__name__}: {exc}"
            if failure:
                break
        report.results.append(CheckResult(
            check_name, done, failure is None, failure,
            seconds=time.perf_counter() - start, kernel=_kernel_delta(stats)))
    return report


def _kernel_delta(before: dict[str, int]) -> dict[str, int]:
    return {k: v - before[k] for k, v in kernel_stats().items()}


# ---------------------------------------------------------------------------
# jets

_JET_CHARTS = [JetChart.make(("x",), ("u",)), JetChart.make(("x", "y"), ("u", "v"))]


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


def _holonomic_iso(rng, degree: int) -> Instance:
    jc = rng.choice(_JET_CHARTS)
    xi = _rand_ordinary_field(rng, jc, degree)
    eta = _rand_ordinary_field(rng, jc, degree)
    H = holonomic_part
    return ({"xi": xi, "eta": eta}, H(_ordinary_bracket_on_jet(jc, xi, eta)),
            prolongation_bracket(H(xi), H(eta)))


def _bracket_identity(rng, degree: int) -> Instance:
    # stated for projectable fields on E; their V images are jet-linear,
    # the class on which the bracket closes at first order
    jc = rng.choice(_JET_CHARTS)
    xi = _rand_ordinary_field(rng, jc, degree)
    eta = _rand_ordinary_field(rng, jc, degree)
    V = vertical_representative
    return ({"xi": xi, "eta": eta}, prolongation_bracket(V(xi), V(eta)),
            V(prolongation_bracket(xi, eta)) + obstruction_form(xi, eta))


def _antisymmetry(rng, degree: int) -> Instance:
    jc = rng.choice(_JET_CHARTS)
    picks = (lambda f: f, vertical_representative, holonomic_part)
    xi = rng.choice(picks)(_rand_ordinary_field(rng, jc, degree))
    eta = rng.choice(picks)(_rand_ordinary_field(rng, jc, degree))
    return ({"xi": xi, "eta": eta},
            prolongation_bracket(xi, eta) + prolongation_bracket(eta, xi),
            GeneralizedVectorField(jc, (ZERO,) * jc.m, (ZERO,) * jc.k))


def _reduces_to_jl(rng, degree: int) -> Instance:
    jc = rng.choice(_JET_CHARTS)
    xi = _rand_ordinary_field(rng, jc, degree)
    eta = _rand_ordinary_field(rng, jc, degree)
    return ({"xi": xi, "eta": eta}, prolongation_bracket(xi, eta),
            _ordinary_bracket_on_jet(jc, xi, eta))


def _decomposition(rng, degree: int) -> Instance:
    """xi = V xi + H xi, with V xi vertical and H a projector."""
    jc = rng.choice(_JET_CHARTS)
    xi = _rand_generalized_field(rng, jc, degree)
    v, h = vertical_representative(xi), holonomic_part(xi)
    return ({"xi": xi}, (v + h, v.base_components, holonomic_part(h)),
            (xi, (ZERO,) * jc.m, h))


# ---------------------------------------------------------------------------
# lifts

_BASE_CHARTS = [Chart.make("x"), Chart.make("x", "y"), Chart.make("x", "y", "z")]
_COT_CHARTS = [CotangentChart.make(c) for c in _BASE_CHARTS]


def _bracket_homomorphism(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    Y = rand_vector_field(rng, cc.base, degree)
    return ({"X": X, "Y": Y},
            complete_cotangent_lift(cc, jacobi_lie_bracket(X, Y)),
            jacobi_lie_bracket(complete_cotangent_lift(cc, X),
                               complete_cotangent_lift(cc, Y)))


def _vertical_homomorphism(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    Y = rand_vector_field(rng, cc.base, degree)
    vxy, vx, vy = (lift_decomposition(cc, F)[0] for F in (jacobi_lie_bracket(X, Y), X, Y))
    return {"X": X, "Y": Y}, prolongation_bracket(vx, vy), vxy


def _obstruction_vanishing(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    Y = rand_vector_field(rng, cc.base, degree)
    xi, eta = (as_generalized(cc, complete_cotangent_lift(cc, F)) for F in (X, Y))
    jc = xi.jet_chart
    return ({"X": X, "Y": Y}, obstruction_form(xi, eta),
            GeneralizedVectorField(jc, (ZERO,) * jc.m, (ZERO,) * jc.k))


def _momentum_generates(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    return ({"X": X}, hamiltonian_vector_field(cc, momentum_function(cc, X)),
            complete_cotangent_lift(cc, X))


def _preserves_theta(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    return ({"X": X},
            lie_derivative_form(complete_cotangent_lift(cc, X), cc.tautological_form()),
            DifferentialForm(cc.full, 1))


def _projection_compatible(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    return {"X": X}, complete_cotangent_lift(cc, X).components[:cc.m], X.components


# ---------------------------------------------------------------------------
# Euler vector field

def _dilation_identities(rng, degree: int) -> Instance:
    """i_{X_E} Omega = theta, L_{X_E} Omega = -Omega, L_{X_E} theta = -theta."""
    cc = rng.choice(_COT_CHARTS)
    xe = euler_vector_field(cc)
    omega, theta = cc.symplectic_form(), cc.tautological_form()
    return ({"chart": cc.full},
            (interior_product(xe, omega), lie_derivative_form(xe, omega),
             lie_derivative_form(xe, theta), xe.components[:cc.m]),   # X_E vertical
            (theta, omega.scaled(-1), theta.scaled(-1), (ZERO,) * cc.m))


def _lift_bracket_vertical(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    X = rand_vector_field(rng, cc.base, degree)
    alpha = rand_one_form(rng, cc.base, degree)
    return ({"X": X, "alpha": alpha},
            jacobi_lie_bracket(complete_cotangent_lift(cc, X), vertical_lift(cc, alpha)),
            vertical_lift(cc, lie_derivative_form(X, alpha)))


def _euler_composition(rng, degree: int) -> Instance:
    cc = rng.choice(_COT_CHARTS)
    alpha = rand_one_form(rng, cc.base, degree)
    bind = {cc.fiber_var(a): alpha.coeff((a,)) for a in range(cc.m)}
    composed = tuple(substitute(c, bind) for c in euler_vector_field(cc).components)
    return {"alpha": alpha}, composed, vertical_lift(cc, alpha).components


# ---------------------------------------------------------------------------
# plasma

_PLASMA_CHARTS = [plasma_chart(1), plasma_chart(2)]


def _rand_plasma(rng, degree: int) -> tuple:
    """(chart, params, Pi, drawn): a plasma chart, parameters and momentum."""
    pc = rng.choice(_PLASMA_CHARTS)
    mass = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    charge = Fraction(rng.choice((-2, -1, 0, 1, 2)))
    params = PlasmaParams(mass, charge, rand_poly(rng, pc.full.vars[:pc.m], degree, 2))
    pi = rand_one_form(rng, pc.full, degree)
    return pc, params, pi, {"Pi": pi, "m": mass, "e": charge, "phi": params.phi}


def _poisson_isomorphism(rng, degree: int) -> Instance:
    pc = rng.choice(_PLASMA_CHARTS)
    h = rand_poly(rng, pc.full.vars, degree, 3)
    f = rand_poly(rng, pc.full.vars, degree, 3)
    X_h, X_f = hamiltonian_vector_field(pc, h), hamiltonian_vector_field(pc, f)
    return ({"h": h, "f": f}, jacobi_lie_bracket(X_h, X_f),
            hamiltonian_vector_field(pc, canonical_poisson(pc, h, f)).scaled(-1))


def _hamiltonian_div_free(rng, degree: int) -> Instance:
    pc = rng.choice(_PLASMA_CHARTS)
    h = rand_poly(rng, pc.full.vars, degree, 3)
    X_h = hamiltonian_vector_field(pc, h)
    return {"h": h}, divergence(X_h, VolumeForm.standard(pc.full)), ZERO


def _momentum_matches_coadjoint(rng, degree: int) -> Instance:
    pc, params, pi, drawn = _rand_plasma(rng, degree)
    X_h = hamiltonian_vector_field(pc, plasma_hamiltonian(pc, params))
    return (drawn, vlasov_momentum_rhs(pc, pi, params),
            lie_poisson_rhs(X_h, pi, VolumeForm.standard(pc.full)))


def _momentum_via_lift(rng, degree: int) -> Instance:
    """The lift of X_h is the displayed Vlasov momentum equations."""
    pc, params, pi, drawn = _rand_plasma(rng, degree)
    X_h = hamiltonian_vector_field(pc, plasma_hamiltonian(pc, params))
    return (drawn, momentum_rhs_via_lift(X_h, pi, VolumeForm.standard(pc.full)),
            vlasov_momentum_rhs(pc, pi, params))


def _plasma_intertwining(rng, degree: int) -> Instance:
    """The plasma density of the Vlasov momentum rate is the density rate."""
    pc, params, pi, drawn = _rand_plasma(rng, degree)
    return (drawn, plasma_density(pc, vlasov_momentum_rhs(pc, pi, params)),
            vlasov_density_rhs(pc, plasma_density(pc, pi), params))


# ---------------------------------------------------------------------------
# contact

_CS = ContactStructure.standard()
_DSIGMA = exterior_derivative(_CS.sigma)


def _contact_identities(rng, degree: int) -> Instance:
    """i_X sigma = -K and i_X dsigma = dK - (R K) sigma."""
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    X = contact_vector_field(_CS, K)
    dK = one_form(_CS.chart, tuple(partial(K, v) for v in _CS.chart.vars))
    return ({"K": K},
            (pointwise_pairing(_CS.sigma, X), interior_product(X, _DSIGMA)),
            (canonicalize(K * -1), dK - _CS.sigma.scaled(partial(K, _CS.z))))


def _divergence_formula(rng, degree: int) -> Instance:
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    return ({"K": K}, divergence(contact_vector_field(_CS, K), _CS.vol),
            canonicalize(partial(K, _CS.z) * -2))


def _bracket_antihomomorphism(rng, degree: int) -> Instance:
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    L = rand_poly(rng, _CS.chart.vars, degree, 3)
    return ({"K": K, "L": L},
            jacobi_lie_bracket(contact_vector_field(_CS, K), contact_vector_field(_CS, L)),
            contact_vector_field(_CS, contact_bracket(_CS, K, L)).scaled(-1))


def _density_wedge(rng, degree: int) -> Instance:
    alpha = rand_one_form(rng, _CS.chart, degree)
    L = contact_density(_CS, alpha)
    lhs = wedge(exterior_derivative(alpha), _CS.sigma) - \
        wedge(alpha, _DSIGMA).scaled(2)
    return {"alpha": alpha}, lhs.coeff((0, 1, 2)), L


def _dual_path(rng, degree: int) -> Instance:
    alpha = rand_one_form(rng, _CS.chart, degree)
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    X_K = contact_vector_field(_CS, K)
    return ({"alpha": alpha, "K": K}, lie_poisson_rhs(X_K, alpha, _CS.vol),
            momentum_rhs_via_lift(X_K, alpha, _CS.vol))


def _contact_intertwining(rng, degree: int) -> Instance:
    """The contact density of the momentum rate is the density rate."""
    alpha = rand_one_form(rng, _CS.chart, degree)
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    rate = lie_poisson_rhs(contact_vector_field(_CS, K), alpha, _CS.vol)
    return ({"alpha": alpha, "K": K}, contact_density(_CS, rate),
            contact_density_rhs(_CS, contact_density(_CS, alpha), K))


# ---------------------------------------------------------------------------
# the printed Hamiltonian operators in weak form: an integral identity for
# every test function H is an equality of formal adjoints in H

def _adjoint(D: Callable[[Expr], Expr]) -> Expr:
    return formal_adjoint(_CS.chart, D)


def _pairing_duality(rng, degree: int) -> Instance:
    """<alpha, X_K> integrates to K against the contact density."""
    alpha = rand_one_form(rng, _CS.chart, degree)
    return ({"alpha": alpha},
            _adjoint(lambda K: pointwise_pairing(alpha, contact_vector_field(_CS, K))),
            contact_density(_CS, alpha))


def _momentum_pairings(alpha: DifferentialForm, K: Expr) -> tuple:
    """The two sides of the printed momentum display as operators on H:
    H -> <J(alpha) X_K, X_H> for the printed operator J, and the
    Lie-Poisson side H -> -<alpha, [X_H, X_K]>."""
    X_K = contact_vector_field(_CS, K)
    J = hamiltonian_operator_momentum(_CS, alpha, X_K)
    return (lambda H: pointwise_pairing(J, contact_vector_field(_CS, H)),
            lambda H: canonicalize(pointwise_pairing(
                alpha, jacobi_lie_bracket(contact_vector_field(_CS, H), X_K)) * -1))


def _momentum_operator_weak(rng, degree: int) -> Instance:
    alpha = rand_one_form(rng, _CS.chart, degree)
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    operator, bracket = _momentum_pairings(alpha, K)
    return {"alpha": alpha, "K": K}, _adjoint(operator), _adjoint(bracket)


def _momentum_display_sign(rng, degree: int) -> Instance:
    """The display as printed, with a minus in front of both integrals,
    holds up to an overall minus."""
    alpha = rand_one_form(rng, _CS.chart, degree)
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    operator, bracket = _momentum_pairings(alpha, K)
    return ({"alpha": alpha, "K": K}, _adjoint(lambda H: canonicalize(operator(H) * -1)),
            canonicalize(_adjoint(bracket) * -1))


def _density_operator_weak(rng, degree: int) -> Instance:
    """The printed density operator less the adjoint of H -> L {H, K} is
    L_z (K_z - K): the printed L_z K_z where L_z K is consistent."""
    alpha = rand_one_form(rng, _CS.chart, degree)
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    L = contact_density(_CS, alpha)
    weak = _adjoint(lambda H: canonicalize(L * contact_bracket(_CS, H, K)))
    return ({"alpha": alpha, "K": K},
            canonicalize(hamiltonian_operator_density(_CS, L, K) - weak),
            canonicalize(partial(L, _CS.z) * (partial(K, _CS.z) - K)))


def _operator_relation(rng, degree: int) -> Instance:
    """The consistent density operator meets the momentum operator, with
    the sign of the printed display flipped."""
    alpha = rand_one_form(rng, _CS.chart, degree)
    K = rand_poly(rng, _CS.chart.vars, degree, 3)
    operator, _ = _momentum_pairings(alpha, K)
    return ({"alpha": alpha, "K": K},
            contact_density_rhs(_CS, contact_density(_CS, alpha), K), _adjoint(operator))


# ---------------------------------------------------------------------------
# the suites: each a row of named checks, in report order

CHECKS: dict[str, tuple[tuple[str, Check], ...]] = {
    "jets": (
        ("holonomic-lift-isomorphism", _holonomic_iso),
        ("vertical-bracket-identity", _bracket_identity),
        ("prolongation-bracket-antisymmetry", _antisymmetry),
        ("reduces-to-jacobi-lie", _reduces_to_jl),
        ("holonomic-vertical-decomposition", _decomposition),
    ),
    "lifts": (
        ("cotangent-bracket-homomorphism", _bracket_homomorphism),
        ("vertical-lift-homomorphism", _vertical_homomorphism),
        ("obstruction-vanishing-on-lifts", _obstruction_vanishing),
        ("momentum-function-generates-lift", _momentum_generates),
        ("lift-preserves-tautological-form", _preserves_theta),
        ("projection-compatibility", _projection_compatible),
    ),
    "euler-field": (
        ("euler-field-defining-identities", _dilation_identities),
        ("lift-bracket-with-vertical-lift", _lift_bracket_vertical),
        ("vertical-lift-via-euler-field", _euler_composition),
    ),
    "plasma": (
        ("poisson-bracket-isomorphism", _poisson_isomorphism),
        ("hamiltonian-fields-divergence-free", _hamiltonian_div_free),
        ("momentum-rhs-matches-coadjoint", _momentum_matches_coadjoint),
        ("plasma-density-intertwining", _plasma_intertwining),
        ("momentum-rhs-via-lift", _momentum_via_lift),
    ),
    "contact": (
        ("contact-field-defining-identities", _contact_identities),
        ("contact-divergence-is--2Kz", _divergence_formula),
        ("contact-bracket-antihomomorphism", _bracket_antihomomorphism),
        ("density-wedge-consistency", _density_wedge),
        ("momentum-rhs-dual-path-equality", _dual_path),
        ("contact-density-intertwining", _contact_intertwining),
    ),
    # both momentum maps
    "intertwining": (
        ("contact-momentum-map-intertwining", _contact_intertwining),
        ("plasma-momentum-map-intertwining", _plasma_intertwining),
    ),
    "operators-weak": (
        ("pairing-duality", _pairing_duality),
        ("momentum-operator-weak", _momentum_operator_weak),
        ("momentum-display-sign", _momentum_display_sign),
        ("density-operator-weak", _density_operator_weak),
        ("operator-relation", _operator_relation),
    ),
}


SUITES: tuple[str, ...] = tuple(CHECKS)


def run_suite(name: str, trials: int = 20, degree: int = 3,
              seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'; choose from {sorted(SUITES)}")
    start, stats = time.perf_counter(), kernel_stats()
    report = _run_checks(name, trials, degree, seed)
    report.seconds = time.perf_counter() - start
    report.kernel = _kernel_delta(stats)
    return report
