"""Verification-suite machinery and reports."""

import random
import re

import pytest

from liftlab import verify
from liftlab.expr import ZERO, Expr, Var, canonicalize, partial, scope
from liftlab.geometry import DifferentialForm, VectorField, jacobi_lie_bracket
from liftlab.jets import (
    GeneralizedVectorField, prolong1, prolongation_bracket, vertical_representative,
)
from liftlab.kinetics import (
    contact_density, contact_vector_field, hamiltonian_operator_momentum,
    lie_poisson_rhs, momentum_rhs_via_lift, vlasov_momentum_rhs,
)
from liftlab.lifts import complete_cotangent_lift, euler_vector_field, hamiltonian_vector_field
from liftlab.verify import SUITES, run_suite


@pytest.mark.parametrize("name", ["jets", "lifts", "euler-field", "plasma",
                                  "contact", "intertwining", "operators-weak"])
def test_exact_suites_pass(name):
    report = run_suite(name, trials=4, degree=2, seed=11)
    assert report.ok, report.render()
    assert all(r.passed for r in report.results)
    assert f"suite: {name}" in report.render()


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("does-not-exist")


def test_suite_names_match_cli_contract():
    assert set(SUITES) == {"jets", "lifts", "euler-field", "plasma",
                           "contact", "intertwining", "operators-weak"}


def test_reports_are_seed_deterministic():
    a = run_suite("contact", trials=3, degree=2, seed=9).render()
    b = run_suite("contact", trials=3, degree=2, seed=9).render()
    assert a == b


def test_operators_weak_decides_the_printed_displays():
    # the printed displays are off by exact, nonzero defects: the momentum
    # display's two sides are negatives of each other, not equal, and the
    # density operator exceeds the weak one by L_z (K_z - K)
    for check in (verify._momentum_display_sign, verify._density_operator_weak):
        with scope():
            _, lhs, rhs = check(random.Random(1), 3)
            assert lhs == rhs != ZERO


# The reports that the benchmark's gate does not pin (it pins jets, lifts
# and contact at seeds 0-2), at seed 0, 2 trials, degree 3.
PINNED_REPORTS = {
    "euler-field": """\
suite: euler-field  trials=2 degree=3 seed=0
  [PASS] euler-field-defining-identities (2 trials)
  [PASS] lift-bracket-with-vertical-lift (2 trials)
  [PASS] vertical-lift-via-euler-field (2 trials)
RESULT: PASS""",
    "plasma": """\
suite: plasma  trials=2 degree=3 seed=0
  [PASS] poisson-bracket-isomorphism (2 trials)
  [PASS] hamiltonian-fields-divergence-free (2 trials)
  [PASS] momentum-rhs-matches-coadjoint (2 trials)
  [PASS] plasma-density-intertwining (2 trials)
  [PASS] momentum-rhs-via-lift (2 trials)
RESULT: PASS""",
    "intertwining": """\
suite: intertwining  trials=2 degree=3 seed=0
  [PASS] contact-momentum-map-intertwining (2 trials)
  [PASS] plasma-momentum-map-intertwining (2 trials)
RESULT: PASS""",
    "operators-weak": """\
suite: operators-weak  trials=2 degree=3 seed=0
  [PASS] pairing-duality (2 trials)
  [PASS] momentum-operator-weak (2 trials)
  [PASS] momentum-display-sign (2 trials)
  [PASS] density-operator-weak (2 trials)
  [PASS] operator-relation (2 trials)
RESULT: PASS""",
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_is_pinned(name):
    assert run_suite(name, trials=2, degree=3, seed=0).render() == PINNED_REPORTS[name]


# ---------------------------------------------------------------------------
# planted faults: each row replaces one function where verify reads it and
# names the checks that must then fail

def _plus_first_base_coordinate(pc, h):
    """X_h + q^1 d/dq^1, whose divergence is 1."""
    X = hamiltonian_vector_field(pc, h)
    return VectorField(X.chart, (X.components[0] + Var(pc.base_var(0)), *X.components[1:]))


def _without_fiber_term(pc, pi):
    """The plasma density dPi^i/dq^i without its -dPi_i/dp_i term."""
    return canonicalize(sum((partial(pi.coeff((pc.m + i,)), pc.base_var(i)) for i in range(pc.m)),
                            ZERO))


def _times(c, f):
    """``f`` with its result, a field, form or expression, multiplied by c."""
    def faulty(*args):
        out = f(*args)
        if isinstance(out, Expr):
            return canonicalize(out * c)
        if isinstance(out, GeneralizedVectorField):
            return GeneralizedVectorField(out.jet_chart,
                                          tuple(x * c for x in out.base_components),
                                          tuple(x * c for x in out.fiber_components))
        return out.scaled(c)
    return faulty


def _density_operator_with_2L(cs, L, K):
    """The printed density operator with 2L where it has 4L."""
    kz = partial(K, cs.z)
    return canonicalize(contact_vector_field(cs, L).apply(K) + (L * 2 + partial(L, cs.z)) * kz)


def _fiber_negated_lift(cc, X):
    """X^{c*} with the sign of its fiber components flipped."""
    lift = complete_cotangent_lift(cc, X)
    return VectorField(lift.chart, (*lift.components[:cc.m],
                                    *(c * -1 for c in lift.components[cc.m:])))


def _obstruction_without_holonomic_parts(xi, eta):
    """[eta, V xi] - [xi, V eta]: B with the holonomic projection dropped."""
    return prolongation_bracket(eta, vertical_representative(xi)) - \
        prolongation_bracket(xi, vertical_representative(eta))


def _bracket_reading_pr1_xi_twice(xi, eta):
    """The prolongation bracket with pr1(xi) read where pr1(eta) belongs."""
    p = prolong1(xi)
    return GeneralizedVectorField(
        xi.jet_chart,
        tuple(p.apply(b) - p.apply(a) for a, b in zip(xi.base_components, eta.base_components)),
        tuple(p.apply(b) - p.apply(a) for a, b in zip(xi.fiber_components, eta.fiber_components)))


PLANTED_FAULTS = {
    "divergent-hamiltonian-field": ("hamiltonian_vector_field", _plus_first_base_coordinate,
                                    {"hamiltonian-fields-divergence-free"}),
    "plasma-density-without-fiber-term": ("plasma_density", _without_fiber_term,
                                          {"plasma-density-intertwining",
                                           "plasma-momentum-map-intertwining"}),
    "negated-jacobi-lie-bracket": ("jacobi_lie_bracket", _times(-1, jacobi_lie_bracket),
                                   {"contact-bracket-antihomomorphism",
                                    "holonomic-lift-isomorphism",
                                    "lift-bracket-with-vertical-lift",
                                    "poisson-bracket-isomorphism", "reduces-to-jacobi-lie",
                                    "vertical-lift-homomorphism"}),
    "negated-contact-field": ("contact_vector_field", _times(-1, contact_vector_field),
                              {"contact-bracket-antihomomorphism",
                               "contact-divergence-is--2Kz",
                               "contact-field-defining-identities"}),
    "negated-contact-momentum-rate": ("lie_poisson_rhs", _times(-1, lie_poisson_rhs),
                                      {"contact-density-intertwining",
                                       "contact-momentum-map-intertwining",
                                       "momentum-rhs-dual-path-equality",
                                       "momentum-rhs-matches-coadjoint"}),
    "negated-lift-route": ("momentum_rhs_via_lift", _times(-1, momentum_rhs_via_lift),
                           {"momentum-rhs-dual-path-equality", "momentum-rhs-via-lift"}),
    "negated-vlasov-momentum-rate": ("vlasov_momentum_rhs", _times(-1, vlasov_momentum_rhs),
                                     {"momentum-rhs-matches-coadjoint",
                                      "momentum-rhs-via-lift",
                                      "plasma-density-intertwining",
                                      "plasma-momentum-map-intertwining"}),
    "doubled-cotangent-lift": ("complete_cotangent_lift", _times(2, complete_cotangent_lift),
                               {"cotangent-bracket-homomorphism",
                                "lift-bracket-with-vertical-lift",
                                "momentum-function-generates-lift",
                                "projection-compatibility"}),
    "fiber-negated-cotangent-lift": ("complete_cotangent_lift", _fiber_negated_lift,
                                     {"cotangent-bracket-homomorphism",
                                      "lift-bracket-with-vertical-lift",
                                      "lift-preserves-tautological-form",
                                      "momentum-function-generates-lift"}),
    "negated-euler-field": ("euler_vector_field", _times(-1, euler_vector_field),
                            {"euler-field-defining-identities",
                             "vertical-lift-via-euler-field"}),
    "negated-vertical-representative": ("vertical_representative",
                                        _times(-1, vertical_representative),
                                        {"holonomic-vertical-decomposition",
                                         "vertical-bracket-identity"}),
    "negated-contact-density": ("contact_density", _times(-1, contact_density),
                                {"density-wedge-consistency", "pairing-duality",
                                 "operator-relation"}),
    "density-operator-with-2L": ("hamiltonian_operator_density", _density_operator_with_2L,
                                 {"density-operator-weak"}),
    "negated-momentum-operator": ("hamiltonian_operator_momentum",
                                  _times(-1, hamiltonian_operator_momentum),
                                  {"momentum-operator-weak", "momentum-display-sign",
                                   "operator-relation"}),
    "obstruction-without-holonomic-parts": ("obstruction_form",
                                            _obstruction_without_holonomic_parts,
                                            {"obstruction-vanishing-on-lifts",
                                             "vertical-bracket-identity"}),
    "bracket-reading-pr1-xi-twice": ("prolongation_bracket", _bracket_reading_pr1_xi_twice,
                                     {"holonomic-lift-isomorphism",
                                      "prolongation-bracket-antisymmetry",
                                      "reduces-to-jacobi-lie", "vertical-bracket-identity",
                                      "vertical-lift-homomorphism"}),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_planted_fault_fails_its_checks(monkeypatch, fault):
    name, faulty, checks = PLANTED_FAULTS[fault]
    monkeypatch.setattr(verify, name, faulty)
    suites = {suite for suite, rows in verify.CHECKS.items()
              if checks & {check for check, _ in rows}}
    failed = {r.name for suite in sorted(suites)
              for r in run_suite(suite, trials=2, seed=0).results if not r.passed}
    assert checks <= failed


# every exact check, by name
EXACT_CHECKS = dict(row for rows in verify.CHECKS.values() for row in rows)


def test_planted_faults_cover_every_exact_check():
    covered = set().union(*(checks for _, _, checks in PLANTED_FAULTS.values()))
    assert set(EXACT_CHECKS) <= covered


# ---------------------------------------------------------------------------
# the runner decides by ==, which is exact only between canonical sides

def _exprs(value):
    """The expressions in one side of a check: bare, in tuples, or the
    components and terms of fields and forms."""
    if isinstance(value, Expr):
        return [value]
    if isinstance(value, tuple):
        return [e for v in value for e in _exprs(v)]
    if isinstance(value, VectorField):
        return list(value.components)
    if isinstance(value, GeneralizedVectorField):
        return [*value.base_components, *value.fiber_components]
    if isinstance(value, DifferentialForm):
        return list(value.terms.values())
    raise TypeError(f"a check side of unknown type {type(value).__name__}")


@pytest.mark.parametrize("name", EXACT_CHECKS)
def test_check_sides_are_canonical(name):
    with scope():
        _, lhs, rhs = EXACT_CHECKS[name](random.Random(f"0:{name}"), 3)
        assert all(canonicalize(e) is e for e in _exprs(lhs) + _exprs(rhs))


def test_counterexample_lists_what_the_check_drew(monkeypatch):
    monkeypatch.setattr(verify, "vlasov_momentum_rhs", _times(-1, vlasov_momentum_rhs))
    result = run_suite("plasma", trials=1, seed=0).results[2]
    assert (result.name, result.passed) == ("momentum-rhs-matches-coadjoint", False)
    assert re.fullmatch(r"Pi = .+ \* dq1.*; m = \d+(/\d+)?; e = -?\d+; phi = .+",
                        result.counterexample)
