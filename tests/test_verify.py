"""Verification-suite machinery and reports."""

import pytest

from liftlab import verify
from liftlab.expr import ZERO, Var, canon, partial
from liftlab.geometry import VectorField
from liftlab.lifts import hamiltonian_vector_field
from liftlab.verify import SUITES, WEAK_PROBE_TOL, run_suite


@pytest.mark.parametrize("name", ["jets", "lifts", "euler-field", "plasma",
                                  "contact", "intertwining"])
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


def test_operators_weak_is_informational():
    report = run_suite("operators-weak", trials=2, degree=2, seed=1)
    assert report.informational
    assert report.ok                       # never fails, only reports
    by_name = {r.name: r for r in report.results}
    assert set(by_name) == {"pairing-duality", "momentum-operator-weak",
                            "momentum-display-sign", "density-operator-weak",
                            "operator-relation"}
    # windowed pairing-duality and the momentum-layer operator identity
    # hold to quadrature precision
    assert max(by_name["pairing-duality"].residuals) < WEAK_PROBE_TOL
    assert max(by_name["momentum-operator-weak"].residuals) < WEAK_PROBE_TOL
    # the printed displays carry documented discrepancies: the momentum
    # defining display is off by an overall sign, the density operator by
    # a genuine zeroth- vs first-order term
    assert by_name["momentum-display-sign"].flagged
    assert by_name["momentum-display-sign"].note is not None
    assert by_name["density-operator-weak"].flagged
    rendered = report.render()
    assert "RESULT: REPORTED" in rendered
    assert "documented" in rendered


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
RESULT: PASS""",
    "intertwining": """\
suite: intertwining  trials=2 degree=3 seed=0
  [PASS] contact-momentum-map-intertwining (2 trials)
  [PASS] plasma-momentum-map-intertwining (2 trials)
RESULT: PASS""",
    "operators-weak": """\
suite: operators-weak  trials=2 degree=3 seed=0
  [ok  ] pairing-duality: max residual 2.636e-16 (tol 1e-06, 2 probes)
  [ok  ] momentum-operator-weak: max residual 6.940e-16 (tol 1e-06, 2 probes)
  [FLAG] momentum-display-sign: max residual 1.998e+00 (tol 1e-06, 2 probes)
         residual exceeds tolerance: documented operator discrepancy, reported not asserted
         sign-flipped residual 6.940e-16: the two sides agree up to an overall sign
  [FLAG] density-operator-weak: max residual 2.227e-01 (tol 1e-06, 2 probes)
         residual exceeds tolerance: documented operator discrepancy, reported not asserted
  [FLAG] operator-relation: max residual 1.805e+00 (tol 1e-06, 2 probes)
         residual exceeds tolerance: documented operator discrepancy, reported not asserted
RESULT: REPORTED""",
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
    return canon(sum((partial(pi.coeff((pc.m + i,)), pc.base_var(i)) for i in range(pc.m)),
                     ZERO))


PLANTED_FAULTS = {
    "divergent-hamiltonian-field": ("hamiltonian_vector_field", _plus_first_base_coordinate,
                                    {"hamiltonian-fields-divergence-free"}),
    "plasma-density-without-fiber-term": ("plasma_density", _without_fiber_term,
                                          {"plasma-density-intertwining",
                                           "plasma-momentum-map-intertwining"}),
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
