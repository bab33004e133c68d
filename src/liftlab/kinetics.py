"""Lie-Poisson machinery on one-form densities and its three instances:
ideal fluid, Vlasov plasma on T*Q, and contact particles in Darboux
coordinates.

Every momentum is a one-form: alpha on the contact chart, and
Pi = Pi_i dq^i + Pi^i dp_i on the full chart of T*Q, passed with the chart it
must live on.  The canonical right-hand-side path is always the strong
coadjoint formula on the density alpha (x) dmu,

    alpha_dot = -L_X alpha - (div_dmu X) alpha,

``lie_poisson_rhs``.  The ideal fluid is this formula on a divergence-free
X, and its vorticity equation is -L_X on d alpha.  The lift path,
``momentum_rhs_via_lift``, computes the same rate on any chart from the
vertical representative of the complete cotangent lift X^{c*}.

The printed Hamiltonian operators are implemented verbatim as well.  The
operators-weak suite of ``liftlab verify`` decides them in weak form, by
formal adjoints, together with the exact defects of the printed displays.

The formulas that the simulator reads on a jet chart (``contact_bracket``,
``contact_density``, ``contact_density_rhs``, ``momentum_rhs_via_lift`` and
``vlasov_density_rhs``) take the derivative ``d(e, v)`` as a parameter,
``partial`` by default.  Every simulation plan is one of these formulas
called on a jet chart, with the state as fiber variables and the total
derivative D_a for ``d``.

The functions here check their inputs, not their own output.  Identities of
the output, such as the contact density's wedge formula or the Reeb field's
pairings with sigma and dsigma, are decided by ``liftlab verify`` and the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr, ExprError, Var, VarId, ZERO, ONE, canonicalize, free_vars, partial,
    substitute,
)
from .geometry import (
    Chart, ChartError, ChartMismatchError, Derivative, DifferentialForm,
    VectorField, VolumeForm, divergence, exterior_derivative,
    lie_derivative_form, one_form, wedge,
)
from .lifts import CotangentChart, hamiltonian_vector_field, lift_decomposition

__all__ = [
    "PlasmaParams", "ContactStructure",
    "lie_poisson_rhs", "momentum_rhs_via_lift",
    "plasma_chart", "plasma_hamiltonian", "plasma_density",
    "vlasov_momentum_rhs", "vlasov_density_rhs",
    "contact_vector_field", "contact_bracket",
    "contact_density", "contact_density_rhs",
    "hamiltonian_operator_momentum", "hamiltonian_operator_density",
]


# ---------------------------------------------------------------------------
# coadjoint flow on one-form densities

def lie_poisson_rhs(X: VectorField, alpha: DifferentialForm,
                    vol: VolumeForm) -> DifferentialForm:
    """alpha_dot = -L_X alpha - (div_vol X) alpha for the density alpha (x) vol."""
    if alpha.degree != 1:
        raise ChartError("momentum density needs a one-form")
    if not X.chart == alpha.chart == vol.chart:
        raise ChartMismatchError("field, one-form and volume form live on different charts")
    div = divergence(X, vol)
    return lie_derivative_form(X, alpha).scaled(-1) - alpha.scaled(div)


def momentum_rhs_via_lift(X: VectorField, alpha: DifferentialForm, vol: VolumeForm,
                          d: Derivative = partial) -> DifferentialForm:
    """Lift path: alpha_dot = V(X^{c*})(alpha) - (div_vol X) alpha on ``X.chart``.

    The vertical representative of the complete cotangent lift lives on the
    synthetic jet chart of T*, with fibers a_<var>; reading alpha as a
    section binds each fiber variable to a component alpha_l and each
    first-jet variable to d(alpha_l, x^a).
    """
    if alpha.degree != 1 or alpha.chart != X.chart:
        raise ChartError("expected a one-form on the field's chart")
    div = divergence(X, vol)
    chart = X.chart
    cc = CotangentChart.make(chart, [f"a_{v.name}" for v in chart.vars])
    v_part, _ = lift_decomposition(cc, X)
    jc = v_part.jet_chart
    comps = [alpha.coeff((l,)) for l in range(chart.dim)]
    bindings: dict[VarId, Expr] = {}
    for l, comp in enumerate(comps):
        bindings[jc.fiber[l]] = comp
        for a, v in enumerate(chart.vars):
            bindings[jc.jet(l, a)] = d(comp, v)
    return one_form(chart, tuple(canonicalize(substitute(rate, bindings) - div * comp)
                                 for rate, comp in zip(v_part.fiber_components, comps)))


# ---------------------------------------------------------------------------
# collisionless plasma on T*Q

def plasma_chart(n: int = 1) -> CotangentChart:
    """Darboux chart (q^i, p_i) on T*Q for Q of dimension n."""
    if n == 1:
        base = Chart.make("q")
        return CotangentChart.make(base, ["p"])
    base = Chart.make(*[f"q{i + 1}" for i in range(n)])
    return CotangentChart.make(base, [f"p{i + 1}" for i in range(n)])


@dataclass(frozen=True)
class PlasmaParams:
    """Particle mass, charge, and the prescribed (time-fixed) potential."""

    mass: Fraction
    charge: Fraction
    phi: Expr

    def __post_init__(self):
        if self.mass == 0:
            raise ExprError("particle mass must be nonzero")


def plasma_hamiltonian(pc: CotangentChart, params: PlasmaParams) -> Expr:
    """h = (1/2m) sum_i p_i^2 + e phi(q)."""
    qvars = {pc.base_var(i) for i in range(pc.m)}
    if free_vars(params.phi) - qvars:
        raise ChartError("potential must depend on position variables only")
    kinetic: Expr = ZERO
    for i in range(pc.m):
        kinetic = kinetic + Var(pc.fiber_var(i)) ** 2
    return canonicalize(kinetic * Fraction(1, 2) / params.mass + params.phi * params.charge)


def _plasma_components(pc: CotangentChart, pi: DifferentialForm
                       ) -> tuple[list[Expr], list[Expr]]:
    """The coefficients (Pi_i, Pi^i) of dq^i and dp_i in Pi."""
    if pi.degree != 1 or pi.chart != pc.full:
        raise ChartError("plasma momentum is a one-form on the plasma chart")
    comps = [pi.coeff((a,)) for a in range(2 * pc.m)]
    return comps[:pc.m], comps[pc.m:]


def plasma_density(pc: CotangentChart, pi: DifferentialForm) -> Expr:
    """f = dPi^i/dq^i - dPi_i/dp_i, the momentum map to densities, for
    Pi = Pi_i dq^i + Pi^i dp_i on ``pc.full``."""
    down, up = _plasma_components(pc, pi)
    out: Expr = ZERO
    for i in range(pc.m):
        out = out + partial(up[i], pc.base_var(i)) - partial(down[i], pc.fiber_var(i))
    return canonicalize(out)


def vlasov_momentum_rhs(pc: CotangentChart, pi: DifferentialForm,
                        params: PlasmaParams) -> DifferentialForm:
    """Vlasov equations in momentum variables, written exactly as displayed,
    for Pi = Pi_i dq^i + Pi^i dp_i; the rate is a one-form on ``pc.full``:

        Pi_i_dot = -X_h(Pi_i) + e (d2 phi / dq^i dq^j) Pi^j
        Pi^i_dot = -X_h(Pi^i) - (1/m) delta^{ij} Pi_j
    """
    down, up = _plasma_components(pc, pi)
    X_h = hamiltonian_vector_field(pc, plasma_hamiltonian(pc, params))
    rates = [X_h.apply(c) * -1 for c in down + up]
    for i in range(pc.m):
        for j in range(pc.m):
            hess = partial(partial(params.phi, pc.base_var(i)), pc.base_var(j))
            rates[i] = rates[i] + hess * up[j] * params.charge
        rates[pc.m + i] = rates[pc.m + i] - down[i] / params.mass
    return one_form(pc.full, rates)


def vlasov_density_rhs(pc: CotangentChart, f: Expr, params: PlasmaParams,
                       d: Derivative = partial) -> Expr:
    """f_dot = -(p_i/m) df/dq^i + e (dphi/dq^i) df/dp_i."""
    out: Expr = ZERO
    for i in range(pc.m):
        out = out - Var(pc.fiber_var(i)) / params.mass * d(f, pc.base_var(i))
        out = out + d(params.phi, pc.base_var(i)) * d(f, pc.fiber_var(i)) * params.charge
    return canonicalize(out)


# ---------------------------------------------------------------------------
# contact particles in 3D Darboux coordinates

@dataclass(frozen=True)
class ContactStructure:
    """sigma = x dy + dz on a 3D chart, with Reeb field and volume dsigma^sigma."""

    chart: Chart
    sigma: DifferentialForm
    reeb: VectorField
    vol: VolumeForm

    @classmethod
    def standard(cls) -> "ContactStructure":
        chart = Chart.make("x", "y", "z")
        x = Var(chart.vars[0])
        sigma = one_form(chart, (ZERO, x, ONE))
        reeb = VectorField(chart, (ZERO, ZERO, ONE))
        vol_form = wedge(exterior_derivative(sigma), sigma)
        vol = VolumeForm(vol_form)   # raises if dsigma ^ sigma degenerates
        return cls(chart, sigma, reeb, vol)

    @property
    def x(self) -> VarId:
        return self.chart.vars[0]

    @property
    def y(self) -> VarId:
        return self.chart.vars[1]

    @property
    def z(self) -> VarId:
        return self.chart.vars[2]


def contact_vector_field(cs: ContactStructure, K: Expr) -> VectorField:
    """X_K = (K_y - x K_z) d/dx - K_x d/dy + (-K + x K_x) d/dz."""
    x = Var(cs.x)
    kx, ky, kz = (partial(K, v) for v in (cs.x, cs.y, cs.z))
    return VectorField(cs.chart, (
        canonicalize(ky - x * kz),
        canonicalize(kx * -1),
        canonicalize(x * kx - K),
    ))


def contact_bracket(cs: ContactStructure, L: Expr, K: Expr,
                    d: Derivative = partial) -> Expr:
    """{L,K}_c = L_x K_y - L_y K_x + K_z (L - x L_x) - L_z (K - x K_x)."""
    x = Var(cs.x)
    lx, ly, lz = (d(L, v) for v in (cs.x, cs.y, cs.z))
    kx, ky, kz = (d(K, v) for v in (cs.x, cs.y, cs.z))
    return canonicalize(lx * ky - ly * kx + kz * (L - x * lx) - lz * (K - x * kx))


def contact_density(cs: ContactStructure, alpha: DifferentialForm,
                    d: Derivative = partial) -> Expr:
    """L with L dsigma^sigma = d(alpha)^sigma - 2 alpha^dsigma.

    Coordinate formula; the verify check ``density-wedge-consistency``
    compares it with the wedge identity.
    """
    if alpha.degree != 1 or alpha.chart != cs.chart:
        raise ChartError("contact density takes a one-form on the contact chart")
    ax, ay, az = (alpha.coeff((i,)) for i in range(3))
    x = Var(cs.x)
    return canonicalize(d(ay, cs.x) - d(ax, cs.y)
                        - x * d(az, cs.x) + x * d(ax, cs.z) - az * 2)


def contact_density_rhs(cs: ContactStructure, L: Expr, K: Expr,
                        d: Derivative = partial) -> Expr:
    """L_dot = -{L,K}_c - 2 (div X_K) L = -{L,K}_c + 4 K_z L."""
    kz = d(K, cs.z)
    return canonicalize(contact_bracket(cs, L, K, d) * -1 + kz * L * 4)


def hamiltonian_operator_momentum(cs: ContactStructure, alpha: DifferentialForm,
                                  X: VectorField) -> DifferentialForm:
    """The printed 3x3 momentum-layer Hamiltonian operator applied to X.

    Row i, column j is  alpha_j d/dx^i + d/dx^j . alpha_i  with an overall
    minus sign.  Weakly, the integral of <J(alpha) X_K, X_H> is that of
    -<alpha, [X_H, X_K]>, so the printed display, which sets their
    negatives equal, holds only up to an overall minus.  The formal
    adjoint of H -> <J(alpha) X_K, X_H> is ``contact_density_rhs(L, K)``
    for L the contact density of alpha.
    """
    if alpha.degree != 1 or alpha.chart != cs.chart or X.chart != cs.chart:
        raise ChartError("operator arguments must live on the contact chart")
    a = [alpha.coeff((i,)) for i in range(3)]
    comps = []
    for i in range(3):
        entry: Expr = ZERO
        for j in range(3):
            entry = entry + a[j] * partial(X.components[j], cs.chart.vars[i])
            entry = entry + partial(canonicalize(a[i] * X.components[j]), cs.chart.vars[j])
        comps.append(canonicalize(entry * -1))
    return one_form(cs.chart, tuple(comps))


def hamiltonian_operator_density(cs: ContactStructure, L: Expr, K: Expr) -> Expr:
    """The printed density-layer operator: J(L) K = X_L(K) + (4L + L_z) K_z.

    It is not the formal adjoint in H of L {H, K}_c, the operator the
    density bracket gives: it exceeds that adjoint by exactly
    L_z (K_z - K), since it has L_z K_z where L_z K is consistent.
    """
    X_L = contact_vector_field(cs, L)
    kz = partial(K, cs.z)
    lz = partial(L, cs.z)
    return canonicalize(X_L.apply(K) + (L * 4 + lz) * kz)
