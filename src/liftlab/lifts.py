"""Canonical cotangent-bundle structure and the lift constructions.

Sign conventions, fixed once and used everywhere:

    theta = y_a dx^a        (tautological one-form)
    Omega = dx^a ^ dy_a     (= -d theta, canonical symplectic form)
    i_{X_h} Omega = dh      (Hamiltonian field convention)

These are the unique choices that reproduce the standard kinetic-energy
Hamiltonian field (dq/dt = p/m, dp/dt = -grad V) together with the Euler
field X_E = -y_a d/dy_a satisfying i_{X_E} Omega = theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import Expr, ONE, Var, VarId, ZERO, canon, free_vars, partial
from .geometry import MAX_DIM, Chart, ChartError, DifferentialForm, VectorField, one_form
from .jets import GeneralizedVectorField, JetChart, vertical_representative, holonomic_part

__all__ = [
    "CotangentChart", "complete_cotangent_lift", "momentum_function",
    "hamiltonian_vector_field", "canonical_poisson", "euler_vector_field",
    "vertical_lift", "lift_decomposition",
]


@dataclass(frozen=True)
class CotangentChart:
    """Darboux coordinates (x^a; y_a) on T*M over a base chart."""

    base: Chart
    full: Chart

    @classmethod
    def make(cls, base: Chart, fiber_names: Sequence[str] | None = None) -> "CotangentChart":
        m = base.dim
        if 2 * m > MAX_DIM:
            raise ChartError("cotangent chart dimension would exceed the chart cap")
        if fiber_names is None:
            fiber_names = [f"y_{v.name}" for v in base.vars]
        if len(fiber_names) != m:
            raise ChartError("need one fiber name per base coordinate")
        full = Chart.make(*[v.name for v in base.vars], *fiber_names)
        return cls(base, full)

    @property
    def m(self) -> int:
        return self.base.dim

    def base_var(self, a: int) -> VarId:
        return self.full.vars[a]

    def fiber_var(self, a: int) -> VarId:
        return self.full.vars[self.m + a]

    def tautological_form(self) -> DifferentialForm:
        comps = [Var(self.fiber_var(a)) for a in range(self.m)] + [ZERO] * self.m
        return one_form(self.full, comps)

    def symplectic_form(self) -> DifferentialForm:
        return DifferentialForm(
            self.full, 2, {(a, self.m + a): ONE for a in range(self.m)})

    def jet_chart(self) -> JetChart:
        """Synthetic jet chart reading y_a as a section y_a(x)."""
        return JetChart.make([v.name for v in self.base.vars],
                             [self.fiber_var(a).name for a in range(self.m)])


def _require_base_field(cchart: CotangentChart, X: VectorField) -> None:
    if X.chart != cchart.base:
        raise ChartError("field must live on the cotangent chart's base")
    fiber_vars = {cchart.fiber_var(a) for a in range(cchart.m)}
    for comp in X.components:
        if free_vars(comp) & fiber_vars:
            raise ChartError("base field components may not depend on fiber variables")


def complete_cotangent_lift(cchart: CotangentChart, X: VectorField) -> VectorField:
    """X^{c*} = X^a d/dx^a - y_b (dX^b/dx^a) d/dy_a."""
    _require_base_field(cchart, X)
    m = cchart.m
    comps: list[Expr] = list(X.components)
    for a in range(m):
        rate: Expr = ZERO
        for b in range(m):
            rate = rate - Var(cchart.fiber_var(b)) * partial(X.components[b], cchart.base_var(a))
        comps.append(canon(rate))
    return VectorField(cchart.full, tuple(comps))


def momentum_function(cchart: CotangentChart, X: VectorField) -> Expr:
    """P(X) = y_b X^b, the fiber-linear Hamiltonian generating X^{c*}."""
    _require_base_field(cchart, X)
    out: Expr = ZERO
    for b in range(cchart.m):
        out = out + Var(cchart.fiber_var(b)) * X.components[b]
    return canon(out)


def hamiltonian_vector_field(cchart: CotangentChart, h: Expr) -> VectorField:
    """X_h with i_{X_h} Omega = dh: (dh/dy_a, -dh/dx^a)."""
    m = cchart.m
    comps = [partial(h, cchart.fiber_var(a)) for a in range(m)]
    comps += [canon(partial(h, cchart.base_var(a)) * -1) for a in range(m)]
    return VectorField(cchart.full, tuple(comps))


def canonical_poisson(cchart: CotangentChart, f: Expr, g: Expr) -> Expr:
    """{f,g} = sum_a df/dx^a dg/dy_a - df/dy_a dg/dx^a."""
    out: Expr = ZERO
    for a in range(cchart.m):
        x, y = cchart.base_var(a), cchart.fiber_var(a)
        out = out + partial(f, x) * partial(g, y) - partial(f, y) * partial(g, x)
    return canon(out)


def euler_vector_field(cchart: CotangentChart) -> VectorField:
    """X_E = -y_a d/dy_a, the fiber dilation generator."""
    comps = [ZERO] * cchart.m + \
        [canon(Var(cchart.fiber_var(a)) * -1) for a in range(cchart.m)]
    return VectorField(cchart.full, tuple(comps))


def vertical_lift(cchart: CotangentChart, alpha: DifferentialForm) -> VectorField:
    """(alpha_a dx^a)^v = -alpha_a d/dy_a for a base one-form."""
    if alpha.degree != 1 or alpha.chart != cchart.base:
        raise ChartError("vertical lift takes a one-form on the base")
    comps: list[Expr] = [ZERO] * cchart.m
    for a in range(cchart.m):
        comps.append(canon(alpha.coeff((a,)) * -1))
    return VectorField(cchart.full, tuple(comps))


def as_generalized(cchart: CotangentChart, X_lifted: VectorField) -> GeneralizedVectorField:
    """Read a field on T*M as a generalized field on the synthetic jet chart."""
    jc = cchart.jet_chart()
    m = cchart.m
    return GeneralizedVectorField(jc, tuple(X_lifted.components[:m]),
                                  tuple(X_lifted.components[m:]))


def lift_decomposition(cchart: CotangentChart, X: VectorField
                       ) -> tuple[GeneralizedVectorField, GeneralizedVectorField]:
    """Split X^{c*} = V X^{c*} + H X^{c*} over the synthetic jet chart.

    The fiber derivatives dy_b/dx^a become first-jet variables, so the
    decomposition is exact and symbolic.  Returns (V part, H part).
    """
    xi = as_generalized(cchart, complete_cotangent_lift(cchart, X))
    return vertical_representative(xi), holonomic_part(xi)
