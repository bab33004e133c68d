"""First-order jet coordinates, generalized vector fields, prolongation.

A jet chart extends a base chart (x^a) and fiber names (u^l) with first-jet
variables u^l_a and the symmetric second-jet variables u^l_{ab} that the
prolongation formula needs.  Generalized vector fields are projectable by
construction: base components depend on base variables only, fiber
components on (x, u, u_a) only.  The bracket of two such fields is again
first order; the implementation asserts the cancellation of second-jet
variables rather than assuming it, since input can break it.  Identities of
the library's own output, such as B(xi, eta) = [V xi, V eta] - V[xi, eta],
are decided by ``liftlab verify`` and the tests, not on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .expr import (
    Expr, ExprError, ONE, Var, VarId, ZERO, canonicalize, free_vars,
)
from .geometry import Chart, ChartError, VectorField, directional_derivative

__all__ = [
    "JetChart", "GeneralizedVectorField", "Prolongation",
    "ProjectabilityError", "JetConsistencyError",
    "total_derivative", "prolong1", "prolongation_bracket",
    "holonomic_lift", "holonomic_part", "vertical_representative",
    "obstruction_form",
]


class ProjectabilityError(ExprError):
    pass


class JetConsistencyError(ExprError):
    """A quantity that must be first order retained second-jet variables."""


@dataclass(frozen=True)
class JetChart:
    """Coordinates (x^a, u^l, u^l_a, u^l_{ab}) with u^l_{ab} = u^l_{ba}; the
    base and fiber names together name the chart of E, which ``Chart`` checks."""

    base: tuple[VarId, ...]
    fiber: tuple[VarId, ...]
    jet1: tuple[tuple[VarId, ...], ...]        # [l][a]
    jet2: dict[tuple[int, int, int], VarId]    # (l, a, b) with a <= b

    @classmethod
    def make(cls, base_names: Sequence[str], fiber_names: Sequence[str]) -> "JetChart":
        m, k = len(base_names), len(fiber_names)
        if m < 1 or k < 1:
            raise ChartError("jet chart needs at least one base and one fiber variable")
        Chart.make(*base_names, *fiber_names)
        names: list[str] = list(base_names) + list(fiber_names)
        for u in fiber_names:
            for x in base_names:
                names.append(f"{u}_{x}")
        for u in fiber_names:
            for a in range(m):
                for b in range(a, m):
                    names.append(f"{u}_{base_names[a]}{base_names[b]}")
        if len(set(names)) != len(names):
            raise ChartError("jet variable names collide; rename base or fiber variables")
        ids = [VarId(n, i) for i, n in enumerate(names)]
        base = tuple(ids[:m])
        fiber = tuple(ids[m:m + k])
        jet1 = tuple(tuple(ids[m + k + l * m: m + k + (l + 1) * m]) for l in range(k))
        jet2: dict[tuple[int, int, int], VarId] = {}
        pos = m + k + k * m
        for l in range(k):
            for a in range(m):
                for b in range(a, m):
                    jet2[(l, a, b)] = ids[pos]
                    pos += 1
        return cls(base, fiber, jet1, jet2)

    @classmethod
    def from_chart(cls, base_chart: Chart, fiber_names: Sequence[str]) -> "JetChart":
        return cls.make([v.name for v in base_chart.vars], fiber_names)

    @property
    def m(self) -> int:
        return len(self.base)

    @property
    def k(self) -> int:
        return len(self.fiber)

    def jet(self, l: int, a: int) -> VarId:
        return self.jet1[l][a]

    def jet2_var(self, l: int, a: int, b: int) -> VarId:
        if a > b:
            a, b = b, a
        return self.jet2[(l, a, b)]

    @property
    def base_chart(self) -> Chart:
        return Chart(self.base)

    @property
    def second_jet_vars(self) -> frozenset[VarId]:
        return frozenset(self.jet2.values())

    def first_order_vars(self) -> frozenset[VarId]:
        out = set(self.base) | set(self.fiber)
        for row in self.jet1:
            out |= set(row)
        return frozenset(out)

    def __str__(self) -> str:
        return ("(" + ", ".join(v.name for v in self.base) + "; "
                + ", ".join(v.name for v in self.fiber) + ")")


def _check_support(e: Expr, allowed: frozenset[VarId], what: str, err: type[ExprError]) -> Expr:
    e = canonicalize(e)
    extra = free_vars(e) - allowed
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise err(f"{what} may not depend on: {names}")
    return e


@dataclass(frozen=True)
class GeneralizedVectorField:
    """xi = xi^a(x) d/dx^a + xi^l(x,u,u_a) d/du^l on a jet chart."""

    jet_chart: JetChart
    base_components: tuple[Expr, ...]
    fiber_components: tuple[Expr, ...]

    def __post_init__(self):
        jc = self.jet_chart
        if len(self.base_components) != jc.m or len(self.fiber_components) != jc.k:
            raise ChartError("component count does not match the jet chart")
        base_ok = frozenset(jc.base)
        object.__setattr__(self, "base_components", tuple(
            _check_support(c, base_ok, "base components of a projectable field",
                           ProjectabilityError)
            for c in self.base_components))
        object.__setattr__(self, "fiber_components", tuple(
            _check_support(c, jc.first_order_vars(),
                           "fiber components of a first-order field",
                           JetConsistencyError)
            for c in self.fiber_components))

    def is_vertical(self) -> bool:
        return all(c == ZERO for c in self.base_components)

    def is_zero(self) -> bool:
        return self.is_vertical() and all(c == ZERO for c in self.fiber_components)

    def pushforward(self) -> VectorField:
        """The base field this projects to."""
        return VectorField(self.jet_chart.base_chart, self.base_components)

    def __sub__(self, other: "GeneralizedVectorField") -> "GeneralizedVectorField":
        if self.jet_chart != other.jet_chart:
            raise ChartError("jet charts differ")
        return GeneralizedVectorField(
            self.jet_chart,
            tuple(a - b for a, b in zip(self.base_components, other.base_components)),
            tuple(a - b for a, b in zip(self.fiber_components, other.fiber_components)))

    def __add__(self, other: "GeneralizedVectorField") -> "GeneralizedVectorField":
        if self.jet_chart != other.jet_chart:
            raise ChartError("jet charts differ")
        return GeneralizedVectorField(
            self.jet_chart,
            tuple(a + b for a, b in zip(self.base_components, other.base_components)),
            tuple(a + b for a, b in zip(self.fiber_components, other.fiber_components)))

    def __str__(self) -> str:
        jc = self.jet_chart
        parts = [f"({c}) * d/d{v.name}" for c, v in
                 zip(self.base_components, jc.base) if c != ZERO]
        parts += [f"({c}) * d/d{v.name}" for c, v in
                  zip(self.fiber_components, jc.fiber) if c != ZERO]
        return " + ".join(parts) if parts else "0"


def total_derivative(jc: JetChart, e: Expr, a: int) -> Expr:
    """D_a e = de/dx^a + u^l_a de/du^l + u^l_{ab} de/du^l_b.

    The input may not contain second-jet variables; the output may.
    """
    bad = free_vars(e) & jc.second_jet_vars
    if bad:
        raise JetConsistencyError("total derivative input already has second-jet variables")
    pairs = [(jc.base[a], ONE)]
    for l in range(jc.k):
        pairs.append((jc.fiber[l], Var(jc.jet(l, a))))
        pairs += [(jc.jet(l, b), Var(jc.jet2_var(l, a, b))) for b in range(jc.m)]
    return directional_derivative(e, pairs)


@dataclass(frozen=True)
class Prolongation:
    """pr1(xi): xi plus Phi^l_a d/du^l_a, Phi as in the display formula."""

    field: GeneralizedVectorField
    jet_components: tuple[tuple[Expr, ...], ...]   # [l][a]

    def apply(self, f: Expr) -> Expr:
        """Action on a function of (x, u, u_a)."""
        xi, jc = self.field, self.field.jet_chart
        pairs = [*zip(jc.base, xi.base_components), *zip(jc.fiber, xi.fiber_components)]
        pairs += [(jc.jet(l, a), self.jet_components[l][a])
                  for l in range(jc.k) for a in range(jc.m)]
        return directional_derivative(f, pairs)


def prolong1(xi: GeneralizedVectorField) -> Prolongation:
    """First prolongation: Phi^l_a = D_a Q^l + xi^b u^l_{ba}, where the
    characteristic Q^l = xi^l - xi^b u^l_b is the fiber part of V(xi)."""
    jc = xi.jet_chart
    characteristic = vertical_representative(xi).fiber_components
    phi: list[tuple[Expr, ...]] = []
    for l in range(jc.k):
        row = []
        for a in range(jc.m):
            comp = total_derivative(jc, characteristic[l], a)
            for b in range(jc.m):
                comp = comp + xi.base_components[b] * Var(jc.jet2_var(l, b, a))
            row.append(canonicalize(comp))
        phi.append(tuple(row))
    return Prolongation(xi, tuple(phi))


def prolongation_bracket(xi: GeneralizedVectorField,
                         eta: GeneralizedVectorField) -> GeneralizedVectorField:
    """Bracket of first-order generalized fields.

    All second-jet variables must cancel in the fiber components; a residue
    is an internal-consistency failure, not a recoverable condition.
    """
    if xi.jet_chart != eta.jet_chart:
        raise ChartError("jet charts differ")
    jc = xi.jet_chart
    pxi, peta = prolong1(xi), prolong1(eta)
    base = tuple(canonicalize(pxi.apply(eta.base_components[a]) - peta.apply(xi.base_components[a]))
                 for a in range(jc.m))
    fiber = []
    for l in range(jc.k):
        comp = canonicalize(pxi.apply(eta.fiber_components[l]) - peta.apply(xi.fiber_components[l]))
        residue = free_vars(comp) & jc.second_jet_vars
        if residue:
            names = ", ".join(sorted(v.name for v in residue))
            raise JetConsistencyError(
                f"second-jet variables did not cancel in the bracket: {names}")
        fiber.append(comp)
    return GeneralizedVectorField(jc, base, tuple(fiber))


def holonomic_lift(jc: JetChart, X: VectorField) -> GeneralizedVectorField:
    """X^hol = X^a d/dx^a + X^a u^l_a d/du^l for a base vector field."""
    if tuple(X.chart.vars) != jc.base:
        raise ChartError("field must live on the jet chart's base")
    fiber = []
    for l in range(jc.k):
        comp: Expr = ZERO
        for a in range(jc.m):
            comp = comp + X.components[a] * Var(jc.jet(l, a))
        fiber.append(canonicalize(comp))
    return GeneralizedVectorField(jc, X.components, tuple(fiber))


def holonomic_part(xi: GeneralizedVectorField) -> GeneralizedVectorField:
    """H(xi) = (pi_* xi)^hol = Gamma_J xi."""
    return holonomic_lift(xi.jet_chart, xi.pushforward())


def vertical_representative(xi: GeneralizedVectorField) -> GeneralizedVectorField:
    """V(xi): zero base part, fiber xi^l - xi^a u^l_a; xi = V(xi) + H(xi)."""
    jc = xi.jet_chart
    fiber = []
    for l in range(jc.k):
        comp = xi.fiber_components[l]
        for a in range(jc.m):
            comp = comp - xi.base_components[a] * Var(jc.jet(l, a))
        fiber.append(canonicalize(comp))
    return GeneralizedVectorField(jc, (ZERO,) * jc.m, tuple(fiber))


def obstruction_form(xi: GeneralizedVectorField,
                     eta: GeneralizedVectorField) -> GeneralizedVectorField:
    """B(xi, eta) = [H(eta), V(xi)] - [H(xi), V(eta)] (vertical valued).

    It also equals [V(xi), V(eta)] - V([xi, eta]); the verify check
    ``vertical-bracket-identity`` compares the two routes.
    """
    if xi.jet_chart != eta.jet_chart:
        raise ChartError("jet charts differ")
    v_xi, v_eta = vertical_representative(xi), vertical_representative(eta)
    return prolongation_bracket(holonomic_part(eta), v_xi) - \
        prolongation_bracket(holonomic_part(xi), v_eta)
