"""Coordinate-chart exterior calculus.

Charts are single global coordinate systems (dimension at most 8).  Forms
are stored sparsely over strictly increasing multi-indices.  All values are
immutable and all operations pure, and every derivative here is ``partial``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .expr import (
    FUNCTIONS, Expr, ExprError, ONE, Sum, Var, VarId, ZERO, canonicalize, is_rational,
    is_zero_expr, partial,
)
from .parser import IDENT_RE

# a derivative d(e, v) along v, the parameter of the kinetics formulas read on a jet chart
Derivative = Callable[[Expr, VarId], Expr]

__all__ = [
    "Chart", "VectorField", "DifferentialForm", "VolumeForm",
    "ChartError", "ChartMismatchError", "DegreeError",
    "one_form", "jacobi_lie_bracket", "exterior_derivative", "wedge",
    "interior_product", "lie_derivative_form", "divergence",
    "pointwise_pairing", "is_exact_candidate", "directional_derivative",
    "formal_adjoint",
]

MAX_DIM = 8


class ChartError(ExprError):
    pass


class ChartMismatchError(ChartError):
    pass


class DegreeError(ChartError):
    pass


@dataclass(frozen=True)
class Chart:
    """Ordered coordinates of one global chart."""

    vars: tuple[VarId, ...]

    def __post_init__(self):
        names = [v.name for v in self.vars]
        if not 1 <= len(names) <= MAX_DIM:
            raise ChartError(f"chart dimension must be 1..{MAX_DIM}, got {len(names)}")
        if len(set(names)) != len(names):
            raise ChartError("chart variable names must be distinct")
        for i, v in enumerate(self.vars):
            if not IDENT_RE.fullmatch(v.name):
                raise ChartError(f"invalid variable name '{v.name}'")
            if v.name in FUNCTIONS:
                raise ChartError(f"variable name '{v.name}' is a function name")
            if v.index != i:
                raise ChartError(f"variable '{v.name}' has index {v.index}, expected {i}")

    @classmethod
    def make(cls, *names: str) -> "Chart":
        return cls(tuple(VarId(n, i) for i, n in enumerate(names)))

    @property
    def dim(self) -> int:
        return len(self.vars)

    def __str__(self) -> str:
        return "(" + ", ".join(v.name for v in self.vars) + ")"


def directional_derivative(f: Expr, pairs: Iterable[tuple[VarId, Expr]]) -> Expr:
    """The sum of c * df/dv over the ``(v, c)`` pairs, canonicalized;
    terms with c = 0 or df/dv = 0 are left out.  The terms make one
    ``Sum`` after a leading zero, the node ``0 + t1 + t2 + ...`` builds."""
    terms = []
    for v, c in pairs:
        if c != ZERO:
            df = partial(f, v)
            if df != ZERO:
                terms.append(c * df)
    return canonicalize(Sum((ZERO, *terms)) if terms else ZERO)


def _require_same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError(f"charts differ: {a.chart} vs {b.chart}")


@dataclass(frozen=True)
class VectorField:
    """X = X^a d/dx^a with one Expr component per chart coordinate."""

    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ChartError("component count must equal chart dimension")
        object.__setattr__(self, "components", tuple(canonicalize(c) for c in self.components))

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f), X^a df/dx^a."""
        return directional_derivative(f, zip(self.chart.vars, self.components))

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(self.chart, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(self.chart, tuple(a - b for a, b in zip(self.components, other.components)))

    def scaled(self, c: Expr | int) -> "VectorField":
        return VectorField(self.chart, tuple(comp * c for comp in self.components))

    def is_zero(self) -> bool:
        return all(c == ZERO for c in self.components)

    def __str__(self) -> str:
        parts = [f"({c}) * d/d{v.name}"
                 for c, v in zip(self.components, self.chart.vars) if c != ZERO]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-k form; coefficients over strictly increasing index tuples."""

    chart: Chart
    degree: int
    terms: Mapping[tuple[int, ...], Expr] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree <= self.chart.dim:
            raise DegreeError(f"degree {self.degree} out of range for {self.chart}")
        clean: dict[tuple[int, ...], Expr] = {}
        for idx, coeff in self.terms.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise DegreeError(f"index {idx} has wrong length for degree {self.degree}")
            if any(not 0 <= i < self.chart.dim for i in idx):
                raise DegreeError(f"index {idx} out of chart range")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise DegreeError(f"index {idx} is not strictly increasing")
            coeff = canonicalize(coeff)
            if coeff != ZERO:
                clean[idx] = coeff
        object.__setattr__(self, "terms", clean)

    def coeff(self, idx: tuple[int, ...]) -> Expr:
        return self.terms.get(tuple(idx), ZERO)

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        keys = set(self.terms) | set(other.terms)
        return DifferentialForm(self.chart, self.degree,
                                {k: self.coeff(k) + other.coeff(k) for k in keys})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + other.scaled(-1)

    def scaled(self, c: Expr | int) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree,
                                {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.vars
        parts = []
        for idx in sorted(self.terms):
            basis = "∧".join(f"d{names[i].name}" for i in idx) if idx else "1"
            parts.append(f"({self.terms[idx]}) * {basis}")
        return " + ".join(parts)


def _perm_sign(idx: Sequence[int]) -> int:
    sign = 1
    idx = list(idx)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def one_form(chart: Chart, components: Sequence[Expr]) -> DifferentialForm:
    if len(components) != chart.dim:
        raise ChartError("one-form needs one component per coordinate")
    return DifferentialForm(chart, 1, {(i,): c for i, c in enumerate(components)})


def zero_form(chart: Chart, f: Expr) -> DifferentialForm:
    return DifferentialForm(chart, 0, {(): f})


@dataclass(frozen=True)
class VolumeForm:
    """Top-degree form with a coefficient that is not identically zero."""

    form: DifferentialForm

    def __post_init__(self):
        if self.form.degree != self.form.chart.dim:
            raise DegreeError("volume form must have top degree")
        coeff = self.form.coeff(tuple(range(self.form.chart.dim)))
        if not is_rational(coeff):
            raise ExprError("volume coefficient must be rational for the zero test")
        if is_zero_expr(coeff):
            raise ChartError("volume form coefficient is identically zero")

    @property
    def chart(self) -> Chart:
        return self.form.chart

    @property
    def coefficient(self) -> Expr:
        return self.form.coeff(tuple(range(self.form.chart.dim)))

    @classmethod
    def standard(cls, chart: Chart) -> "VolumeForm":
        return cls(DifferentialForm(chart, chart.dim, {tuple(range(chart.dim)): ONE}))


def jacobi_lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X,Y]^a = X(Y^a) - Y(X^a)."""
    _require_same_chart(X, Y)
    comps = tuple(X.apply(Yc) - Y.apply(Xc)
                  for Xc, Yc in zip(X.components, Y.components))
    return VectorField(X.chart, comps)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    if omega.degree >= omega.chart.dim:
        raise DegreeError("exterior derivative of a top-degree form")
    chart = omega.chart
    out: dict[tuple[int, ...], Expr] = {}
    for idx, coeff in omega.terms.items():
        for j in range(chart.dim):
            if j in idx:
                continue
            dc = partial(coeff, chart.vars[j])
            if dc == ZERO:
                continue
            pos = sum(1 for i in idx if i < j)
            new_idx = tuple(sorted(idx + (j,)))
            sign = 1 if pos % 2 == 0 else -1
            term = dc if sign == 1 else dc * -1
            out[new_idx] = out.get(new_idx, ZERO) + term
    return DifferentialForm(chart, omega.degree + 1, out)


def wedge(omega: DifferentialForm, eta: DifferentialForm) -> DifferentialForm:
    _require_same_chart(omega, eta)
    if omega.degree + eta.degree > omega.chart.dim:
        raise DegreeError("wedge degree exceeds chart dimension")
    out: dict[tuple[int, ...], Expr] = {}
    for ia, ca in omega.terms.items():
        for ib, cb in eta.terms.items():
            if set(ia) & set(ib):
                continue
            merged = ia + ib
            sign = _perm_sign(merged)
            key = tuple(sorted(merged))
            term = ca * cb if sign == 1 else ca * cb * -1
            out[key] = out.get(key, ZERO) + term
    return DifferentialForm(omega.chart, omega.degree + eta.degree, out)


def interior_product(X: VectorField, omega: DifferentialForm) -> DifferentialForm:
    """Contraction i_X omega in the first slot."""
    _require_same_chart(X, omega)
    if omega.degree < 1:
        raise DegreeError("interior product needs degree >= 1")
    out: dict[tuple[int, ...], Expr] = {}
    for idx, coeff in omega.terms.items():
        for pos, j in enumerate(idx):
            comp = X.components[j]
            if comp == ZERO:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            term = comp * coeff if pos % 2 == 0 else comp * coeff * -1
            out[rest] = out.get(rest, ZERO) + term
    return DifferentialForm(omega.chart, omega.degree - 1, out)


def lie_derivative_form(X: VectorField, omega: DifferentialForm) -> DifferentialForm:
    """Cartan's formula: L_X = i_X d + d i_X (reduces to X(f) on functions)."""
    _require_same_chart(X, omega)
    if omega.degree == 0:
        return zero_form(omega.chart, X.apply(omega.coeff(())))
    if omega.degree == omega.chart.dim:
        return exterior_derivative(interior_product(X, omega))
    out = interior_product(X, exterior_derivative(omega))
    return out + exterior_derivative(interior_product(X, omega))


def divergence(X: VectorField, vol: VolumeForm) -> Expr:
    """The unique scalar with L_X(dmu) = div * dmu.

    Computed from the component formula sum_a d_a(rho X^a) / rho, which the
    Cartan route must reproduce (property-tested).
    """
    _require_same_chart(X, vol.form)
    chart = X.chart
    rho = vol.coefficient
    total: Expr = ZERO
    for a, comp in enumerate(X.components):
        total = total + partial(canonicalize(rho * comp), chart.vars[a])
    return canonicalize(total / rho)


def pointwise_pairing(alpha: DifferentialForm, X: VectorField) -> Expr:
    """<alpha, X> = sum alpha_a X^a for a one-form."""
    _require_same_chart(alpha, X)
    if alpha.degree != 1:
        raise DegreeError("pairing needs a one-form")
    out: Expr = ZERO
    for (a,), coeff in alpha.terms.items():
        out = out + coeff * X.components[a]
    return canonicalize(out)


def is_exact_candidate(alpha: DifferentialForm) -> bool:
    """True iff d(alpha) = 0; on a star-shaped chart closed = exact."""
    if alpha.degree != 1:
        raise DegreeError("exactness test is for one-forms")
    d = exterior_derivative(alpha)
    for coeff in d.terms.values():
        if not is_rational(coeff):
            raise ExprError("exactness test needs rational coefficients")
        if not is_zero_expr(coeff):
            return False
    return True


def formal_adjoint(chart: Chart, D: Callable[[Expr], Expr]) -> Expr:
    """D*(1): the density E with the integral of D[H] equal to that of H E
    for every compactly supported H, for a linear differential operator D
    of order at most 2 in the chart's coordinates.

    With D = c + c^a d_a + sum over a <= b of c^ab d_a d_b, E is
    c - d_a c^a + d_a d_b c^ab: integration by parts with no boundary term
    (Olver, *Applications of Lie Groups to Differential Equations*, GTM
    107, ch. 4-5).  The coefficients are read from D applied to 1, x^a and
    x^a x^b.  The adjoint of D at L is ``formal_adjoint`` of H -> L D[H].

    Raises ``ExprError`` unless D applied to l^3, for the weighted linear
    form l = sum (a + 1) x^a, is what those coefficients predict: an
    operator of order 3 differs there, along d_x^3 and d_x d_y d_z alike.
    """
    v = chart.vars
    xs = [Var(u) for u in v]
    c = D(ONE)
    first = [canonicalize(D(x) - x * c) for x in xs]
    second = {}
    for a in range(chart.dim):
        for b in range(a, chart.dim):
            xa, xb = xs[a], xs[b]
            s = D(xa * xb) - xa * first[b] - xb * first[a] - xa * xb * c
            second[a, b] = canonicalize(s if a < b else s / 2)
    lin = canonicalize(sum((x * (a + 1) for a, x in enumerate(xs)), ZERO))
    predicted = canonicalize(c * lin ** 3
                             + sum((3 * lin ** 2 * (a + 1) * ca for a, ca in enumerate(first)), ZERO)
                             + sum((6 * lin * (a + 1) * (b + 1) * cab
                                    for (a, b), cab in second.items()), ZERO))
    if canonicalize(D(lin ** 3)) != predicted:
        raise ExprError("formal adjoint of an operator of order above 2")
    out = c - sum((partial(ca, v[a]) for a, ca in enumerate(first)), ZERO)
    out = out + sum((partial(partial(cab, v[a]), v[b]) for (a, b), cab in second.items()), ZERO)
    return canonicalize(out)
