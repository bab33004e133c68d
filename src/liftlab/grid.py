"""Periodic uniform grids on [0, 2pi)^d, stencils, quadrature, RK4.

Spatial derivatives use the 4th-order central stencil
(-u_{j+2} + 8 u_{j+1} - 8 u_{j-1} + u_{j-2}) / (12 h), computed on flat
shifts of a contiguous array, such as one component of the simulation's
component-major state, with the wrapped planes fixed up; quadrature is the
torus trapezoid rule h^d * sum, spectrally accurate for smooth periodic
data.  All reductions run in fixed index order so results are bitwise
reproducible.

``compile_numeric`` turns expressions into vectorized evaluators in one
forward pass over their distinct nodes in ``expr.post_order``, with no
recursion.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (
    Const, EvaluationDomainError, Expr, ExprError, Pow, Prod, Quot, Sum, Var,
    VarId, post_order,
)

__all__ = [
    "Grid", "GridError", "AperiodicDataError",
    "NumericalAbortError", "compile_numeric", "discretize",
    "spatial_derivative", "quadrature", "rk4_step",
]

TWO_PI = 2.0 * math.pi


class GridError(ExprError):
    pass


class AperiodicDataError(GridError):
    """Initial data does not evaluate 2pi-periodically along a grid axis."""


class NumericalAbortError(GridError):
    def __init__(self, step: int):
        super().__init__(f"numerical abort at step {step}: non-finite values")
        self.step = step


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2pi)^dim with n points per axis."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridError("grid dimension must be 1, 2 or 3")
        if not 8 <= self.n <= 128 or self.n % 2:
            raise GridError("points per axis must be even and within 8..128")

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    def axis_line(self, axis: int) -> np.ndarray:
        """Coordinate values along ``axis``, shaped to broadcast against the
        grid: (n, 1, 1), (1, n, 1) or (1, 1, n) in three dimensions."""
        reshape = [1] * self.dim
        reshape[axis] = self.n
        return (np.arange(self.n) * self.h).reshape(reshape)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate values along ``axis`` broadcast to the grid shape."""
        return np.broadcast_to(self.axis_line(axis), self.shape).copy()


def _check_denominator(den) -> None:
    if np.min(np.abs(den)) < 1e-300:
        raise EvaluationDomainError("division by a value with magnitude < 1e-300")


def _power(base, n: int):
    if n < 0 and np.min(np.abs(base)) < 1e-300:
        raise EvaluationDomainError("negative power of a value too close to zero")
    return base ** n


def _const(value) -> Callable:
    return lambda args: value


def _emit(node: Expr, kids: list, inputs: Mapping[VarId, object]):
    """The folded value of ``node``, or its closure over the call-time
    arrays, from those of its children.

    A folded value is a float or an array and a closure is callable, so a
    node folds when none of its children is callable.  ``inputs`` holds
    each variable's fixed array or call-time reader.
    """
    if isinstance(node, Const):
        return float(node.value)
    if isinstance(node, Var):
        return inputs[node.var]
    if isinstance(node, (Sum, Prod)):
        return _fold_chain(operator.add if isinstance(node, Sum) else operator.mul, kids)
    if isinstance(node, Pow):
        n = node.exponent
        base = kids[0]
        if not callable(base):
            return _power(base, n)
        return lambda args: _power(base(args), n)
    if isinstance(node, Quot):
        num, den = kids
        if not callable(den):
            _check_denominator(den)
            if not callable(num):
                return num / den
            return lambda args: num(args) / den
        fn = num if callable(num) else _const(num)

        def run_div(args):
            d = den(args)
            _check_denominator(d)
            return fn(args) / d
        return run_div
    op = getattr(np, node.func)
    arg = kids[0]
    if not callable(arg):
        return op(arg)
    return lambda args: op(arg(args))


def _fold_chain(combine: Callable, kids: list):
    """A sum or product, combined left to right.

    The fixed operands fold, in their order, into one accumulator that
    stands where the first of them stood.
    """
    acc, acc_at, parts = None, -1, []
    for r in kids:
        if callable(r):
            parts.append(r)
        elif acc_at < 0:
            acc, acc_at = r, len(parts)
            parts.append(None)
        else:
            acc = combine(acc, r)
    if not any(map(callable, kids)):
        return acc
    if acc_at >= 0:
        parts[acc_at] = _const(acc)
    first, rest = parts[0], parts[1:]

    def run_chain(args):
        out = first(args)
        for f in rest:
            out = combine(out, f(args))
        return out
    return run_chain


def compile_numeric(e: Expr | Sequence[Expr], var_axes: Mapping[VarId, int],
                    fixed: Mapping[VarId, np.ndarray] | None = None) -> Callable:
    """Compile an expression, or a batch of them sharing one DAG, into a
    vectorized evaluator.

    ``var_axes`` maps each variable read at call time to an index into the
    array sequence the compiled function receives.  ``fixed`` maps
    variables to arrays known now, typically coordinate lines that
    broadcast against the grid (``Grid.axis_line``).  The batch's distinct
    nodes compile once each, in one forward pass in post-order, so each is
    built from its children's results and nothing recurses.  Every node
    whose variables are all fixed is evaluated here, once, and dropped
    after its last use; in a sum or product the fixed operands fold, in
    their order, into one accumulator that stands where the first of them
    stood.  The rest compiles to closures whose intermediates die as they
    return.

    Division and negative powers raise ``EvaluationDomainError`` on
    magnitudes below 1e-300, matching scalar evaluation: once, here, for a
    folded operand, and on every call for one that is read at call time.
    A folded value that overflows or turns invalid raises it here too.

    The evaluator returns a float array for one expression and a list of
    them for a sequence.  A folded result keeps the broadcast shape of its
    fixed inputs and is the same read-only array on every call.
    """
    single = isinstance(e, Expr)
    roots = [e] if single else list(e)
    inputs = {v: operator.itemgetter(i) for v, i in var_axes.items()}
    inputs.update(fixed or {})
    order = post_order(roots)
    uses = Counter(roots)
    for node, kids in order:
        if isinstance(node, Var) and node.var not in inputs:
            raise GridError(f"variable '{node.var.name}' is not mapped to a grid input")
        uses.update(kids)
    done: dict[Expr, object] = {}
    with np.errstate(over="raise", invalid="raise"):
        for node, kids in order:
            try:
                done[node] = _emit(node, [done[k] for k in kids], inputs)
            except (OverflowError, FloatingPointError):   # a folded value overflowed or is NaN
                raise EvaluationDomainError("a value too large for a double") from None
            for k in kids:
                uses[k] -= 1
                if not uses[k]:
                    del done[k]
    fns = []
    for root in roots:
        out = done[root]
        if not callable(out):
            out = np.asarray(out, dtype=float).view()
            out.flags.writeable = False
            out = _const(out)
        fns.append(out)

    def evaluate(args: Sequence[np.ndarray] = ()):
        outs = [np.asarray(f(args), dtype=float) for f in fns]
        return outs[0] if single else outs

    return evaluate


_PROBE_FRACTIONS = (0.0, 0.17, 0.391, 0.553, 0.742, 0.918)
PERIODIC_TOL = 1e-9


def check_periodic(e: Expr, grid: Grid, var_axes: Mapping[VarId, int],
                   axes: Sequence[int] | None = None) -> bool:
    """True when e evaluates 2pi-periodically along each of ``axes``.

    ``axes`` defaults to every grid axis.
    """
    fn = compile_numeric(e, var_axes)
    base_points = np.array([[f * TWO_PI for f in _PROBE_FRACTIONS]] * grid.dim)
    # probe the full cartesian set axis by axis
    coords = [base_points[a] for a in range(grid.dim)]
    mesh = np.meshgrid(*coords, indexing="ij")
    args = [mesh[a].ravel() for a in range(grid.dim)]
    with np.errstate(over="ignore", invalid="ignore"):   # discretize's fold reports it
        ref = fn(args)
        scale = 1.0 + float(np.max(np.abs(ref)))
        for axis in range(grid.dim) if axes is None else axes:
            shifted = [a.copy() for a in args]
            shifted[axis] = shifted[axis] + TWO_PI
            if np.max(np.abs(fn(shifted) - ref)) > PERIODIC_TOL * scale:
                return False
    return True


def discretize(e: Expr, grid: Grid, var_axes: Mapping[VarId, int],
               allow_aperiodic: bool = False) -> np.ndarray:
    """Pointwise samples of e on the grid nodes, as an array of grid shape.

    ``var_axes`` maps each variable to its grid axis.  Every coordinate is
    fixed to its axis line, so the compiler folds the whole expression:
    each distinct subtree is evaluated once, on as many points as its
    variables span, in the order the expression gives.

    Rejects data that does not evaluate periodically unless explicitly
    overridden; silent Gibbs artifacts are worse than friction.
    """
    if not allow_aperiodic and not check_periodic(e, grid, var_axes):
        raise AperiodicDataError(
            "non-periodic data on a periodic grid (pass allow_aperiodic to override)")
    fixed = {v: grid.axis_line(axis) for v, axis in var_axes.items()}
    out = np.broadcast_to(compile_numeric(e, {}, fixed)(), grid.shape).copy()
    if not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(out))[0]
        raise EvaluationDomainError(f"evaluation failed at node {tuple(int(i) for i in bad)}")
    return out


def spatial_derivative(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order periodic central difference along ``axis``.

    The neighbour differences u_{j+1} - u_{j-1} and u_{j+2} - u_{j-2} are
    each one subtraction of two shifts of the flattened C-ordered ``u``, by
    one and two planes along ``axis``.  A flat shift crosses into the next
    line where the stencil wraps, so the planes it gets wrong (0 and n-1,
    and also 1 and n-2 for the wide difference) are then recomputed from
    their periodic neighbours.  A contiguous ``u``, such as a component of
    a component-major state, is read without a copy; any other is copied
    first.  Needs at least 4 points along ``axis``.  Grouped as
    differences so constant fields differentiate to exact zero, and
    bitwise equal to the same formula on ``np.roll`` shifts.
    """
    n = u.shape[axis]
    if n < 4:
        raise GridError(f"a derivative needs at least 4 points along its axis, got {n}")
    f = u.ravel()
    N, s = f.size, math.prod(u.shape[axis + 1:])
    # scratch d2 below the returned d1: freed, it is reused by the next
    # call rather than trimmed from the top of the heap and faulted in again
    d2, d1 = np.empty_like(f), np.empty_like(f)
    np.subtract(f[2 * s:], f[:N - 2 * s], out=d1[s:N - s])
    np.subtract(f[4 * s:], f[:N - 4 * s], out=d2[2 * s:N - 2 * s])
    # as (lines before, axis, points after), the wrapped planes are [:, j]
    g, w1, w2 = f.reshape(-1, n, s), d1.reshape(-1, n, s), d2.reshape(-1, n, s)
    np.subtract(g[:, 1], g[:, n - 1], out=w1[:, 0])
    np.subtract(g[:, 0], g[:, n - 2], out=w1[:, n - 1])
    np.subtract(g[:, 2:4], g[:, n - 2:], out=w2[:, :2])
    np.subtract(g[:, :2], g[:, n - 4:n - 2], out=w2[:, n - 2:])
    # (8 d1 - d2) / (12 h), in place in the fresh array d1
    d1 *= 8.0
    d1 -= d2
    d1 /= 12.0 * h
    return d1.reshape(u.shape)


def quadrature(u: np.ndarray, h: float, dim: int) -> float:
    """h^d * sum(u): the torus trapezoid rule, summed in fixed index order."""
    return float(h ** dim * np.sum(u, dtype=np.float64))


def rk4_step(state: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray],
             dt: float, step_index: int = 0) -> np.ndarray:
    """One classical Runge-Kutta step; aborts on non-finite output."""
    if dt <= 0:
        raise GridError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):   # the abort reports it once
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NumericalAbortError(step_index)
    return out
