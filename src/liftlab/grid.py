"""Periodic uniform grids on [0, 2pi)^d, stencils, quadrature, RK4.

Spatial derivatives use the 4th-order central stencil delta u / (12 h),
with the undivided difference delta u = 8 (u_{j+1} - u_{j-1}) -
(u_{j+2} - u_{j-2}) computed on flat shifts of a contiguous array, such
as one component of the simulation's component-major state, with the
wrapped planes fixed up one plane at a time; quadrature is the torus
trapezoid rule h^d * sum, spectrally accurate for smooth periodic data.
All reductions run in fixed index order so results are bitwise
reproducible.

``compile_numeric`` evaluates expressions over fixed arrays, such as the
grid's coordinate lines, in one forward pass over their distinct nodes
in ``expr.post_order``, with no recursion.  ``stencil_calls`` lists the
calls of one undivided difference on views of its arrays, with no
divide.  A ``LinearPlan`` evaluates rates that are sums of coefficients
times state components or their undivided differences, the 1/(12 h)
folded into a stencil term's coefficient when the plan is built, so a
stencil term is bitwise (c / (12 h)) delta u, not c (delta u / (12 h));
its calls are bound once per pair of state and rate arrays to views of
them and of the two buffers it owns.  ``rk4_step`` writes into
buffers its caller passes, and ``march`` steps a state with RK4 in
buffers it allocates once, so a method-of-lines step allocates no
whole-grid array and builds no view.

Every whole-grid buffer that a step writes comes from ``aligned_empty``
and starts on a 64-byte cache line: ``np.empty`` starts an array of
128 KB or more 16 bytes past one, after glibc's mmap chunk header, and
every vector store of an out-of-place ufunc into it then splits across
two lines.  The values are bitwise the same either way.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .expr import (
    Const, EvaluationDomainError, Expr, ExprError, Pow, Prod, Quot, Sum, Var,
    VarId, is_periodic, post_order,
)

__all__ = [
    "Grid", "GridError", "AperiodicDataError", "NumericalAbortError", "compile_numeric",
    "discretize", "stencil_calls", "LinearPlan", "quadrature", "rk4_step", "march",
    "aligned_empty",
]

TWO_PI = 2.0 * math.pi


class GridError(ExprError):
    pass


class AperiodicDataError(GridError):
    """Data is not decided 2pi-periodic (``expr.is_periodic``) in the
    coordinate of a grid axis; the message names the coordinate."""


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


def aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of ``shape`` whose data
    starts on a 64-byte boundary: a view of one 8 elements longer.

    Only the array's start is on a cache line.  A component view
    ``a[j]`` of a (k, n, ..., n) state starts on one too when the size
    of a component is a multiple of 8 elements: always in 3-D for even
    n, but not in 2-D when n = 2 (mod 4), nor in 1-D unless 8 divides n.
    """
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start:start + size].reshape(shape)


def _check_denominator(den) -> None:
    """Raise unless every value of ``den`` has magnitude >= 1e-300."""
    if np.min(np.abs(den)) < 1e-300:
        raise EvaluationDomainError("division by a value with magnitude < 1e-300")


def _check_power_base(base) -> None:
    """The same check for the base of a negative power."""
    if np.min(np.abs(base)) < 1e-300:
        raise EvaluationDomainError("negative power of a value too close to zero")


def _fold(node: Expr, kids: list, fixed: Mapping[VarId, np.ndarray]):
    """The value of ``node`` from those of its children: a numpy scalar or
    an array of the broadcast shape of its variables' arrays."""
    if isinstance(node, Const):
        # a numpy scalar: Python float arithmetic overflows to inf silently
        return np.float64(node.value)
    if isinstance(node, Var):
        return fixed[node.var]
    if isinstance(node, (Sum, Prod)):
        return functools.reduce(operator.add if isinstance(node, Sum) else operator.mul, kids)
    if isinstance(node, Pow):
        if node.exponent < 0:
            _check_power_base(kids[0])
        return kids[0] ** node.exponent
    if isinstance(node, Quot):
        _check_denominator(kids[1])
        return kids[0] / kids[1]
    return getattr(np, node.func)(kids[0])


def compile_numeric(e: Expr | Sequence[Expr], fixed: Mapping[VarId, np.ndarray]):
    """The value of an expression, or the values of a batch of them
    sharing one DAG, with every variable fixed to an array.

    ``fixed`` maps each variable to its array, typically a coordinate line
    that broadcasts against the grid (``Grid.axis_line``), so each node is
    evaluated on as many points as its variables span.  The batch's
    distinct nodes are evaluated once each, in one forward pass in
    post-order, so each is built from its children's values and nothing
    recurses; a sum or product combines its operands left to right, and a
    value is dropped after its last use.  A value is a numpy scalar or an
    array of the broadcast shape of its variables' arrays, one for an
    expression and a list of them for a batch.

    Division and negative powers raise ``EvaluationDomainError`` on
    magnitudes below 1e-300, matching scalar evaluation, and so does a
    value that overflows or turns invalid.
    """
    single = isinstance(e, Expr)
    roots = [e] if single else list(e)
    order = post_order(roots)
    uses = Counter(roots)
    for node, kids in order:
        if isinstance(node, Var) and node.var not in fixed:
            raise GridError(f"variable '{node.var.name}' is not mapped to a grid input")
        uses.update(kids)
    done: dict[Expr, object] = {}
    with np.errstate(over="raise", invalid="raise"):
        for node, kids in order:
            try:
                done[node] = _fold(node, [done[k] for k in kids], fixed)
            except (OverflowError, FloatingPointError):   # past the doubles, or NaN
                raise EvaluationDomainError("a value too large for a double") from None
            for k in kids:
                uses[k] -= 1
                if not uses[k]:
                    del done[k]
    return done[e] if single else [done[r] for r in roots]


def discretize(e: Expr, grid: Grid, var_axes: Mapping[VarId, int],
               allow_aperiodic: bool = False) -> np.ndarray:
    """Pointwise samples of e on the grid nodes, as an array of grid shape.

    ``var_axes`` maps each variable to its grid axis.  Every coordinate is
    fixed to its axis line, so each distinct subtree is evaluated once
    (``compile_numeric``), on as many points as its variables span, in
    the order the expression gives.

    Refuses data that is not decided 2pi-periodic (``expr.is_periodic``)
    in every variable of ``var_axes`` unless explicitly overridden; silent
    Gibbs artifacts are worse than friction.
    """
    for v in var_axes:
        if not (allow_aperiodic or is_periodic(e, v)):
            raise AperiodicDataError("non-periodic data on a periodic grid: not decided "
                                     f"2pi-periodic in {v} (pass allow_aperiodic to override)")
    fixed = {v: grid.axis_line(axis) for v, axis in var_axes.items()}
    return np.broadcast_to(compile_numeric(e, fixed), grid.shape).copy()


def stencil_calls(u: np.ndarray, axis: int,
                  out: tuple[np.ndarray, np.ndarray]) -> list[tuple]:
    """The undivided 4th-order periodic central difference along ``axis``
    of ``u``, delta u = 8 (u_{j+1} - u_{j-1}) - (u_{j+2} - u_{j-2}), into
    ``out[0]``, as calls ``(fn, (*operands, out))`` on views of ``u`` and
    ``out``, run in order as ``fn(*args)``.  The derivative is
    delta u / (12 h); the caller folds the 1/(12 h) into the coefficient
    that multiplies delta u (``LinearPlan``), so no call divides.

    ``u`` is C-contiguous, as each component of a component-major state
    is.  ``out`` is two C-contiguous float arrays of its size: the
    difference d1 and a scratch d2 for the wide difference.  Each of
    u_{j+1} - u_{j-1} and u_{j+2} - u_{j-2} is one subtraction of two flat
    shifts of ``u``, by one and two planes along ``axis``.  The planes a
    flat shift gets wrong where the stencil wraps (0 and n-1, and also 1
    and n-2 for the wide difference) are then recomputed from their
    periodic neighbours, one plane per call.  Needs at least 4 points
    along ``axis``.  Grouped as differences so constant fields
    differentiate to exact zero, and bitwise equal to the same formula on
    ``np.roll`` shifts.
    """
    n = u.shape[axis]
    if n < 4:
        raise GridError(f"a derivative needs at least 4 points along its axis, got {n}")
    if not all(b.flags.c_contiguous and b.size == u.size for b in (u, *out)):
        raise GridError("a derivative needs a C-contiguous input and out arrays of its size")
    f = u.reshape(-1)
    N, s = f.size, math.prod(u.shape[axis + 1:])
    d1, d2 = (b.reshape(-1) for b in out)
    # as (lines before, axis, points after), the wrapped planes are [:, j]
    g, w1, w2 = f.reshape(-1, n, s), d1.reshape(-1, n, s), d2.reshape(-1, n, s)
    return [
        (np.subtract, (f[2 * s:], f[:N - 2 * s], d1[s:N - s])),
        (np.subtract, (f[4 * s:], f[:N - 4 * s], d2[2 * s:N - 2 * s])),
        *((np.subtract, (g[:, (j + 1) % n], g[:, j - 1], w1[:, j])) for j in (0, n - 1)),
        *((np.subtract, (g[:, (j + 2) % n], g[:, j - 2], w2[:, j])) for j in (0, 1, n - 2, n - 1)),
        # 8 d1 - d2, in place in d1
        (np.multiply, (d1, 8.0, d1)),
        (np.subtract, (d1, d2, d1)),
    ]


class LinearPlan:
    """Rates that are linear in a component-major state on ``grid``, called
    as ``rhs(state, out)``.

    ``terms[l]`` lists rate l as terms ``(j, a, c)``: the coefficient c, a
    float or an array that broadcasts against the grid, times component j
    of the state when ``a`` is None and its undivided stencil difference
    delta_a (``stencil_calls``) otherwise, so the coefficient of a stencil
    term carries the stencil's 1/(12 h) and no call divides.  A stencil
    is computed into ``slot``, with ``scratch`` as its wide difference,
    just before the term that reads it.  A call writes each rate into
    ``out[l]``: its first term with one multiply, and each further term
    with one multiply, in place in ``slot`` for a stencil and into
    ``scratch`` for a component, and one add.

    The calls are bound to each (state, out) pair as one flat list on views
    of them (``bind``), and the lists of the last four pairs, the four of
    one ``march``, are kept, keyed on the identity of ``state`` and ``out``.
    An entry holds the arrays it is keyed on, so no id is reused while it
    lives.  ``binds`` counts the binds; ``nterms`` and ``nstencils`` count
    the terms and the stencils of one call.
    """

    def __init__(self, grid: Grid, terms: list[list[tuple]]):
        self.terms = terms
        self.slot, self.scratch = aligned_empty(grid.shape), aligned_empty(grid.shape)
        self.nterms = sum(map(len, terms))
        self.nstencils = sum(a is not None for row in terms for _, a, _ in row)
        self.bound, self.binds = {}, 0

    def bind(self, state: np.ndarray, out: np.ndarray) -> list[tuple]:
        """The calls of one evaluation from ``state`` into ``out``, as
        ``(fn, (*operands, out))``: a positional ``out`` costs less to pass
        than a keyword."""
        calls = []
        for dest, row in zip(out, self.terms):
            if not row:
                calls.append((np.copyto, (dest, 0.0)))
            for i, (j, a, c) in enumerate(row):
                s = state[j]
                if a is not None:
                    calls += stencil_calls(s, a, (self.slot, self.scratch))
                    s = self.slot
                if i == 0:
                    calls.append((np.multiply, (c, s, dest)))
                else:
                    tmp = self.scratch if a is None else s
                    calls += [(np.multiply, (c, s, tmp)), (np.add, (dest, tmp, dest))]
        self.binds += 1
        return calls

    def __call__(self, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        key = (id(state), id(out))
        entry = self.bound.pop(key, None)
        if entry is None:
            entry = (state, out), self.bind(state, out)
            if len(self.bound) == 4:
                del self.bound[next(iter(self.bound))]
        self.bound[key] = entry
        for fn, operands in entry[1]:
            fn(*operands)
        return out


def quadrature(u: np.ndarray, h: float, dim: int) -> float:
    """h^d * sum(u): the torus trapezoid rule, summed in fixed index order."""
    return float(h ** dim * np.sum(u, dtype=np.float64))


def rk4_step(state: np.ndarray, rhs: Callable[[np.ndarray, np.ndarray], object],
             dt: float, step_index: int, *, out: np.ndarray,
             work: Sequence[np.ndarray]) -> np.ndarray:
    """One classical Runge-Kutta step from ``state``, written into ``out``
    and returned; aborts on non-finite output.

    ``rhs(u, k)`` writes the rate at ``u`` into ``k``.  ``work`` holds two
    arrays of the state's shape, neither of them ``state`` or ``out``: the
    weighted sum of the rates and the current rate: two arrays, not views
    made anew, so an ``rhs`` bound to its arrays (a ``LinearPlan``) meets the
    same ones on every step.  ``out`` holds each
    stage input, state + (dt/2) k1, state + (dt/2) k2 and state + dt k3,
    until it receives state + (dt/6) ((k1 + 2 k2 + 2 k3) + k4), summed in
    that order, so the values are bitwise those of the same expression on
    fresh arrays.  ``march`` swaps ``state`` and ``out`` for the next step.
    """
    if dt <= 0:
        raise GridError("dt must be positive")
    acc, k = work
    stage = out
    with np.errstate(over="ignore", invalid="ignore"):   # the abort reports it once
        rhs(state, acc)                          # k1
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += state
        rhs(stage, k)                            # k2
        np.multiply(k, 2.0, out=stage)
        acc += stage
        np.multiply(k, 0.5 * dt, out=stage)
        stage += state
        rhs(stage, k)                            # k3
        np.multiply(k, 2.0, out=stage)
        acc += stage
        np.multiply(k, dt, out=stage)
        stage += state
        rhs(stage, k)                            # k4
        acc += k
        np.multiply(acc, dt / 6.0, out=out)
        out += state
    # min and max propagate NaN and hold any infinity, and allocate nothing
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise NumericalAbortError(step_index)
    return out


def march(state: np.ndarray, rhs: Callable[[np.ndarray, np.ndarray], object],
          dt: float, steps: int) -> Iterator[tuple[int, np.ndarray]]:
    """Take ``steps`` RK4 steps from ``state``, yielding ``(step, state)``
    after each, for step = 1, ..., ``steps``; ``steps = 0`` yields nothing.

    The spare state and ``rk4_step``'s two work arrays are allocated once,
    on cache lines (``aligned_empty``), so ``rhs`` sees four (state, rate)
    pairs in all.
    Each step writes into the array the step before it read, so the
    yielded states alternate between ``state`` itself and the spare, and
    each is overwritten two steps later: read a state before taking the
    next one.  A non-finite step raises ``NumericalAbortError``.
    """
    spare, *work = (aligned_empty(state.shape) for _ in range(3))
    for step in range(1, steps + 1):
        state, spare = rk4_step(state, rhs, dt, step, out=spare, work=work), state
        yield step, state
