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
recursion; an evaluator is one list of numpy ufunc calls, with the calls
that compute a variable from an input (``stencil_calls``, say), bound
once per pair of input and output arrays to views of them and of the
slots it owns.  ``spatial_derivative`` and ``rk4_step`` write into
buffers their caller passes, and ``march`` steps a state with RK4 in
buffers it allocates once, so a method-of-lines step allocates no
whole-grid array and builds no view.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .expr import (
    Const, EvaluationDomainError, Expr, ExprError, Pow, Prod, Quot, Sum, Var,
    VarId, post_order,
)

__all__ = [
    "Grid", "GridError", "AperiodicDataError",
    "NumericalAbortError", "compile_numeric", "discretize",
    "spatial_derivative", "stencil_calls", "quadrature", "rk4_step", "march",
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


def _check_denominator(den, out=None) -> None:
    """Raise unless every value of ``den`` has magnitude >= 1e-300;
    ``out``, if given, receives the magnitudes."""
    if np.min(np.abs(den, out=out)) < 1e-300:
        raise EvaluationDomainError("division by a value with magnitude < 1e-300")


def _check_power_base(base, out=None) -> None:
    """The same check for the base of a negative power."""
    if np.min(np.abs(base, out=out)) < 1e-300:
        raise EvaluationDomainError("negative power of a value too close to zero")


def _power(base, n: int):
    if n < 0:
        _check_power_base(base)
    return base ** n


def _copy(src, out) -> None:
    np.copyto(out, src)


@dataclass(frozen=True)
class _Computed:
    """A variable computed at call time by the calls that
    ``fn(args[arg], out)`` returns, as ``stencil_calls`` returns them."""

    fn: Callable
    arg: tuple[str, int]


def _dynamic(value) -> bool:
    """True for a register read at call time, False for a folded value."""
    return isinstance(value, tuple)


def _chain_operands(combine: Callable, kids: list) -> list:
    """The operands of a sum or product, in their order, with the folded
    ones combined left to right into one that stands where the first of
    them stood.  With no call-time operand this is the folded value alone.
    """
    acc, acc_at, parts = None, -1, []
    for r in kids:
        if _dynamic(r):
            parts.append(r)
        elif acc_at < 0:
            acc, acc_at = r, len(parts)
            parts.append(None)
        else:
            acc = combine(acc, r)
    if acc_at >= 0:
        parts[acc_at] = acc
    return parts


class _Program:
    """Instructions in post-order over registers: the folded operands, the
    slots, one output per root, and the call-time inputs.

    ``emit`` appends one ufunc call writing into its destination.  A
    node's destination is its root's output when it is a root, and
    otherwise a slot from the free list, taken before its children's
    slots go back to the list, so no instruction writes over an operand
    it still has to read.
    """

    def __init__(self, roots: list[Expr]):
        self.root_of: dict[Expr, int] = {}
        for l, r in enumerate(roots):
            self.root_of.setdefault(r, l)
        self.consts: list = []
        self.code: list = []
        self.free: list[int] = []
        self.nslots = 0

    def dest(self, node: Expr) -> tuple[str, int]:
        if node in self.root_of:
            return ("root", self.root_of[node])
        if self.free:
            return ("slot", self.free.pop())
        self.nslots += 1
        return ("slot", self.nslots - 1)

    def release(self, value) -> None:
        if _dynamic(value) and value[0] == "slot":
            self.free.append(value[1])

    def operand(self, value) -> tuple[str, int]:
        if _dynamic(value):
            return value
        self.consts.append(value)
        return ("const", len(self.consts) - 1)

    def emit(self, fn: Callable, ins, out: tuple[str, int]) -> None:
        self.code.append((fn, [self.operand(v) for v in ins], out))

    def registers(self, nroots: int) -> tuple[dict[str, int], list]:
        """The offset of each register kind, and the code on flat indices."""
        at = {"const": 0, "slot": len(self.consts)}
        at["root"] = at["slot"] + self.nslots
        at["arg"] = at["root"] + nroots
        code = [(fn, tuple(at[k] + i for k, i in ins), at[out[0]] + out[1])
                for fn, ins, out in self.code]
        return at, code


def _emit(node: Expr, kids: list, inputs: Mapping[VarId, object], prog: _Program):
    """The folded value of ``node``, or the register its instructions
    write, from those of its children.

    A folded value is a float or an array and a register is a tuple, so a
    node folds when none of its children is a register.  ``inputs`` holds
    each variable's fixed array, call-time register or ``_Computed``
    binding; a computed variable is emitted here, at its first use.
    """
    if isinstance(node, Const):
        # a numpy scalar: Python float arithmetic overflows to inf silently
        return np.float64(node.value)
    if isinstance(node, Var):
        value = inputs[node.var]
        if not isinstance(value, _Computed):
            return value
        out = prog.dest(node)
        prog.emit(value, (value.arg,), out)
        return out
    dynamic = any(map(_dynamic, kids))
    if isinstance(node, (Sum, Prod)):
        combine = operator.add if isinstance(node, Sum) else operator.mul
        parts = _chain_operands(combine, kids)
        if not dynamic:
            return parts[0]
        out = prog.dest(node)
        if len(parts) == 1:
            prog.emit(_copy, parts, out)
        ufunc = np.add if isinstance(node, Sum) else np.multiply
        for i in range(1, len(parts)):
            prog.emit(ufunc, (parts[0] if i == 1 else out, parts[i]), out)
        return out
    if isinstance(node, Pow):
        n = node.exponent
        if not dynamic:
            return _power(kids[0], n)
        out = prog.dest(node)
        if n < 0:
            prog.emit(_check_power_base, kids, out)
        # the ufuncs that ndarray ** n calls, for the same bits
        if n == 2:
            prog.emit(np.square, kids, out)
        elif n == -1:
            prog.emit(np.reciprocal, kids, out)
        else:
            prog.emit(np.power, (kids[0], n), out)
        return out
    if isinstance(node, Quot):
        num, den = kids
        if not _dynamic(den):
            _check_denominator(den)
            if not dynamic:
                return num / den
        out = prog.dest(node)
        if _dynamic(den):
            prog.emit(_check_denominator, (den,), out)
        prog.emit(np.true_divide, kids, out)
        return out
    op = getattr(np, node.func)
    if not dynamic:
        return op(kids[0])
    out = prog.dest(node)
    prog.emit(op, kids, out)
    return out


def compile_numeric(e: Expr | Sequence[Expr], var_axes: Mapping[VarId, int],
                    fixed: Mapping[VarId, np.ndarray] | None = None,
                    computed: Mapping[VarId, tuple[int, Callable]] | None = None
                    ) -> Callable:
    """Compile an expression, or a batch of them sharing one DAG, into a
    vectorized evaluator.

    ``var_axes`` maps each variable read at call time to an index into the
    array sequence the compiled function receives.  ``fixed`` maps
    variables to arrays known now, typically coordinate lines that
    broadcast against the grid (``Grid.axis_line``).  ``computed`` maps
    variables computed at call time to pairs ``(i, fn)``: the value is
    what the calls that ``fn(args[i], out)`` returns write into ``out``,
    such as the ``stencil_calls`` of a call-time input.  The batch's distinct nodes compile
    once each, in one forward pass in post-order, so each is built from
    its children's results and nothing recurses.  Every node
    whose variables are all fixed is evaluated here, once, and dropped
    after its last use; in a sum or product the fixed operands fold, in
    their order, into one accumulator that stands where the first of them
    stood.  The rest compiles to one list of numpy ufunc calls in
    post-order, each writing with ``out=`` into a slot that the evaluator
    owns: a slot is taken from a free list and goes back to it after the
    last use of its node, so a call allocates no intermediate array.  A
    computed variable is one more such instruction, emitted at its first
    use: its calls write into a free slot, or into its root's ``out`` when
    the variable is a root, and the slot goes back after its last use.

    Division and negative powers raise ``EvaluationDomainError`` on
    magnitudes below 1e-300, matching scalar evaluation: once, here, for a
    folded operand, and on every call for one that is read at call time.
    A folded value that overflows or turns invalid raises it here too.

    The evaluator ``evaluate(args, out)`` takes the call-time arrays and
    the arrays to write: one for one expression, a sequence of them (or
    one array indexed by root) for a batch.  Every computed root writes
    straight into its ``out``, and a root that is folded or a bare input
    is copied there, broadcast to its shape.  It returns ``out``.  The
    evaluator binds the code to each (args, out) pair as one flat list of
    calls on views, and keeps the lists of the last four (``_Evaluator``),
    so pass the same arrays, not new views of them.  The slots have the
    broadcast shape of every input and output, and are reallocated when
    that shape changes; as they are shared by the calls, one evaluator
    serves one caller at a time.
    """
    single = isinstance(e, Expr)
    roots = [e] if single else list(e)
    inputs = {v: ("arg", i) for v, i in var_axes.items()}
    inputs.update(fixed or {})
    inputs.update({v: _Computed(fn, ("arg", i)) for v, (i, fn) in (computed or {}).items()})
    order = post_order(roots)
    uses = Counter(roots)
    for node, kids in order:
        if isinstance(node, Var) and node.var not in inputs:
            raise GridError(f"variable '{node.var.name}' is not mapped to a grid input")
        uses.update(kids)
    prog = _Program(roots)
    done: dict[Expr, object] = {}
    with np.errstate(over="raise", invalid="raise"):
        for node, kids in order:
            operands = [done[k] for k in kids]
            try:
                done[node] = _emit(node, operands, inputs, prog)
            except (OverflowError, FloatingPointError):   # a folded value overflowed or is NaN
                raise EvaluationDomainError("a value too large for a double") from None
            for k, value in zip(kids, operands):
                uses[k] -= 1
                if not uses[k]:
                    del done[k]
                    prog.release(value)
    # each root not computed in place is copied from a register
    copies = [(l, prog.operand(value)) for l, value in enumerate(map(done.get, roots))
              if not _dynamic(value) or value != ("root", l)]
    at, code = prog.registers(len(roots))
    code += [(_copy, (at[k] + i,), at["root"] + l) for l, (k, i) in copies]
    return _Evaluator(single, prog.consts, prog.nslots, code)


def _ids(x) -> int | tuple[int, ...]:
    """The identity of an array, or of each item of a sequence."""
    return id(x) if isinstance(x, np.ndarray) else tuple(map(id, x))


class _Evaluator:
    """A compiled plan, called as ``evaluate(args, out)``.  It keeps the
    bound calls of the last four (args, out) pairs, the four of one
    ``march``, keyed on the identity of ``args`` and ``out``, or of each
    item of one that is not an array.  An entry holds what it is keyed
    on, so no id is reused while it lives.  ``binds`` counts the binds."""

    def __init__(self, single: bool, consts: list, nslots: int, code: list):
        self.single, self.consts, self.nslots, self.code = single, consts, nslots, code
        self.const_shape = np.broadcast_shapes(*map(np.shape, consts))
        self.slot_shape, self.slots, self.bound, self.binds = None, [], {}, 0

    def bind(self, args, out) -> list[tuple]:
        """The calls of one evaluation from ``args`` into ``out``, with
        those that each computed variable adds, as ``(fn, (*operands,
        out))``: a positional ``out`` costs less to pass than a keyword."""
        dests = [out] if self.single else list(out)
        shape = np.broadcast_shapes(self.const_shape, *map(np.shape, args),
                                    *(d.shape for d in dests))
        if shape != self.slot_shape:
            self.slot_shape, self.slots = shape, [np.empty(shape) for _ in range(self.nslots)]
        regs = [*self.consts, *self.slots, *dests, *args]
        calls = []
        for fn, ins, o in self.code:
            operands = [regs[i] for i in ins]
            calls += fn.fn(*operands, regs[o]) if isinstance(fn, _Computed) \
                else [(fn, operands, regs[o])]
        self.binds += 1
        return [(fn, (*operands, dest)) for fn, operands, dest in calls]

    def __call__(self, args: Sequence[np.ndarray], out):
        key = (_ids(args), _ids(out))
        entry = self.bound.pop(key, None)
        if entry is None:
            held = [x if isinstance(x, np.ndarray) else tuple(x) for x in (args, out)]
            entry = held, self.bind(args, out)
            if len(self.bound) == 4:
                del self.bound[next(iter(self.bound))]
        self.bound[key] = entry
        for fn, operands in entry[1]:
            fn(*operands)
        return out


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
    ref, value = np.empty(args[0].shape), np.empty(args[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):   # discretize's fold reports it
        fn(args, ref)
        scale = 1.0 + float(np.max(np.abs(ref)))
        for axis in range(grid.dim) if axes is None else axes:
            shifted = [a.copy() for a in args]
            shifted[axis] = shifted[axis] + TWO_PI
            if np.max(np.abs(fn(shifted, value) - ref)) > PERIODIC_TOL * scale:
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
    return compile_numeric(e, {}, fixed)((), np.empty(grid.shape))


def stencil_calls(u: np.ndarray, axis: int, h: float,
                  out: tuple[np.ndarray, np.ndarray]) -> list[tuple]:
    """The calls ``fn(*operands, out=out)`` of ``spatial_derivative``, as
    ``(fn, operands, out)`` on views of ``u`` and ``out``."""
    n = u.shape[axis]
    if n < 4:
        raise GridError(f"a derivative needs at least 4 points along its axis, got {n}")
    if not all(b.flags.c_contiguous and b.size == u.size for b in out):
        raise GridError("a derivative needs two C-contiguous out arrays of its input's size")
    calls = []
    if not u.flags.c_contiguous:
        copy = np.empty(u.shape, u.dtype)
        calls.append((_copy, (u,), copy))
        u = copy
    f = u.reshape(-1)
    N, s = f.size, math.prod(u.shape[axis + 1:])
    d1, d2 = (b.reshape(-1) for b in out)
    # as (lines before, axis, points after), the wrapped planes are [:, j]
    g, w1, w2 = f.reshape(-1, n, s), d1.reshape(-1, n, s), d2.reshape(-1, n, s)
    return calls + [
        (np.subtract, (f[2 * s:], f[:N - 2 * s]), d1[s:N - s]),
        (np.subtract, (f[4 * s:], f[:N - 4 * s]), d2[2 * s:N - 2 * s]),
        (np.subtract, (g[:, 1], g[:, n - 1]), w1[:, 0]),
        (np.subtract, (g[:, 0], g[:, n - 2]), w1[:, n - 1]),
        (np.subtract, (g[:, 2:4], g[:, n - 2:]), w2[:, :2]),
        (np.subtract, (g[:, :2], g[:, n - 4:n - 2]), w2[:, n - 2:]),
        # (8 d1 - d2) / (12 h), in place in d1
        (np.multiply, (d1, 8.0), d1),
        (np.subtract, (d1, d2), d1),
        (np.true_divide, (d1, 12.0 * h), d1),
    ]


def spatial_derivative(u: np.ndarray, axis: int, h: float, *,
                       out: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """4th-order periodic central difference along ``axis``, written into
    ``out[0]`` and returned: the calls of ``stencil_calls``, run once.

    ``out`` is a pair of C-contiguous float arrays of ``u``'s size: the
    derivative d1, and a scratch array d2 for the wide difference.  The
    neighbour differences u_{j+1} - u_{j-1} and u_{j+2} - u_{j-2} are each
    one subtraction of two shifts of the flattened C-ordered ``u``, by one
    and two planes along ``axis``.  A flat shift crosses into the next
    line where the stencil wraps, so the planes it gets wrong (0 and n-1,
    and also 1 and n-2 for the wide difference) are then recomputed from
    their periodic neighbours.  A contiguous ``u``, such as a component of
    a component-major state, is read without a copy; any other is copied
    first, by the first call.  Needs at least 4 points along ``axis``.
    Grouped as differences so constant fields differentiate to exact zero,
    and bitwise equal to the same formula on ``np.roll`` shifts.
    """
    for fn, operands, dest in stencil_calls(u, axis, h, out):
        fn(*operands, out=dest)
    return out[0]


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
    made anew, so a bound ``rhs`` (``compile_numeric``) meets the same
    ones on every step.  ``out`` holds each
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
    so ``rhs`` sees four (state, rate) pairs in all.
    Each step writes into the array the step before it read, so the
    yielded states alternate between ``state`` itself and the spare, and
    each is overwritten two steps later: read a state before taking the
    next one.  A non-finite step raises ``NumericalAbortError``.
    """
    spare, work = np.empty_like(state), (np.empty(state.shape), np.empty(state.shape))
    for step in range(1, steps + 1):
        state, spare = rk4_step(state, rhs, dt, step, out=spare, work=work), state
        yield step, state
