"""Method-of-lines models for the kinetic equations on periodic grids.

Each model compiles its symbolic right-hand side once into a pointwise
evaluation plan: an expression over (coordinates, state components,
first-jet variables), where the jet variables are realized as 4th-order
stencils of the state.  The models are the rows of one table,
``_RATES``: each row names the model's fibers, one per state component,
and its ``kinetics`` formula: ``contact_density_rhs``,
``vlasov_density_rhs``, or for both momentum models ``momentum_rhs_via_lift``
of the carrier field X_K or X_h (the vertical representative of the
cotangent lift read at the state).  A plan is the formula called on the jet
chart of its fibers, with the total derivative D_a as the formula's
derivative ``d``; the grid's dimension is that chart's base dimension.
The density map of the two-path harness (``studies``) is
``contact_density`` called the same way on the contact-momentum row's
fibers.

Every rate is linear in the state, since each is a lift applied to it, so
a model's plan is the rates' exact Jacobian: rate l is the sum of c_j s_j
over the fiber variables and the jet variables s_j, with coefficients
c_j = d rate_l / d s_j that depend on the coordinates alone.  The
coefficients are decided exactly and evaluated once, when the model is
built, on as many points as their coordinates span
(``grid.compile_numeric``); a rate that is not linear is refused.  A jet
variable u^l_a is read as the undivided difference delta_a u^l of
``grid.stencil_calls``, and its coefficient is evaluated as c_j / (12 h),
the stencil's scale folded in at build time, so no RHS call divides and
a stencil term is bitwise (c_j / (12 h)) delta_a u^l, not
c_j (delta_a u^l / (12 h)).  An RHS call computes only the stencils the
rates read and the sums of products.

The state is component-major: one C-contiguous array of shape
(k, n, ..., n), so each component is contiguous and its stencils are flat
shifts of it (``grid.stencil_calls``).  ``initial_state`` returns
this layout, and ``Model.rhs(state, out)`` reads it and writes the rates
into ``out`` in it.

A model owns the buffers of its RHS: its coefficients, one slot for a
stencil and one scratch array.  Each stencil is computed into the slot
just before the term that reads it, so a model keeps no array per
stencil.  Every loop over steps is one ``grid.march``, which owns the
rest of a step's buffers, the spare state and the two work arrays of
``grid.rk4_step``, each on a cache line (``grid.aligned_empty``), so a
step allocates no whole-grid array, and the plan
is bound once to each (state, rate) pair of ``march``, so a step builds
no view.  The buffers are shared by every call, so one run uses a model
at a time.  Output is written at t = 0, every ``cadence`` steps and the
last step (``_is_output``), by the run loop and the two-path harness
alike.  The run loop hands each trajectory snapshot to one writer child,
forked once per run (``_SnapshotWriter``): it copies the state into a
shared slot the size of the state and steps on while the child formats
the slot, and writes in-process only when it cannot fork.  The writer
writes one slab of fixed i at a time: every value is written as the
bytes of ``repr(float(v))``, found for a block of slabs at once with
numpy (``_repr_block``), and the few values that the vectorized method
cannot decide exactly are formatted by ``repr`` itself.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
import os
import re
import resource
import signal
import struct
import sys
import threading
import time
import warnings
from dataclasses import MISSING, InitVar, asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from . import __version__
from .expr import (
    ONE, ZERO, Const, Expr, ExprError, Quot, Var, VarId, free_vars, partial,
    substitute,
)
from .grid import (
    Grid, LinearPlan, NumericalAbortError, aligned_empty, compile_numeric, discretize,
    march, quadrature,
)
from .geometry import Chart, DifferentialForm, VolumeForm, one_form
from .jets import JetChart, total_derivative
from .kinetics import (
    ContactStructure, PlasmaParams, contact_density_rhs, contact_vector_field,
    momentum_rhs_via_lift, plasma_chart, plasma_hamiltonian, vlasov_density_rhs,
)
from .lifts import hamiltonian_vector_field
from .parser import parse_expr

__all__ = [
    "SimConfig", "ConfigError", "RunResult", "build_model", "run_simulation",
    "load_config", "MODELS",
]

# one row per model: its fibers, one per state component, and its kinetics
# formula f(structure, state, K or params, d); a momentum row has None, its
# rate being the lift of the carrier field
_RATES = {
    "contact-momentum": (("a_x", "a_y", "a_z"), None),
    "contact-density": (("L",), contact_density_rhs),
    "vlasov-momentum": (("P1", "P2"), None),
    "vlasov-density": (("f",), vlasov_density_rhs),
}
MODELS = tuple(_RATES)


class ConfigError(ExprError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run, and its one schema: the
    fields are the keys of a run.json and of a manifest's ``config`` block.
    Every config passes the checks here, from flags, a run.json or a
    library call; an integral float count becomes an ``int`` and a list
    ``init`` a tuple.  ``expr`` is the former name of ``K``."""

    model: str
    n: int
    dt: float
    steps: int
    K: str = ""                        # the generator, for contact models
    params: dict = field(default_factory=dict)   # m, e, phi for vlasov models
    init: tuple[str, ...] = ()
    cadence: int = 10
    out: str = "traj.csv"
    diag: str = "diag.csv"
    allow_aperiodic: bool = False
    expr: InitVar[str | None] = None

    def __post_init__(self, expr: str | None):
        if expr is not None:
            object.__setattr__(self, "K", expr)
        for key in ("model", "K", "out", "diag"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"config key '{key}' must be a string")
        if not isinstance(self.params, dict):
            raise ConfigError("config key 'params' must be an object")
        if not isinstance(self.allow_aperiodic, bool):
            raise ConfigError("config key 'allow_aperiodic' must be true or false")
        if not (isinstance(self.init, (list, tuple))
                and all(isinstance(c, str) for c in self.init)):
            raise ConfigError("config key 'init' must be a list of strings")
        object.__setattr__(self, "init", tuple(self.init))
        for key in ("n", "steps", "cadence", "dt"):
            value = getattr(self, key)
            kind = "a number" if key == "dt" else "an integer"
            if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                    key != "dt" and isinstance(value, float) and not value.is_integer()):
                raise ConfigError(f"config key '{key}' must be {kind}")
            try:
                object.__setattr__(self, key, float(value) if key == "dt" else int(value))
            except OverflowError as exc:
                raise ConfigError(f"bad numeric config value: {exc}") from None
        if self.model not in MODELS:
            raise ConfigError(f"unknown model '{self.model}'; choose one of {MODELS}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError("dt must be finite and positive")
        for key in ("steps", "cadence"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.model.startswith("contact") and self.params:
            raise ConfigError(
                f"model '{self.model}' takes no params, got {sorted(self.params)}")
        if self.model.startswith("vlasov") and self.K:
            raise ConfigError(
                f"model '{self.model}' takes no K; its Hamiltonian comes from params")
        extra = set(self.params) - {"m", "e", "phi"}
        if extra:
            raise ConfigError(f"unknown params: {sorted(extra)}; choose from m, e, phi")
        paths = set()
        for path in (self.out, self.diag, self.out + ".manifest.json"):
            try:
                paths.add(Path(path).resolve())
            except (ValueError, RuntimeError) as exc:   # an embedded NUL, a symlink loop
                raise ConfigError(f"bad output path {path!r}: {exc}") from None
        if len(paths) < 3:
            raise ConfigError("out, diag and out + '.manifest.json' must be three different files")


def load_config(path: str | Path) -> SimConfig:
    """Read a run.json file into a SimConfig.  Its keys are SimConfig's
    fields, and those without a default are required, so a manifest's
    ``config`` block is itself a valid run.json.  A file that does not
    hold a valid config raises ConfigError."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (ValueError, RecursionError) as exc:   # bad JSON or bad encoding
        raise ConfigError(f"malformed config file: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("a config file must hold one JSON object")
    keys = fields(SimConfig)
    extra = set(raw) - {f.name for f in keys}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    for f in keys:
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing config key: {f.name!r}")
    return SimConfig(**raw)


# ---------------------------------------------------------------------------
# model compilation

@dataclass(frozen=True)
class Model:
    """A compiled pointwise evaluation plan for one kinetic model.

    ``rhs(state, out)`` writes the rates at ``state`` into ``out`` and
    returns it.
    """

    grid: Grid
    ncomp: int
    coord_vars: tuple[VarId, ...]
    rhs: LinearPlan
    velocity_max: float


def _compile_jet_plan(jc: JetChart, grid: Grid, rate_exprs: Sequence[Expr]) -> LinearPlan:
    """Lower rates over a jet chart, each linear in the fiber and jet
    variables, to a ``LinearPlan`` on ``grid``.

    Each rate is read as its exact Jacobian: c_j = ``partial(rate, s_j)``
    for every fiber variable u^l and jet variable u^l_a.  The rate is
    decided linear here, exactly: no c_j has a fiber or jet variable, so
    the rate minus the sum of the c_j s_j does not depend on the state,
    and the rate is zero at the zero state.  A quotient, such as a
    canonical rational rate, is read as its numerator over its
    denominator, which must be free of the state: c_j is then the
    derivative of the numerator over the denominator, which spares
    reducing each c_j by a gcd of the denominator's size.  A rate that is
    not linear, or a quotient whose denominator has a fiber or jet
    variable, raises ``ExprError``.  A term of a fiber variable reads the
    state's component, ``state[l]``, and a term of a jet variable its
    undivided stencil difference delta_a (``grid.stencil_calls``), so only
    the stencils the rates read are computed; the stencil's 1/(12 h) is
    folded into that term's coefficient, which is c_j / (12 h).  The
    nonzero coefficients are evaluated once, in one batch, with the base
    variables fixed to the grid's coordinate lines (``compile_numeric``):
    to a float when constant, and otherwise on as many points as their
    coordinates span, so a folded coefficient is one fresh array and c_j
    is dropped after its last use.  The rates are component-major, like
    the state.
    """
    sources = [(l, None) for l in range(jc.k)]
    sources += [(l, a) for l in range(jc.k) for a in range(jc.m)]
    state_vars = [jc.fiber[l] if a is None else jc.jet(l, a) for l, a in sources]
    at_zero = dict.fromkeys(state_vars, ZERO)
    twelve_h = Const(Fraction(12 * grid.h))
    rows, coeffs = [], []
    for l, rate in enumerate(rate_exprs):
        num, den = (rate.num, rate.den) if isinstance(rate, Quot) else (rate, ONE)
        if not free_vars(den).isdisjoint(state_vars):
            raise ExprError(f"rate {l} is not linear in the state: its denominator is {den}")
        row = []
        for source, s in zip(sources, state_vars):
            c = partial(num, s) if s in free_vars(num) else ZERO
            if not free_vars(c).isdisjoint(state_vars):
                raise ExprError(f"rate {l} is not linear in the state: "
                                f"its derivative along {s.name} is {c}")
            if c != ZERO:
                row.append(source)
                c = c if den is ONE else Quot(c, den)
                coeffs.append(c if source[1] is None else Quot(c, twelve_h))
        if substitute(num, at_zero) != ZERO:
            raise ExprError(f"rate {l} is not linear in the state: it is not 0 at 0")
        rows.append(row)
    values = iter(compile_numeric(coeffs, {v: grid.axis_line(a) for a, v in enumerate(jc.base)}))
    return LinearPlan(grid, [[(j, a, next(values)) for j, a in row] for row in rows])


def _jet_plan(base: Chart, fibers: Sequence[str],
              rate: Callable[..., Expr | DifferentialForm]) -> tuple[JetChart, list[Expr]]:
    """Read a formula on the jet chart over ``base`` with the given fibers.

    ``rate(state, d)`` gets the one-form of the fiber variables as the
    state when there is one fiber per coordinate of ``base``, and the one
    fiber variable otherwise, and the total derivative D_a, addressed by
    base variable, as ``d``.  A one-form rate is read as its coefficients.
    """
    jc = JetChart.from_chart(base, fibers)
    axis = {v: a for a, v in enumerate(jc.base)}

    def d(e: Expr, v: VarId) -> Expr:
        return total_derivative(jc, e, axis[v])

    u = [Var(f) for f in jc.fiber]
    out = rate(one_form(base, u) if jc.k == jc.m else u[0], d)
    if isinstance(out, DifferentialForm):
        return jc, [out.coeff((a,)) for a in range(jc.m)]
    return jc, [out]


def _rational_param(params: dict, key: str) -> Fraction:
    """A rational m or e.  Fraction expands a decimal exponent exactly, so
    its exponent is bounded as Python bounds the digits of an int."""
    text = str(params.get(key, "1"))
    exponent = re.search(r"e([-+]?[\d_]+)\s*$", text, re.I)
    limit = sys.get_int_max_str_digits()
    try:
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad rational parameter {key}={text!r}") from None


def _model_plan(cfg: SimConfig) -> tuple[JetChart, list[Expr], tuple[Expr, ...]]:
    """The jet chart and rates of cfg's model, from its row of ``_RATES``,
    and the components of its carrier field, whose lift a momentum row reads."""
    fibers, formula = _RATES[cfg.model]
    if cfg.model.startswith("contact"):
        structure = ContactStructure.standard()
        if not cfg.K:
            raise ConfigError("contact models need the generator K")
        try:
            data = parse_expr(cfg.K, structure.chart.vars)
        except ExprError as exc:
            raise ConfigError(f"bad K: {exc}") from None
        base, carrier, vol = structure.chart, contact_vector_field(structure, data), structure.vol
    else:
        structure, p = plasma_chart(1), cfg.params
        mass, charge = _rational_param(p, "m"), _rational_param(p, "e")
        try:
            phi = parse_expr(str(p.get("phi", "0")), [structure.base_var(0)])
        except ExprError as exc:
            raise ConfigError(f"bad potential phi: {exc}") from None
        base, data = structure.full, PlasmaParams(mass, charge, phi)
        carrier = hamiltonian_vector_field(structure, plasma_hamiltonian(structure, data))
        vol = VolumeForm.standard(base)
    jc, rates = _jet_plan(base, fibers, lambda s, d: (
        momentum_rhs_via_lift(carrier, s, vol, d) if formula is None
        else formula(structure, s, data, d)))
    return jc, rates, carrier.components


def build_model(cfg: SimConfig) -> Model:
    """Compile the symbolic RHS for cfg into a grid evaluation plan."""
    jc, rates, velocity = _model_plan(cfg)
    grid = Grid(jc.m, cfg.n)
    vel = compile_numeric(velocity, {v: grid.axis_line(a) for a, v in enumerate(jc.base)})
    if len(cfg.init) != jc.k:
        raise ConfigError(f"model '{cfg.model}' needs {jc.k} initial component(s), got {len(cfg.init)}")
    rhs = _compile_jet_plan(jc, grid, rates)
    return Model(grid, jc.k, tuple(jc.base), rhs, max(float(np.max(np.abs(v))) for v in vel))


def initial_state(cfg: SimConfig, model: Model) -> np.ndarray:
    """The sampled initial data, component-major: shape (k, n, ..., n),
    stacked straight into an array on a cache line (``grid.aligned_empty``)."""
    var_axes = {v: i for i, v in enumerate(model.coord_vars)}
    comps = []
    for text in cfg.init:
        try:
            e = parse_expr(text, list(model.coord_vars))
        except ExprError as exc:
            raise ConfigError(f"bad initial data '{text}': {exc}") from None
        comps.append(discretize(e, model.grid, var_axes,
                                allow_aperiodic=cfg.allow_aperiodic))
    return np.stack(comps, axis=0, out=aligned_empty((len(comps), *model.grid.shape)))


# ---------------------------------------------------------------------------
# the run loop

@dataclass
class RunResult:
    diagnostics: list[tuple[float, float, float, float, float]]
    out_path: str
    diag_path: str
    manifest_path: str


def _diag_row(t: float, state: np.ndarray, grid: Grid
              ) -> tuple[float, float, float, float, float]:
    # a finite state past 1e154 squares to inf, which l2 records quietly
    with np.errstate(over="ignore", invalid="ignore"):
        mass = sum(quadrature(comp, grid.h, grid.dim) for comp in state)   # per component
        # squared component by component, so no squared copy of the state is made
        sq = np.square(state[0])
        for comp in state[1:]:
            sq += np.square(comp)
        l2 = math.sqrt(quadrature(sq, grid.h, grid.dim))
    return (t, mass, l2, float(state.min()), float(state.max()))


def _row_tails(grid: Grid) -> np.ndarray:
    """The ``"j,k,"`` index columns of the rows of one slab of fixed i, in
    C order, as ASCII rows padded with zero bytes; unused indices are zero
    below three dimensions."""
    rest = [range(n) for n in grid.shape[1:]] + [range(1)] * (3 - grid.dim)
    tails = [f"{j},{k}," for j in rest[0] for k in rest[1]]
    width = len(tails[-1])
    text = "".join(tail.ljust(width, "\0") for tail in tails)
    return np.frombuffer(text.encode(), np.uint8).reshape(len(tails), width)


# Shortest round-trip digits of doubles, vectorized (Grisu3's method:
# Loitsch, PLDI 2010, with Dekker's exact product, Numer. Math. 18, 1971).
# A finite x with 1e-4 <= |x| < 1e16, the range that repr writes without an
# exponent, is scaled by 10**k, k = 16 - floor(log10 |x|), into the exact
# sum V = D + f of an integer D of 17 digits and a fraction |f| <= 1/2.  The
# decimals that read back to x lie within half the gap to its neighbours,
# in the same units hw above V and hw_lo below it (hw_lo = hw/2 for a power
# of two, whose lower neighbour is nearer); the bounds themselves read back
# to x when its significand is even.  repr writes the shortest such
# decimal, and of two the nearer, a tie going to the even last digit: the
# nearest multiple of 10**(17 - p) in the interval, for the least p that
# has one.  Every comparison is exact in doubles or int64.  A value outside
# the range, or whose V falls outside [1e16, 1e17) through a rounded log10,
# is written by repr itself.
_SPLIT = 134217729.0                                 # 2**27 + 1
_E16 = 10 ** 16
_ANY17 = 0.30000000000000004                         # stands in for the others


@functools.cache
def _scales() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10**k for k = 0..20, exact doubles, with the high and low halves of
    each, and the place 10**(17 - p) of the last of p digits.  This table
    and ``_text_tables`` are built at the first snapshot, so that commands
    that write none do not pay for them."""
    pow10 = 10.0 ** np.arange(21)
    high = pow10 * _SPLIT - (pow10 * _SPLIT - pow10)
    return pow10, high, pow10 - high, 10 ** (17 - np.arange(18, dtype=np.int64))


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999, four little-endian bytes to a word,
    and for each (sign, decimal point position, number of fraction digits)
    three 24-byte masks as three words each: the integer digits, the
    fraction digits, and the constant bytes ``-``, ``.`` and leading
    zeros.  The text of a positive value whose digits are d, with the
    point after position ``decpt`` of d, is ``d[:decpt] + "." + d[decpt:]``,
    or ``"0." + "0" * -decpt + d`` when ``decpt <= 0``.  The masks of a
    value are at ``(neg * 20 + decpt + 3) * 21 + nfrac``."""
    n = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([n // 10 ** e % 10 + 48 for e in (3, 2, 1, 0)], axis=1)
    words = digits.astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    neg, decpt, nfrac, byte = np.ix_(*(np.arange(a, b, dtype=np.int8)
                                       for a, b in ((0, 2), (-3, 17), (0, 21), (0, 24))))
    point = np.maximum(decpt, 1)
    zeros = np.maximum(1 - decpt, 0)     # of the digits "0" * zeros + d
    at = byte - neg
    ints = (at >= 0) & (at < point)
    fracs = (at > point) & (at <= point + nfrac)
    zero_chars = ((at >= 0) & (at < zeros) & (at < point)) | ((at > point) & (at <= zeros))
    consts = zero_chars * np.uint8(48) + (at == point) * np.uint8(46) \
        + ((byte == 0) & (neg == 1)) * np.uint8(45)
    shape = (2, 20, 21, 24)
    layout = np.concatenate([np.broadcast_to(m, shape).astype(np.uint8)
                             for m in (ints * np.uint8(255), fracs * np.uint8(255), consts)], axis=-1)
    layout = layout.reshape(-1, 72).view("<u8").astype(np.uint64)
    return words, np.ascontiguousarray(layout.T)     # word by word, by layout code


def _int_within(gap: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """The largest integers below the positive ``gap``, or at most it where
    ``closed``."""
    n = gap.astype(np.int64)
    n -= ~closed & (n == gap)
    return n


def _shortest_digits(v: np.ndarray, skip: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits of repr for the values of the flat float64 array v that
    are zero or have 1e-4 <= |v| < 1e16, outside ``skip``: a 17-digit
    integer C whose first p digits are repr's, the position of the decimal
    point after C's first digit (``decpt``), and the mask of the values
    whose V fell outside its decade.  Arrays are dropped as soon as they
    are used, so that one slab's work stays small."""
    x = np.abs(v)
    zero = x == 0
    x[zero | skip] = _ANY17
    e2 = np.frexp(x)[1]
    k = np.log10(x)
    np.floor(k, out=k)
    k = (16 - k).astype(np.intp)
    # Dekker: x * 10**k == hi + lo exactly
    pow10, pow10_hi, pow10_lo, place = _scales()
    hi = x * pow10[k]
    xh = x * _SPLIT
    xh -= xh - x
    x -= xh
    lo = xh * pow10_hi[k]
    lo -= hi
    lo += xh * pow10_lo[k]
    lo += x * pow10_hi[k]
    lo += x * pow10_lo[k]
    del x, xh
    D = hi.astype(np.int64)
    del hi
    f = np.rint(lo)
    D += f.astype(np.int64)
    np.subtract(lo, f, out=f)
    del lo
    low_half = f == -0.5                   # so that f is in (-1/2, 1/2]
    if low_half.any():
        D -= low_half
        f[low_half] = 0.5
    hw = np.ldexp(pow10[k], e2 - 54)
    del e2
    bits = v.view(np.uint64)
    pow2 = (bits & (2 ** 52 - 1)) == 0
    hw_lo = np.where(pow2, hw * 0.5, hw) if pow2.any() else hw
    # The multiple D - r of M below V is in when r <= A, and D - r + M
    # above it when M - r <= B: A and B are the largest integers short of
    # the gaps below and above V, or at them for an even significand.
    even = (bits & 1) == 0
    A = _int_within(hw_lo - f, even)
    B = _int_within(hw + f, even)
    del hw, hw_lo, even
    # one of the two is in when (D + B) mod M <= A + B
    DB, AB = D + B, A + B
    del A, B
    slow = (D - _E16).view(np.uint64) >= 9 * _E16
    p = np.full(v.size, 17, np.int8)
    live, DBl, ABl = np.arange(v.size), DB, AB
    for digits in range(16, 0, -1):
        keep = np.flatnonzero(DBl % place[digits] <= ABl)
        if not keep.size:
            break
        live, DBl, ABl = live[keep], DBl[keep], ABl[keep]
        p[live] = digits
    del live, DBl, ABl
    tie = f == 0.5
    if tie.any():                          # at 17 digits, to the even neighbour
        D += tie & (p == 17) & (D % 2 == 1)
    short = np.flatnonzero(p < 17)
    if short.size:
        # the nearer of the multiples of M on each side that are in; a tie
        # goes to the even last digit
        Ds, fs, M = D[short], f[short], place[p[short]]
        B = DB[short] - Ds
        A = AB[short] - B
        q = Ds // M
        r = Ds - q * M
        w = M - 2 * r
        up = (M - r <= B) & ((r > A) | (2 * fs > w) | ((2 * fs == w) & (q % 2 == 1)))
        D[short] = (q + up) * M
        slow[short] |= D[short] >= 10 * _E16
    decpt = np.subtract(17, k, out=k)
    if zero.any():
        D[zero], p[zero], decpt[zero] = 0, 1, 1
        slow &= ~zero
    decpt[slow] = 1          # any position in the layout table will do
    return D, p, decpt, slow


def _repr_block(v: np.ndarray) -> tuple[np.ndarray, int]:
    """The bytes of ``repr(float(x))`` for each x of the flat float64 array
    v, one row of 24 zero-padded bytes each, and the number of values that
    repr itself formatted."""
    a = np.abs(v)
    slow = ~(((a >= 1e-4) & (a < 1e16)) | (a == 0))
    del a
    if slow.all():
        text = np.empty((v.size, 24), np.uint8)
    else:
        text, misfit = _digits_text(v, slow)
        slow |= misfit
    fallbacks = np.flatnonzero(slow)
    if fallbacks.size:
        text[fallbacks] = np.array(list(map(repr, v[fallbacks].tolist())), "S24").view(np.uint8).reshape(-1, 24)
    return text, int(fallbacks.size)


def _digits_text(v: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of the values of v as rows of 24 zero-padded bytes, and
    the mask of the values that ``_shortest_digits`` could not place; rows
    where ``skip`` holds are left to the caller."""
    C, p, decpt, slow = _shortest_digits(v, skip)
    digits4, layout = _text_tables()
    neg = np.signbit(v)
    code = (neg * 20 + decpt + 3) * 21 + np.maximum(p - decpt, 1)
    # C's digits go to little-endian bytes 7..23 of three words, then are
    # shifted down so that the first digit lands after the sign and the
    # zeros of "0.00"
    down = ((7 - np.maximum(1 - decpt, 0) - neg) * 8).astype(np.uint64)
    del p, decpt, neg
    a = C // 10 ** 8
    C -= a * 10 ** 8
    b = a // 10 ** 4
    a -= b * 10 ** 4
    d = b // 10 ** 4
    b -= d * 10 ** 4
    x1 = digits4[b] | (digits4[a] << np.uint64(32))
    x0 = (d.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    b = C // 10 ** 4
    C -= b * 10 ** 4
    x2 = digits4[b] | (digits4[C] << np.uint64(32))
    del a, b, d, C
    up = np.uint64(64) - down
    e2 = x2 >> down
    e1 = (x1 >> down) | (x2 << up)
    del x2
    e0 = (x0 >> down) | (x1 << up)
    del x0, x1, down, up
    # a word of the text: the integer digits, the fraction digits one byte
    # up, past the point, and the constant bytes
    u8, u56 = np.uint64(8), np.uint64(56)
    out = np.empty((v.size, 3), np.uint64)
    for w, (e, below) in enumerate(((e0, None), (e1, e0), (e2, e1))):
        shifted = e << u8
        if below is not None:
            shifted |= below >> u56
        shifted &= layout[w + 3][code]
        shifted |= layout[w + 6][code]
        shifted |= e & layout[w][code]
        out[:, w] = shifted
    return out.astype("<u8", copy=False).view(np.uint8), slow


# the most values formatted by one ``_repr_block`` call, unless one slab has more
_BLOCK_VALUES = 8192


def _write_traj_snapshot(f, t: float, state: np.ndarray, tails: np.ndarray) -> tuple[int, int]:
    """Write one snapshot, one slab of fixed i per ``f.write``; returns the
    number of characters written and of values that ``repr`` formatted.
    Each value is written as the ``repr`` of a Python float, so the text
    reads back to the same doubles, formatted for as many slabs at once as
    fit in ``_BLOCK_VALUES`` values, one at least.  A slab's rows are
    assembled in one byte matrix with zero bytes as padding, which the
    write drops."""
    ncomp, n = state.shape[:2]
    rows, tail_width = tails.shape
    lead_width = len(f"{t!r},{n - 1},")
    buf = bytearray(rows * (lead_width + tail_width + 25 * ncomp))
    row = np.frombuffer(buf, np.uint8).reshape(rows, -1)
    row[:, lead_width:lead_width + tail_width] = tails
    fields = row[:, lead_width + tail_width:].reshape(rows, ncomp, 25)
    fields[:, :, 24] = ord(",")
    fields[:, -1, 24] = ord("\n")
    written = fallbacks = 0
    per_block = max(1, _BLOCK_VALUES // (rows * ncomp))
    for start in range(0, n, per_block):
        block = state[:, start:start + per_block]
        text, by_repr = _repr_block(block.reshape(ncomp, -1).T.ravel())
        fallbacks += by_repr
        for i, slab in enumerate(text.reshape(-1, rows, ncomp, 24), start):
            row[:, :lead_width] = np.frombuffer(f"{t!r},{i},".ljust(lead_width, "\0").encode(), np.uint8)
            fields[:, :, :24] = slab
            written += f.write(buf.translate(None, b"\0").decode("ascii"))
        del text, slab
    return written, fallbacks


def _serve_snapshots(commands: int, replies: int, traj, slot: np.ndarray,
                     tails: np.ndarray) -> NoReturn:
    """The writer child's loop: for each time t read from ``commands``,
    write the snapshot in ``slot`` to ``traj`` and reply on ``replies``
    with the characters written and the values ``repr`` formatted, as
    JSON, or with the args of its error; leave by ``os._exit`` when
    ``commands`` ends or after an error, so the parent's frames never
    unwind here."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # after ^C the parent waits for this write
        while message := os.read(commands, 8):
            written = _write_traj_snapshot(traj, struct.unpack("d", message)[0], slot, tails)
            traj.flush()
            os.write(replies, json.dumps(written).encode())
        os._exit(0)
    except BaseException as exc:
        args = exc.args if isinstance(exc, OSError) else [f"trajectory writer failed: {exc!r}"[:999]]
        os.write(replies, json.dumps({"error": args}, default=str).encode())
    finally:
        os._exit(1)


class _SnapshotWriter:
    """The writer of a run's trajectory snapshots, after its header.

    One child process, forked when the writer is made and alive for the
    whole run (``_serve_snapshots``), formats each snapshot from a shared
    slot the size of the state while the parent steps on.  The parent
    writes in-process only when ``os.fork`` raises or another thread is
    alive, as a fork copies the calling thread alone.  ``send(t, state)``
    hands a snapshot over once ``wait()`` has acknowledged the one before;
    ``wait()`` returns the characters written and the values ``repr``
    formatted, (0, 0) when nothing is pending, and raises the writer's
    ``OSError``, or one when the child ended without a reply.  ``close()``
    ends and reaps the child once it has written what it was sent."""

    def __init__(self, traj, state: np.ndarray, tails: np.ndarray):
        self.traj, self.tails, self.pid = traj, tails, None
        self.done, self.waiting = (0, 0), False
        traj.flush()          # the child writes after what is on disk
        if threading.active_count() > 1:
            return
        self.slot = np.frombuffer(mmap.mmap(-1, state.nbytes), state.dtype).reshape(state.shape)
        commands, self.commands = os.pipe()
        self.replies, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (commands, self.commands, self.replies, replies):
                os.close(fd)
            return
        if not self.pid:
            os.close(self.commands)
            os.close(self.replies)
            _serve_snapshots(commands, replies, traj, self.slot, tails)
        os.close(commands)
        os.close(replies)

    def send(self, t: float, state: np.ndarray) -> None:
        if self.pid is None:
            self.done = _write_traj_snapshot(self.traj, t, state, self.tails)
            return
        np.copyto(self.slot, state)
        try:
            os.write(self.commands, struct.pack("d", t))
        except BrokenPipeError:
            self._ended()
        self.waiting = True

    def wait(self) -> tuple[int, int]:
        if not self.waiting:
            done, self.done = self.done, (0, 0)
            return done
        self.waiting = False
        reply = os.read(self.replies, 4096)
        if not reply:
            self._ended()
        written = json.loads(reply)
        if isinstance(written, dict):
            raise OSError(*written["error"])
        return tuple(written)

    def _ended(self) -> NoReturn:
        raise OSError(f"trajectory writer ended without a reply (wait status {self.close()})")

    def close(self) -> int | None:
        """End and reap the child; its wait status, None if there is none."""
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        os.close(self.commands)
        try:
            return os.waitpid(pid, 0)[1]
        finally:
            os.close(self.replies)


def _is_output(step: int, cadence: int, steps: int) -> bool:
    """Whether step ``step`` of ``steps`` is an output time: t = 0, every
    ``cadence`` steps, and the last step."""
    return step % cadence == 0 or step == steps


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_simulation(cfg: SimConfig) -> RunResult:
    """Integrate the configured model, writing trajectory, diagnostics and
    a manifest.  Output is written at t = 0, every ``cadence`` steps, and
    the last step.  The snapshots are written by one writer child forked
    for the run (``_SnapshotWriter``), which formats each from a shared
    copy of the state while the steps go on, and is reaped on every exit
    path; the diagnostics are written here.  The trajectory and
    diagnostics are deterministic for a fixed config, and the same
    whichever process writes the snapshots; the manifest also records
    per-phase timings and counters, with ``writer_wait_s``, the part of
    ``io_s`` spent blocked on the writer, the minor page faults of the
    run and of its steps, the process's
    peak RSS, ``traj_repr_fallbacks``, the number of trajectory values
    that ``repr`` formatted instead of the vectorized formatter,
    ``plan_binds``, the binds of the model's plan (four at most), and
    ``plan_terms`` and ``plan_stencils``, the terms and the stencils of
    one RHS call, which depend on the config alone."""
    clock = time.perf_counter
    faults = _minor_faults()
    t0 = clock()
    model = build_model(cfg)
    t1 = clock()
    state = initial_state(cfg, model)
    timings = {"build_s": t1 - t0, "init_s": clock() - t1,
               "integrate_s": 0.0, "io_s": 0.0, "writer_wait_s": 0.0}
    counters = {"steps": 0, "rhs_calls": 0, "snapshots": 0, "traj_bytes": 0,
                "traj_repr_fallbacks": 0, "integrate_minor_faults": 0}
    grid = model.grid
    cfl = grid.h / (4.0 * model.velocity_max) if model.velocity_max > 0 else math.inf
    if cfg.dt > cfl:
        warnings.warn(f"dt={cfg.dt} exceeds the CFL advisory {cfl:.3e}", RuntimeWarning)
    manifest_path = cfg.out + ".manifest.json"
    manifest = {"config": asdict(cfg), "version": __version__,
                "grid": {"dim": grid.dim, "n": grid.n, "h": grid.h},
                "cfl_advisory_dt": None if math.isinf(cfl) else cfl,
                "timings": timings, "counters": counters}
    result = RunResult([], cfg.out, cfg.diag, manifest_path)
    aborted: NumericalAbortError | None = None

    def acknowledged() -> float:
        """Wait for the writer to finish the last snapshot sent and count
        it; the seconds waited."""
        start = clock()
        written, fallbacks = writer.wait()
        counters["traj_bytes"] += written
        counters["traj_repr_fallbacks"] += fallbacks
        timings["writer_wait_s"] += (waited := clock() - start)
        return waited

    def emit(t: float, s: np.ndarray) -> None:
        start = clock()
        acknowledged()
        writer.send(t, s)
        row = _diag_row(t, s, grid)
        diag.write(",".join(map(repr, row)) + "\n")
        result.diagnostics.append(row)
        counters["snapshots"] += 1
        timings["io_s"] += clock() - start

    def integrated(start: float, start_faults: int) -> None:
        timings["integrate_s"] += clock() - start
        counters["integrate_minor_faults"] += _minor_faults() - start_faults

    with open(cfg.out, "w") as traj, open(cfg.diag, "w") as diag:
        counters["traj_bytes"] = traj.write(
            "t,i,j,k," + ",".join(f"comp{i}" for i in range(model.ncomp)) + "\n")
        diag.write("t,mass,l2,min,max\n")
        writer = _SnapshotWriter(traj, state, _row_tails(grid))
        try:
            emit(0.0, state)
            start, start_faults = clock(), _minor_faults()
            try:
                for step, state in march(state, model.rhs, cfg.dt, cfg.steps):
                    integrated(start, start_faults)
                    counters.update(steps=step, rhs_calls=4 * step)
                    if _is_output(step, cfg.cadence, cfg.steps):
                        emit(step * cfg.dt, state)
                    start, start_faults = clock(), _minor_faults()
            except NumericalAbortError as exc:
                integrated(start, start_faults)
                counters["rhs_calls"] = 4 * exc.step
                aborted = exc
            timings["io_s"] += acknowledged()     # the last snapshot
        finally:    # on every path, so no writer outlives the run
            writer.close()
    manifest["aborted_at_step"] = None if aborted is None else aborted.step
    usage = resource.getrusage(resource.RUSAGE_SELF)
    counters.update(minor_faults=usage.ru_minflt - faults, peak_rss_mb=usage.ru_maxrss / 1024,
                    plan_binds=model.rhs.binds, plan_terms=model.rhs.nterms,
                    plan_stencils=model.rhs.nstencils)
    with open(manifest_path, "w") as mf:
        json.dump(manifest, mf, indent=2, sort_keys=True)
        mf.write("\n")
    if aborted is not None:
        raise aborted
    return result
