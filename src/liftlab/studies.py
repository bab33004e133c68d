"""The study harness of the numerical path: convergence orders and the
two-path intertwining gap.

``temporal_order`` and ``spatial_operator_order`` measure the RK4 and
stencil orders of a compiled model; ``discrete_intertwining_error``
compares evolving a contact momentum and mapping it to a density with
evolving the density directly, over all nodes and over the nodes that
``determined_nodes`` finds the torus initial data determine.  Tests and
the scripts under ``scripts/`` call them; the run loop and the command
line do not, so neither ``sim`` nor ``cli`` imports this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .expr import Expr, is_periodic
from .grid import TWO_PI, Grid, compile_numeric, discretize, march
from .kinetics import ContactStructure, contact_density, contact_vector_field
from .parser import parse_expr
from .sim import (
    _RATES, ConfigError, SimConfig, _compile_jet_plan, _is_output, _jet_plan,
    build_model, initial_state,
)

__all__ = [
    "temporal_order", "spatial_operator_order", "determined_nodes",
    "discrete_intertwining_error",
]


def temporal_order(cfg: SimConfig, dts: Sequence[float], t_end: float
                   ) -> tuple[float, list[float]]:
    """Richardson order in dt on a fixed grid: all runs share the spatial
    operator, so successive differences isolate the time integrator."""
    model = build_model(cfg)
    state0 = initial_state(cfg, model)
    finals = []
    for dt in dts:
        steps = round(t_end / dt)
        if abs(steps * dt - t_end) > 1e-12:
            raise ConfigError(f"t_end {t_end} is not a multiple of dt {dt}")
        final = state0.copy()
        for _, final in march(final, model.rhs, dt, steps):
            pass
        finals.append(final)
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(d1 / d2) / math.log2(dts[i] / dts[i + 1])
              for i, (d1, d2) in enumerate(zip(diffs, diffs[1:]))]
    return min(orders), diffs


def spatial_operator_order(make_cfg: Callable[[int], SimConfig],
                           exact_rate: Sequence[Expr], ns: Sequence[int]
                           ) -> tuple[float, list[float]]:
    """Stencil order of the semi-discrete operator on a manufactured field.

    Compares the compiled RHS applied to sampled initial data against the
    exact symbolic rate evaluated pointwise; clean O(h^4) on smooth data.
    """
    errs = []
    for n in ns:
        cfg = make_cfg(n)
        model = build_model(cfg)
        state = initial_state(cfg, model)
        rate = model.rhs(state, np.empty_like(state))
        var_axes = {v: i for i, v in enumerate(model.coord_vars)}
        err = 0.0
        for l, e in enumerate(exact_rate):
            exact = discretize(e, model.grid, var_axes, allow_aperiodic=True)
            err = max(err, float(np.max(np.abs(rate[l] - exact))))
        errs.append(err)
    orders = [math.log2(e1 / e2) / math.log2(ns[i + 1] / ns[i])
              for i, (e1, e2) in enumerate(zip(errs, errs[1:]))]
    return min(orders), errs


def determined_nodes(K_text: str, n: int, dt: float, steps: int,
                     cadence: int) -> list[np.ndarray]:
    """Masks of the nodes that the torus initial data determine.

    The contact problem has a seam at 0 = 2pi along each axis in whose
    coordinate a coefficient of sigma = x dy + dz or a component of X_K is
    not decided 2pi-periodic (``expr.is_periodic``): along x for sigma's x,
    which enters the density map and both plans, and also along z for
    K = z, where X_K = (-x, 0, -z).  A node that traces back to a seam
    takes its value from the jump there, not from the initial data, so no
    torus scheme is bound to agree with another on it.  A node counts as
    determined at time t when its backward characteristic under X_K over
    [0, t] stays at least 4h from every seam: two stencil half-widths, as
    the two-path gap composes the density map's 5-point stencil with a
    model's.  Characteristics are traced with RK4 at dt on unwrapped
    coordinates.  Returns one mask of grid shape per output time: t = 0,
    every ``cadence`` steps, and the last step.
    """
    cs = ContactStructure.standard()
    K = parse_expr(K_text, cs.chart.vars)
    grid = Grid(3, n)
    X = contact_vector_field(cs, K).components
    coeffs = (*cs.sigma.terms.values(), *X)
    seams = [a for a, v in enumerate(cs.chart.vars)
             if not all(is_periodic(c, v) for c in coeffs)]

    def backward(p: np.ndarray, out: np.ndarray) -> None:
        for o, value in zip(out, compile_numeric(X, dict(zip(cs.chart.vars, p)))):
            np.negative(value, out=o)

    margin = 4 * grid.h
    pos = np.stack([grid.axis_coordinate(a) for a in range(3)])
    ok = np.ones(grid.shape, dtype=bool)
    masks = []
    for step, p in itertools.chain([(0, pos)], march(pos, backward, dt, steps)):
        for a in seams:
            ok &= (p[a] >= margin) & (p[a] <= TWO_PI - margin)
        if _is_output(step, cadence, steps):
            masks.append(ok.copy())
    return masks


def discrete_intertwining_error(K_text: str, alpha_init: Sequence[str],
                                density_init: str, n: int, dt: float,
                                steps: int, cadence: int
                                ) -> tuple[float, float, list[float]]:
    """Max-norm gap between (evolve alpha, map to density) and (evolve density).

    The density map is the discretized coordinate formula with the same
    stencils the models use.  Returns (global gap, determined gap, checked):
    the gaps are each the worst over the output times, and ``checked`` is
    the fraction of nodes the determined gap covers at each output time.
    The determined gap is taken over the nodes of ``determined_nodes``; the
    global gap also covers the seam bands and their advective wake, where
    the torus problem supplies no data and each scheme fills in whatever
    its stencils make of the jump.
    """
    cs = ContactStructure.standard()
    cfg_m = SimConfig(model="contact-momentum", n=n, dt=dt, steps=steps,
                      K=K_text, init=tuple(alpha_init))
    cfg_d = SimConfig(model="contact-density", n=n, dt=dt, steps=steps,
                      K=K_text, init=(density_init,))
    mom = build_model(cfg_m)
    den = build_model(cfg_d)
    state_m = initial_state(cfg_m, mom)
    state_d = initial_state(cfg_d, den)
    map_jc, map_rates = _jet_plan(cs.chart, _RATES["contact-momentum"][0],
                                  lambda a, d: contact_density(cs, a, d))
    map_rhs = _compile_jet_plan(map_jc, mom.grid, map_rates)
    mapped = np.empty_like(state_d)
    masks = determined_nodes(K_text, n, dt, steps, cadence)
    checked = [float(m.mean()) for m in masks]
    remaining = iter(masks)

    def compare(sm: np.ndarray, sd: np.ndarray) -> tuple[float, float]:
        gap = map_rhs(sm, mapped)[0]     # |map(alpha) - L|, in place
        np.subtract(gap, sd[0], out=gap)
        np.abs(gap, out=gap)
        return float(gap.max()), float(np.max(gap, where=next(remaining), initial=0.0))

    worst, worst_determined = compare(state_m, state_d)
    for (step, sm), (_, sd) in zip(march(state_m, mom.rhs, dt, steps),
                                   march(state_d, den.rhs, dt, steps)):
        if _is_output(step, cadence, steps):
            g, gd = compare(sm, sd)
            worst, worst_determined = max(worst, g), max(worst_determined, gd)
    return worst, worst_determined, checked
