#!/usr/bin/env python3
"""Richardson convergence study for the contact-density model with K = z.

Temporal: fixed n, halving dt; all runs share the spatial operator, so
successive differences isolate the RK4 order.  Spatial: the compiled
semi-discrete operator against the exact symbolic rate on the manufactured
initial field (the solution-level comparison is polluted by the aperiodic
x coefficient's seam band and is reported separately by
intertwining_study.py).
"""

import argparse

from liftlab.kinetics import ContactStructure, contact_density_rhs
from liftlab.parser import parse_expr
from liftlab.sim import SimConfig
from liftlab.studies import spatial_operator_order, temporal_order

L0 = "2 + sin(x)*sin(y)*sin(z)"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32, help="grid for the temporal study")
    ap.add_argument("--t-end", type=float, default=0.04)
    args = ap.parse_args()

    cfg = SimConfig(model="contact-density", n=args.n, dt=1e-3, steps=1,
                    K="z", init=(L0,))
    dts = (2e-3, 1e-3, 5e-4)
    t_order, diffs = temporal_order(cfg, dts, t_end=args.t_end)
    print(f"temporal study at n={args.n}, t_end={args.t_end}")
    for dt, d in zip(dts[:-1], diffs):
        print(f"  |u(dt={dt:g}) - u(dt/2)|_inf = {d:.6e}")
    print(f"  observed RK4 order: {t_order:.3f}")

    cs = ContactStructure.standard()
    exact = [contact_density_rhs(cs, parse_expr(L0, cs.chart.vars),
                                 parse_expr("z", cs.chart.vars))]

    def mk(n):
        return SimConfig(model="contact-density", n=n, dt=1e-4, steps=1,
                         K="z", init=(L0,))

    ns = (16, 32, 64)
    s_order, errs = spatial_operator_order(mk, exact, ns)
    print("spatial operator study (semi-discrete rate vs exact symbolic rate)")
    for n, e in zip(ns, errs):
        print(f"  n={n:3d}: |rhs_h - rhs|_inf = {e:.6e}")
    print(f"  observed stencil order: {s_order:.3f}")


if __name__ == "__main__":
    main()
