#!/usr/bin/env python3
"""Time one bound RHS call of a `liftlab sim` model, by kind of call.

Builds the model of a run config, binds its plan to the initial state
and an output array, as ``grid.march`` binds it, and times each call of
the bound list on its own, best of ``--repeats`` passes.  The calls are
summed by kind:

  shifted difference   a stencil's subtraction of two flat shifts
  wrap plane           a stencil's fix-up of one wrapped plane
  broadcast multiply   a coefficient that spans fewer axes than the grid
  full multiply        by a constant or a whole-grid array (the stencil's 8)
  add                  a further term into its rate
  subtract             the stencil's closing 8 d1 - d2

Each row gives the count, the microseconds per call and in all, and how
many of the calls' outputs start on a 64-byte cache line.  The last line
is the whole RHS call, timed as one, for comparison with the sum.

    python3 scripts/rhs_profile.py --model contact-momentum \\
        --K "cos(x)*sin(y) + z" --init "sin(x)*cos(z);cos(y);sin(z)+cos(x)"
"""

import argparse
import time
from collections import defaultdict

import numpy as np

from liftlab.grid import aligned_empty
from liftlab.sim import SimConfig, build_model, initial_state, load_config

KINDS = ("shifted difference", "wrap plane", "broadcast multiply", "full multiply",
         "add", "subtract", "copy")


def kind(fn, args, size: int) -> str:
    """The kind of the bound call ``fn(*args)`` on a grid of ``size`` points."""
    out = args[-1]
    if out.size < size:
        return "wrap plane" if out.ndim > 1 else "shifted difference"
    if fn is np.multiply:
        spans_less = any(isinstance(a, np.ndarray) and a.size < size for a in args[:-1])
        return "broadcast multiply" if spans_less else "full multiply"
    return {np.add: "add", np.subtract: "subtract", np.copyto: "copy"}[fn]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", default="", help="run.json path (overrides the flags below)")
    ap.add_argument("--model", default="contact-momentum")
    ap.add_argument("--K", default="z", help="contact generator expression")
    ap.add_argument("--init", default="sin(x)*cos(z);cos(y);sin(z)+cos(x)",
                    help="semicolon-separated initial components")
    ap.add_argument("--phi", default=None, help="plasma potential phi(q)")
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--repeats", type=int, default=20)
    args = ap.parse_args()
    if args.config:
        cfg = load_config(args.config)
    else:
        vlasov = args.model.startswith("vlasov")
        cfg = SimConfig(model=args.model, n=args.n, dt=1e-3, steps=1,
                        K="" if vlasov else args.K,
                        params={"phi": args.phi} if vlasov and args.phi else {},
                        init=tuple(c.strip() for c in args.init.split(";")))
    model = build_model(cfg)
    state = initial_state(cfg, model)
    out = aligned_empty(state.shape)
    calls = model.rhs.bind(state, out)
    size = state[0].size
    clock = time.perf_counter
    best = [float("inf")] * len(calls)
    for _ in range(args.repeats):
        for i, (fn, operands) in enumerate(calls):
            start = clock()
            fn(*operands)
            best[i] = min(best[i], clock() - start)
    whole = float("inf")
    for _ in range(args.repeats):
        start = clock()
        model.rhs(state, out)
        whole = min(whole, clock() - start)

    rows = defaultdict(lambda: [0, 0.0, 0])
    for (fn, operands), seconds in zip(calls, best):
        row = rows[kind(fn, operands, size)]
        row[0] += 1
        row[1] += seconds
        row[2] += operands[-1].ctypes.data % 64 == 0
    print(f"{cfg.model} n={cfg.n} ({model.grid.dim}-D): {len(calls)} calls, "
          f"{model.rhs.nstencils} stencils, {model.rhs.nterms} terms; "
          f"best of {args.repeats} per call")
    print(f"{'kind':<20} {'count':>5} {'us each':>9} {'us total':>9} {'on a line':>10}")
    for name in KINDS:
        if name in rows:
            count, seconds, aligned = rows[name]
            print(f"{name:<20} {count:>5} {1e6 * seconds / count:>9.2f} "
                  f"{1e6 * seconds:>9.1f} {f'{aligned}/{count}':>10}")
    print(f"{'sum':<20} {len(calls):>5} {'':>9} {1e6 * sum(best):>9.1f}")
    print(f"{'whole RHS':<20} {'':>5} {'':>9} {1e6 * whole:>9.1f}")


if __name__ == "__main__":
    main()
