#!/usr/bin/env python3
"""Two-path discrete intertwining study for the contact model with K = z.

Evolves alpha0 = (0, -cos x sin y sin z, -1) under contact-momentum, maps
through the discretized density formula at each output time, and compares
against directly evolving L0 = 2 + sin x sin y sin z under contact-density.

Reports the global max-norm gap and the determined gap, the gap over the
nodes whose backward characteristic under X_K = (-x, 0, -z) stays 4h clear
of the seams at 0 = 2pi in x and z (see `liftlab.studies.determined_nodes`).
The global number does not converge: the torus problem supplies no data
in the seam wake, so each discretization fills it with what its stencils
make of the jump; the determined gap shows the two paths agreeing at
scheme accuracy.
"""

import argparse

from liftlab.studies import discrete_intertwining_error

ALPHA0 = ("0", "-cos(x)*sin(y)*sin(z)", "-1")
L0 = "2 + sin(x)*sin(y)*sin(z)"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-end", type=float, default=0.1)
    ap.add_argument("--ns", type=int, nargs="+", default=[16, 32, 64])
    args = ap.parse_args()
    print(f"t_end = {args.t_end}; alpha0 = {ALPHA0}; L0 = {L0!r}; K = z")
    print(f"{'n':>4} {'dt':>9} {'global gap':>12} {'determined gap':>15}")
    for n in args.ns:
        dt = 5e-4 * (64 / n)
        steps = round(args.t_end / dt)
        gap, determined, _ = discrete_intertwining_error(
            "z", ALPHA0, L0, n=n, dt=dt, steps=steps,
            cadence=max(1, steps // 10))
        print(f"{n:>4} {dt:>9.2e} {gap:>12.4e} {determined:>15.4e}")


if __name__ == "__main__":
    main()
