"""Independent numpy evolution of each sim op, for the correctness gate.

The equations are written out by hand from their definitions, not taken
from liftlab's symbolic layer, so a wrong plan cannot agree with them:

- contact-momentum: alpha_dot = -L_X alpha - (div X) alpha, with the
  contact vector field X = (K_y - x K_z, -K_x, x K_x - K) and
  div X = -2 K_z, so componentwise
  alpha_dot_l = -X^a D_a alpha_l - alpha_b d_l X^b + 2 K_z alpha_l;
- vlasov-density: f_dot = -(p/m) D_q f + e phi'(q) D_p f with m = e = 1.

D_a is the 4th-order periodic central stencil, time stepping is classical
RK4, and the diagnostics are the torus trapezoid rule.  The generators
and potentials the workloads use are tabulated below with their
derivatives by hand.
"""

from __future__ import annotations

import math

import numpy as np


def _zeros(x, y, z):
    return np.zeros_like(x)


def _ones(x, y, z):
    return np.ones_like(x)


# K text -> derivatives of K as functions of the coordinate grids
GENERATORS = {
    "z": {
        "K": lambda x, y, z: z,
        "x": _zeros, "y": _zeros, "z": _ones,
        "xx": _zeros, "xy": _zeros, "xz": _zeros,
        "yy": _zeros, "yz": _zeros, "zz": _zeros,
    },
    "cos(x)*sin(y) + z": {
        "K": lambda x, y, z: np.cos(x) * np.sin(y) + z,
        "x": lambda x, y, z: -np.sin(x) * np.sin(y),
        "y": lambda x, y, z: np.cos(x) * np.cos(y),
        "z": _ones,
        "xx": lambda x, y, z: -np.cos(x) * np.sin(y),
        "xy": lambda x, y, z: -np.sin(x) * np.cos(y),
        "yy": lambda x, y, z: -np.cos(x) * np.sin(y),
        "xz": _zeros, "yz": _zeros, "zz": _zeros,
    },
}

# phi text -> phi'(q)
POTENTIAL_SLOPES = {
    "cos(q)": lambda q: -np.sin(q),
}


def derivative(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(-u_{j+2} + 8 u_{j+1} - 8 u_{j-1} + u_{j-2}) / (12 h), periodic."""
    return (8.0 * (np.roll(u, -1, axis) - np.roll(u, 1, axis))
            - (np.roll(u, -2, axis) - np.roll(u, 2, axis))) / (12.0 * h)


def _coords(n: int, dim: int) -> list[np.ndarray]:
    line = np.arange(n) * (2.0 * math.pi / n)
    return np.meshgrid(*([line] * dim), indexing="ij")


def contact_momentum_rhs(K: str, n: int):
    x, y, z = _coords(n, 3)
    d = {k: f(x, y, z) for k, f in GENERATORS[K].items()}
    X = (d["y"] - x * d["z"], -d["x"], x * d["x"] - d["K"])
    # jac[l][b] = d_l X^b
    jac = (
        (d["xy"] - d["z"] - x * d["xz"], -d["xx"], x * d["xx"]),
        (d["yy"] - x * d["yz"], -d["xy"], x * d["xy"] - d["y"]),
        (d["yz"] - x * d["zz"], -d["xz"], x * d["xz"] - d["z"]),
    )
    h = 2.0 * math.pi / n

    def rhs(state: np.ndarray) -> np.ndarray:
        out = np.empty_like(state)
        for l in range(3):
            a = state[..., l]
            rate = 2.0 * d["z"] * a
            for b in range(3):
                rate = rate - X[b] * derivative(a, b, h) - state[..., b] * jac[l][b]
            out[..., l] = rate
        return out

    return rhs


def vlasov_density_rhs(phi: str, n: int):
    q, p = _coords(n, 2)
    slope = POTENTIAL_SLOPES[phi](q)
    h = 2.0 * math.pi / n

    def rhs(state: np.ndarray) -> np.ndarray:
        f = state[..., 0]
        rate = -p * derivative(f, 0, h) + slope * derivative(f, 1, h)
        return rate[..., None]

    return rhs


def diag_row(t: float, state: np.ndarray, n: int, dim: int) -> tuple:
    w = (2.0 * math.pi / n) ** dim
    return (t, w * float(np.sum(state)), math.sqrt(w * float(np.sum(state * state))),
            float(state.min()), float(state.max()))


def evolve(op: dict, init: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Diagnostic rows at every snapshot, and the final state."""
    if op["model"] == "contact-momentum":
        rhs = contact_momentum_rhs(op["K"], op["n"])
    elif op["model"] == "vlasov-density":
        rhs = vlasov_density_rhs(op["phi"], op["n"])
    else:
        raise KeyError(op["model"])
    dt, n, dim = op["dt"], op["n"], op["dim"]
    state = init
    rows = [diag_row(0.0, state, n, dim)]
    for step in range(1, op["steps"] + 1):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % op["cadence"] == 0:
            rows.append(diag_row(step * dt, state, n, dim))
    return rows, state
