"""Output checks for each op.  Each returns a list of problems; empty means ok.

Every reference comes from a route independent of liftlab.  For a sim
op, the benchmark evaluates the initial data with numpy from the
generated amplitudes and evolves it with its own numpy integrator
(``reference.py``); every diagnostic row and the first and last traj
snapshots must match that evolution, on every seed.  The default seed's
diag.csv is also compared with a committed file.  Verify reports are
read back from their rendered text and, for the default seed, compared
with committed reports.
"""

from __future__ import annotations

import math
import re

import numpy as np

import reference

# reassociated arithmetic may move the last digits of floats, nothing more
DIAG_RTOL = 1e-9
DIAG_ATOL = 1e-9
INIT_RTOL = 1e-12
# the benchmark's own evolution sums in another order than liftlab's plan
EVOLVED_TOL = 1e-9
VLASOV_MASS_DRIFT = 1e-8


def init_grid(op: dict) -> np.ndarray:
    """numpy samples of the op's initial data, shape grid + (components,)."""
    n, dim = op["n"], op["dim"]
    line = np.arange(n) * (2.0 * math.pi / n)
    coords = np.meshgrid(*([line] * dim), indexing="ij")
    funcs = {"sin": np.sin, "cos": np.cos}
    comps = []
    for comp in op["init"]:
        u = np.zeros((n,) * dim)
        for amp, mode in comp["terms"]:
            num, _, den = amp.partition("/")
            term = np.full((n,) * dim, int(num) / int(den or 1))
            for fn, axis, k in mode:
                term = term * funcs[fn](k * coords[axis])
            u = u + term
        comps.append(u)
    return np.stack(comps, axis=-1)


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * max(abs(got), abs(want))


def _snapshot(lines: list[str], t: float, shape: tuple) -> np.ndarray | None:
    """Values of one traj snapshot at time ``t`` in grid order, or None if
    it is malformed."""
    dim, ncomp = len(shape) - 1, shape[-1]
    try:
        snap = np.array([[float(v) for v in line.split(",")] for line in lines])
    except ValueError:
        return None
    if snap.shape != (len(lines), 4 + ncomp) or np.any(snap[:, 0] != t):
        return None
    out = np.full(shape, np.nan)
    out[tuple(snap[:, 1:1 + dim].astype(int).T)] = snap[:, 4:]
    return out


def _rows_close(got: list[float], want: tuple, tol: float) -> bool:
    return len(got) == len(want) and all(_close(a, b, tol, tol) for a, b in zip(got, want))


def check_sim(op: dict, rc: int, traj_path: str, diag_path: str,
              init: np.ndarray) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    ncomp = len(op["init"])
    cells = op["n"] ** op["dim"]
    snapshots = op["steps"] // op["cadence"] + 1
    want_rows, final = reference.evolve(op, init)

    with open(traj_path) as f:
        header = f.readline()
        lines = f.read().splitlines()
    want_header = "t,i,j,k," + ",".join(f"comp{c}" for c in range(ncomp)) + "\n"
    if header != want_header:
        problems.append(f"traj header {header!r}")
    if len(lines) != snapshots * cells:
        problems.append(f"traj has {len(lines)} rows, want {snapshots * cells}")
        lines = []
    for label, block, want, t, tol in (
            ("t=0", lines[:cells], init, 0.0, INIT_RTOL),
            ("last", lines[-cells:], final, want_rows[-1][0], EVOLVED_TOL)):
        snap = _snapshot(block, t, init.shape) if block else None
        if snap is None:
            problems.append(f"traj {label} snapshot is missing or malformed")
        elif not np.max(np.abs(snap - want)) <= tol * (1.0 + float(np.max(np.abs(want)))):
            problems.append(f"traj {label} snapshot differs from the reference evolution")

    with open(diag_path) as f:
        text = f.read()
    lines = text.splitlines()
    if not lines or lines[0] != "t,mass,l2,min,max":
        problems.append("diag header")
        return problems
    try:
        diag = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError:
        return problems + ["diag does not parse"]
    if len(diag) != snapshots:
        problems.append(f"diag has {len(diag)} rows, want {snapshots}")
    for i, (got, want) in enumerate(zip(diag, want_rows)):
        if not _rows_close(got, want, INIT_RTOL if i == 0 else EVOLVED_TOL):
            problems.append(f"diag row {i} {got} differs from the reference evolution {list(want)}")
    if op["model"].startswith("vlasov") and diag and all(len(row) == 5 for row in diag):
        drift = abs(diag[-1][1] - diag[0][1]) / abs(diag[0][1])
        if drift > VLASOV_MASS_DRIFT:
            problems.append(f"vlasov mass drift {drift:.3e}")
    if "reference" in op:
        problems += _match_reference_diag(text, op["reference"])
    return problems


def _match_reference_diag(text: str, committed: str | None) -> list[str]:
    if committed is None:
        return ["reference diag.csv for the default seed is missing"]
    got, want = text.splitlines(), committed.splitlines()
    if len(got) != len(want) or got[0] != want[0]:
        return ["diag shape differs from the reference"]
    for g, w in zip(got[1:], want[1:]):
        for a, b in zip(g.split(","), w.split(",")):
            if not _close(float(a), float(b), DIAG_RTOL, DIAG_ATOL):
                return [f"diag differs from the reference: {g} vs {w}"]
    return []


_EXACT_LINE = re.compile(r"^  \[(PASS|FAIL)\] (\S+) \((\d+) trials\)$")


def check_verify(op: dict, rc: int, report: str) -> tuple[list[str], int]:
    """Problems and the number of check-trials the report completed."""
    lines = report.rstrip("\n").splitlines()
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not lines or lines[-1] != "RESULT: PASS":
        problems.append("report does not end in RESULT: PASS")
    trials = 0
    checks = 0
    for line in lines[1:-1]:
        m = _EXACT_LINE.match(line)
        if not m or m.group(1) != "PASS" or int(m.group(3)) != op["trials"]:
            problems.append(f"unexpected report line {line!r}")
            continue
        checks += 1
        trials += int(m.group(3))
    if checks == 0:
        problems.append("report lists no checks")
    if "reference" in op:
        if op["reference"] is None:
            problems.append("reference report for the default seed is missing")
        elif report != op["reference"]:
            problems.append("report differs from the reference")
    return problems, trials
