"""One benchmark process: a cold set-up sample, or one cycle of a workload.

Reads a JSON spec on stdin and prints one JSON result line on stdout.

- ``{"mode": "setup", "ops": [...]}`` times the set-up: the import of the
  liftlab CLI and, for each sim op, one cold ``build_model`` +
  ``initial_state``.
- ``{"mode": "cycle", "ops": [...], "trace": bool, "workdir": dir}`` runs
  the ops in order through ``liftlab.cli.main`` in this process, with no
  set-up before them, so every op starts from cold caches; it checks
  every op's output, and reports work, time spent inside the ops, memory,
  and with ``trace`` the per-function span aggregates.

Times are also given in nominal seconds.  A shared host's speed drifts
by a third or more within minutes, so while it measures, the process
samples that speed: every ``GAUGE_PERIOD_S`` of wall time a timer signal
runs one chunk of a fixed pure-Python calibration kernel that does not
use liftlab.  The chunks' time is taken out of the measured time, and
each measured interval counts ``NOMINAL_CHUNK_S`` / chunk time nominal
seconds per wall second, averaged over the chunks that fell inside it:
what it would have taken on a host where a chunk takes
``NOMINAL_CHUNK_S``.  Traced cycles run no chunks while they measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

GAUGE_PERIOD_S = 0.05
CAL_ITERS = 5_000
# about one chunk's time on the Intel Xeon host of the baselines in README.md
NOMINAL_CHUNK_S = 0.002


def sim_argv(op: dict, workdir: str) -> list[str]:
    argv = ["sim", "--model", op["model"],
            "--init", ";".join(c["text"] for c in op["init"]),
            "--n", str(op["n"]), "--dt", repr(op["dt"]),
            "--steps", str(op["steps"]), "--cadence", str(op["cadence"]),
            "--out", os.path.join(workdir, "traj.csv"),
            "--diag", os.path.join(workdir, "diag.csv")]
    if op["K"]:
        argv += ["--K", op["K"]]
    if op["phi"]:
        argv += ["--phi", op["phi"]]
    return argv


def verify_argv(op: dict) -> list[str]:
    return ["verify", "--suite", op["suite"], "--trials", str(op["trials"]),
            "--seed", str(op["seed"])]


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration_chunk() -> float:
    """Seconds one fixed chunk of pure-Python dict and int work takes."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERS):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i * i
        acc = (acc * 31 + k) % 1_000_003
    elapsed = time.perf_counter() - t0
    if len(counts) != 1009:
        raise RuntimeError("calibration kernel gave a wrong result")
    return elapsed


class HostGauge:
    """Samples the host's speed with calibration chunks, on a timer while
    ``active`` and inside a ``with`` block."""

    def __init__(self, active: bool = True):
        self.active = active
        self.chunks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.chunks.append(calibration_chunk())

    def __enter__(self) -> "HostGauge":
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def settle(self, wall_s: float, first: int) -> tuple[float, float]:
        """(seconds, nominal seconds) of an interval of ``wall_s`` during
        which chunks ``first:`` ran.  With no chunk inside it, one runs
        now, outside the interval."""
        inside = self.chunks[first:]
        seconds = wall_s - sum(inside)
        if not inside:
            self.chunks.append(calibration_chunk())
        speed = [NOMINAL_CHUNK_S / c for c in self.chunks[first:]]
        return seconds, seconds * sum(speed) / len(speed)


def setup(spec: dict) -> dict:
    """Cold set-up time, in seconds and in nominal seconds."""
    with HostGauge() as gauge:
        t0 = time.perf_counter()
        from liftlab import cli  # noqa: F401  (the import is what is timed)
        from liftlab.sim import SimConfig, build_model, initial_state
        for op in spec["ops"]:
            if op["kind"] != "sim":
                continue
            params = {"phi": op["phi"]} if op["phi"] else {}
            cfg = SimConfig(model=op["model"], n=op["n"], dt=op["dt"],
                            steps=op["steps"], cadence=op["cadence"],
                            expr=op["K"], params=params,
                            init=tuple(c["text"] for c in op["init"]))
            initial_state(cfg, build_model(cfg))
        wall = time.perf_counter() - t0
    seconds, nominal = gauge.settle(wall, 0)
    return {"setup_s": seconds, "setup_nominal_s": nominal}


def _cache_counts(originals: dict) -> tuple[int, int, int]:
    """(canonicalize hits, canonicalize misses, entries over the expr caches)."""
    hits = misses = entries = 0
    for name in ("canonicalize", "is_rational", "free_vars"):
        info = getattr(originals.get(name), "cache_info", None)
        if info is None:
            continue
        ci = info()
        entries += ci.currsize
        if name == "canonicalize":
            hits, misses = ci.hits, ci.misses
    return hits, misses, entries


def run_cycle(spec: dict, tamper=None) -> dict:
    """Run the spec's ops once, then check their outputs.  Memory and cache
    figures are taken after the last op and before any check.  Op ``i``
    writes its files under ``<workdir>/op<i>``.  ``tamper(op, opdir,
    report)`` may corrupt an op's output before it is checked; only the
    self-test and make_refs.py pass it."""
    import gate
    from liftlab import cli, expr
    from spans import Tracer

    originals = {n: getattr(expr, n, None) for n in ("canonicalize", "is_rational", "free_vars")}
    tracer = Tracer()
    if spec.get("trace"):
        tracer.install()
    hits0, misses0, _ = _cache_counts(originals)
    out = {"attempted": 0, "failed": 0, "work": 0, "op_s": 0.0, "op_nominal_s": 0.0,
           "traj_bytes": 0, "problems": []}
    runs = []
    rss_first = rss_last = current_rss_mb()
    with HostGauge(active=not spec.get("trace")) as gauge:
        for i, op in enumerate(spec["ops"]):
            opdir = os.path.join(spec["workdir"], f"op{i}")
            Path(opdir).mkdir(parents=True, exist_ok=True)
            argv = sim_argv(op, opdir) if op["kind"] == "sim" else verify_argv(op)
            buf = io.StringIO()
            crash = None
            first = len(gauge.chunks)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc, crash = None, traceback.format_exc(limit=4)
            op_s, nominal_s = gauge.settle(time.perf_counter() - t0, first)
            out["op_s"] += op_s
            out["op_nominal_s"] += nominal_s
            out["attempted"] += 1
            runs.append((op, opdir, argv, rc, crash, buf.getvalue()))
            rss_last = current_rss_mb()
            if i == 0:
                rss_first = rss_last
    out["chunks"] = len(gauge.chunks)
    hits1, misses1, entries = _cache_counts(originals)
    lookups = (hits1 - hits0) + (misses1 - misses0)
    out.update(peak_rss_mb=peak_rss_mb(), rss_growth_mb=rss_last - rss_first,
               canonicalize_hit_ratio=(hits1 - hits0) / lookups if lookups else 0.0,
               cache_entries=entries)
    if spec.get("trace"):
        out["stats"] = tracer.stats

    for i, (op, opdir, argv, rc, crash, report) in enumerate(runs):
        if tamper is not None:
            report = tamper(op, opdir, report)
        traj = os.path.join(opdir, "traj.csv")
        try:
            if crash is not None:
                problems, work = [crash], 0
            elif op["kind"] == "sim":
                problems = gate.check_sim(op, rc, traj, os.path.join(opdir, "diag.csv"),
                                          gate.init_grid(op))
                work = op["work"]
                out["traj_bytes"] += os.path.getsize(traj)
            else:
                problems, work = gate.check_verify(op, rc, report)
        except (OSError, ValueError, IndexError) as exc:
            problems, work = [f"output unreadable: {exc!r}"], 0
        if problems:
            out["failed"] += 1
            out["problems"].append(f"op {i} ({' '.join(argv[:3])}): {'; '.join(problems)}")
        else:
            out["work"] += work
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    result = setup(spec) if spec["mode"] == "setup" else run_cycle(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
