"""liftlab benchmark: closed-loop workloads through the ``liftlab`` CLI.

    python3 perfbench/run.py --workload sim-io --seed 0 --seconds 36 --trace 0

Run from the root of a liftlab checkout.  One client, closed loop: the
run starts one cycle process at a time (``perfbench/cycle.py``), each of
which runs the workload's fixed op list through ``liftlab.cli.main`` and
checks every op's output, until ``--seconds`` have passed (at least one
cycle).  Work per second is total work over total time inside the ops;
peak memory is the median over cycle processes.  Set-up time is the
median over separate set-up processes, one after each cycle and at least
5, which time the cold import and model build and run no ops.  Child
processes get one numpy/BLAS thread each.

Times are reported in nominal seconds: the child processes sample the
host's speed while they measure (``cycle.HostGauge``) and convert each
measured interval to what it would have taken at a fixed nominal speed.
The wall-clock figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs of
an untraced and a traced cycle of the same ops and prints the per-layer
metrics from the traced ones, with the tracing overhead; it also writes
the span aggregates to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
CYCLE = Path(__file__).resolve().parent / "cycle.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = (
    ("work_per_s", "units/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_FIELDS = {"calls": 0, "s": 1, "self_s": 2}
_MODULES = ("cli", "verify", "sim", "grid", "kinetics", "lifts", "jets",
            "geometry", "parser", "expr", "poly", "samplers")
PER_LAYER = (
    ("sim.run_simulation.self_s", "s"), ("sim.traj_bytes", "bytes"),
    ("grid.spatial_derivative.calls", "count"), ("grid.spatial_derivative.s", "s"),
    ("grid.rhs.calls", "count"), ("grid.rhs.s", "s"), ("grid.rhs.self_s", "s"),
    ("grid.rk4_step.calls", "count"), ("grid.rk4_step.s", "s"),
    ("grid.discretize.calls", "count"), ("grid.discretize.s", "s"),
    ("grid.compile_numeric.calls", "count"), ("grid.compile_numeric.s", "s"),
    ("expr.canonicalize.calls", "count"), ("expr.canonicalize.s", "s"),
    ("expr.canonicalize.hit_ratio", "ratio"), ("expr.cache_entries", "count"),
    ("expr.partial.calls", "count"), ("expr.partial.s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.s", "s"),
    ("poly.poly_gcd.calls", "count"), ("poly.poly_gcd.s", "s"),
    ("poly.exact_div.calls", "count"),
    ("parser.parse_expr.calls", "count"), ("parser.parse_expr.s", "s"),
    ("sim.build_model.s", "s"), ("sim.initial_state.s", "s"),
    ("jets.prolongation_bracket.s", "s"), ("jets.obstruction_form.s", "s"),
    ("lifts.lift_decomposition.s", "s"),
    ("geometry.jacobi_lie_bracket.s", "s"), ("geometry.pointwise_pairing.s", "s"),
    ("kinetics.hamiltonian_operator_momentum.s", "s"),
    ("kinetics.hamiltonian_operator_density.s", "s"),
    ("verify.run_suite.calls", "count"), ("verify.run_suite.s", "s"),
    ("cli.main.s", "s"),
) + tuple((f"{m}.self_s", "s") for m in _MODULES) + (
    ("mem.rss_growth_mb", "MB"),
    ("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, deadline: float) -> dict:
    """Run one cycle.py process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, str(CYCLE)], input=json.dumps(spec),
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child process exceeded {DEADLINE_S:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(traced: dict, plain: dict) -> dict[str, float]:
    stats = traced["stats"]
    attributed = sum(rec[2] for name, rec in stats.items() if name != "cli.main")
    special = {
        "sim.traj_bytes": traced["traj_bytes"],
        "expr.canonicalize.hit_ratio": traced["canonicalize_hit_ratio"],
        "expr.cache_entries": traced["cache_entries"],
        "mem.rss_growth_mb": traced["rss_growth_mb"],
        "trace.wall_s": traced["op_s"],
        "trace.unattributed_s": traced["op_s"] - attributed,
        "trace.overhead_ratio": traced["op_s"] / plain["op_s"] - 1.0,
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        head, _, field = name.rpartition(".")
        if "." in head:
            out[name] = stats.get(head, [0, 0.0, 0.0])[_FIELDS[field]]
        else:
            out[name] = sum(rec[2] for fn, rec in stats.items()
                            if fn.startswith(head + "."))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run cycles of workload ``name`` until ``seconds`` have passed; with
    ``trace`` each cycle is a pair of an untraced and a traced process."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        plain, traced, setups = [], [], []

        def sample_setup():
            setups.append(run_child({"mode": "setup", "ops": spec["ops"]}, deadline))

        start = time.monotonic()
        # start another cycle only while at least half of one still fits
        while not plain or (time.monotonic() - start) * (1 + 0.5 / len(plain)) < seconds:
            spec = workloads.build(name, seed + workloads.CYCLE_SEED_STRIDE * len(plain), tiny)
            cycle = {"mode": "cycle", "ops": spec["ops"], "workdir": str(workdir)}
            plain.append(run_child(dict(cycle, trace=False), deadline))
            if trace:
                traced.append(run_child(dict(cycle, trace=True), deadline))
            else:
                # set-up samples spread over the run, like the cycles
                sample_setup()
        while not trace and len(setups) < SETUP_SAMPLES:
            sample_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cycles = plain + traced
    for c in cycles:
        for problem in c["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    if trace:
        per_cycle = [layer_metrics(t, p) for t, p in zip(traced, plain)]
        metrics = {m: {"value": statistics.median(c[m] for c in per_cycle), "unit": unit}
                   for m, unit in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w") as f:
            json.dump({"workload": name, "seed": seed, "traced_cycles": traced,
                       "untraced_cycles": plain}, f, indent=1)
        print_attribution(traced[-1])
        print(f"unattributed {metrics['trace.unattributed_s']['value']:.4f} s, "
              f"tracing overhead {100 * metrics['trace.overhead_ratio']['value']:.1f}% "
              f"(medians over {len(traced)} traced cycles)")
    else:
        op_s = sum(c["op_s"] for c in plain)
        nominal_s = sum(c["op_nominal_s"] for c in plain)
        work = sum(c["work"] for c in plain)
        values = {
            "work_per_s": work / nominal_s,
            "setup_s": statistics.median(c["setup_nominal_s"] for c in setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        for i, c in enumerate(plain):
            print(f"cycle {i}: {c['attempted']} ops, work {c['work']}, "
                  f"{c['op_s']:.3f} s in ops ({c['op_nominal_s']:.3f} nominal, "
                  f"{c['chunks']} gauge chunks), peak {c['peak_rss_mb']:.1f} MB")
        print("setup samples, s (nominal): " + " ".join(
            f"{c['setup_s']:.4f} ({c['setup_nominal_s']:.4f})" for c in setups))
        print(f"wall-clock: work_per_s {work / op_s:.6g}, setup_s "
              f"{statistics.median(c['setup_s'] for c in setups):.4f}; host slowness "
              f"{op_s / nominal_s:.3f}")
    print(f"ops attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.4f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_attribution(traced: dict) -> None:
    """Self-time shares of the last traced cycle, largest first."""
    wall = traced["op_s"]
    rows = sorted(traced["stats"].items(), key=lambda kv: -kv[1][2])
    print(f"traced cycle: {wall:.3f} s in ops; self time by function:")
    for name, (calls, total, own) in rows[:15]:
        print(f"  {name:45s} {own:9.3f} s {100 * own / wall:5.1f}%  "
              f"({calls} calls, {total:.3f} s inclusive)")
    mods = {m: sum(rec[2] for fn, rec in traced["stats"].items()
                   if fn.startswith(m + ".")) for m in _MODULES}
    print("self time by module: " + ", ".join(
        f"{m} {100 * s / wall:.1f}%" for m, s in sorted(mods.items(), key=lambda kv: -kv[1]) if s))


def machine_facts(spec: dict) -> dict:
    import numpy
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    for idx in caches:
        try:
            llc = (int((idx / "level").read_text()), (idx / "size").read_text().strip())
        except (OSError, ValueError):
            continue
    sizes = {}
    for i, op in enumerate(spec["ops"]):
        if op["kind"] == "sim":
            cells = op["n"] ** op["dim"] * len(op["init"])
            sizes[f"op{i}:{op['model']}:n{op['n']}"] = round(cells * 8 / 1e6, 3)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "last_level_cache": f"L{llc[0]} {llc[1]}" if llc else "unknown",
        "state_array_mb_computed": sizes,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liftlab" / "cli.py").is_file():
        print(f"error: no liftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"facts": machine_facts(workloads.build(args.workload, args.seed))}))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
