"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a liftlab checkout.  Checks that every metric named
in BENCHMARK.json is emitted with its unit, in both modes, for every
workload; that the gate counts corrupted output as a failed op; and that
the host gauge fires and converts to nominal seconds as documented.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cycle  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check_declared_metrics(bench: dict) -> None:
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert [w["why"] for w in bench["workloads"]] == list(workloads.WHY.values())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def check_emitted(bench: dict, name: str) -> None:
    for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        result = run.run(name, 7, 0.0, trace, tiny=True)
        assert result["correct"] and result["failed"] == 0, result
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}, (name, trace)
        for v in result["metrics"].values():
            assert isinstance(v["value"], (int, float)), v


def truncate_traj(op, opdir, report):
    path = Path(opdir, "traj.csv")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    return report


def _nudge_last_line(path: Path, column: int) -> None:
    """Move one value of the file's last line by one part in a million."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6) + 1e-6)
    lines[-1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def nudge_last_diag_row(op, opdir, report):
    _nudge_last_line(Path(opdir, "diag.csv"), 2)
    return report


def nudge_last_traj_value(op, opdir, report):
    _nudge_last_line(Path(opdir, "traj.csv"), -1)
    return report


def fail_report(op, opdir, report):
    return report.replace("[PASS]", "[FAIL]", 1)


def check_gate_counts_corruption() -> None:
    """Corruption is caught on a seed without committed references, so
    every check here is one that runs on every seed."""
    for name, tamper in (("sim-io", truncate_traj), ("sim-io", nudge_last_diag_row),
                         ("sim-plan", nudge_last_diag_row),
                         ("sim-plan", nudge_last_traj_value),
                         ("verify-exact", fail_report)):
        spec = workloads.build(name, 7, tiny=True)
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            clean = cycle.run_cycle(dict(spec, workdir=tmp))
            bad = cycle.run_cycle(dict(spec, workdir=tmp), tamper=tamper)
        assert clean["failed"] == 0, clean["problems"]
        assert bad["attempted"] == clean["attempted"]
        assert bad["failed"] == bad["attempted"], bad["problems"]


def check_reference_tolerance() -> None:
    ref = "t,mass,l2,min,max\n0.0,100.0,10.0,1.0,5.0\n"
    near = "t,mass,l2,min,max\n0.0,100.00000000001,10.0,1.0,5.0\n"
    off = "t,mass,l2,min,max\n0.0,100.000001,10.0,1.0,5.0\n"
    assert gate._match_reference_diag(near, ref) == []
    assert gate._match_reference_diag(off, ref)
    assert gate._match_reference_diag(ref, None)


def check_gauge() -> None:
    nominal_chunk = cycle.NOMINAL_CHUNK_S
    gauge = cycle.HostGauge(active=False)
    gauge.chunks = [nominal_chunk, 2 * nominal_chunk]
    seconds, nominal = gauge.settle(1.0, 0)
    assert abs(seconds - (1.0 - 3 * nominal_chunk)) < 1e-12, seconds
    assert abs(nominal - 0.75 * seconds) < 1e-12, nominal
    # an interval with no chunk inside it runs one after it, untimed
    seconds, nominal = gauge.settle(1.0, 2)
    assert seconds == 1.0 and len(gauge.chunks) == 3 and nominal > 0
    with cycle.HostGauge() as gauge:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * cycle.GAUGE_PERIOD_S:
            pass
    assert len(gauge.chunks) >= 2, gauge.chunks


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check_declared_metrics(bench)
    check_reference_tolerance()
    check_gauge()
    check_gate_counts_corruption()
    for name in workloads.WHY:
        check_emitted(bench, name)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
