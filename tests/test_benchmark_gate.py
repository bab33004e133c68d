"""The benchmark's correctness gate holds at its default seed.

Every op of every workload declared in BENCHMARK.json runs once through
``perfbench/cycle.py`` and must pass ``perfbench/gate.py``: each sim op
against the benchmark's own numpy evolution and, like each verify op,
against its committed output under ``perfbench/ref/``.  So the verify
reports of jets, lifts and contact at seeds 0-2 and the diagnostics of
the sim workloads are pinned here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_default_seed_cycle_passes_the_gate(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cycle
    import workloads

    spec = workloads.build(name, workloads.DEFAULT_SEED)
    result = cycle.run_cycle(dict(spec, workdir=str(tmp_path)))
    assert result["attempted"] == len(spec["ops"])
    assert result["failed"] == 0, result["problems"]
