"""Rewrite the committed references of the default seed.

    python3 perfbench/make_refs.py

Run from the root of a liftlab checkout, and only for an intended change
of output: the gate compares the default seed's diag.csv (within a float
tolerance) and verify reports (exactly) with these files.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cycle  # noqa: E402
import workloads  # noqa: E402


SCRATCH = HERE.parent / ".perfbench"


def main() -> int:
    workloads.REF_DIR.mkdir(exist_ok=True)
    SCRATCH.mkdir(exist_ok=True)
    for name in workloads.WHY:
        spec = workloads.build(name, workloads.DEFAULT_SEED)
        captured = []

        def capture(op, opdir, report):
            if op["kind"] == "sim":
                captured.append(Path(opdir, "diag.csv").read_text())
            else:
                captured.append(report)
            return report

        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            cycle.run_cycle(dict(spec, mode="cycle", workdir=tmp), tamper=capture)
        for i, (op, text) in enumerate(zip(spec["ops"], captured)):
            path = workloads.REF_DIR / workloads.ref_name(name, i, op)
            path.write_text(text)
            print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
