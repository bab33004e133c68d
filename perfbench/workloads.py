"""Workload definitions: the fixed op list one cycle runs, built from a seed.

A cycle is one fresh process that runs its op list once, in order, through
``liftlab.cli.main``.  Every cycle of a run has the same shape, so memory
figures describe a fixed amount of work whatever the speed; cycle ``c`` of
a run with seed ``s`` draws its inputs from seed ``s + CYCLE_SEED_STRIDE * c``.

Sim ops take trigonometric-polynomial initial data over a fixed set of
modes; the seed draws only the small-rational amplitudes, so the load
shape is the same for every seed.  Verify ops pass the seed as ``--seed``.

There is no ``verify --suite operators-weak`` workload: the size of its
random probe integrands varies with the seed (coefficient of variation 23%
per trial), so the runs that fit the time budget cannot hold enough trials
to keep its spread across seeds within the bound.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
DEFAULT_SEED = 0
CYCLE_SEED_STRIDE = 1000

# (func, axis, frequency) factors of each mode; () is the constant mode
MODES_3D = (
    (),
    (("sin", 0, 1),),
    (("cos", 1, 1),),
    (("sin", 2, 2),),
    (("cos", 0, 1), ("sin", 1, 1)),
    (("sin", 0, 2), ("cos", 2, 1)),
)
MODES_2D = (
    (),
    (("sin", 0, 1),),
    (("cos", 1, 1),),
    (("cos", 0, 1), ("sin", 1, 2)),
)
VARS = {3: ("x", "y", "z"), 2: ("q", "p")}
DT = 1e-3

# why each workload exists, and its unit of work
WHY = {
    "sim-io": "contact-momentum K=z n=32, 4 snapshots in 30 steps: trajectory "
              "writer and stencils dominate, the plan is cheap; work unit: cell-steps",
    "sim-plan": "trig generator at n=32 plus Vlasov n=64, 2 snapshots each: "
                "the pointwise plan dominates; work unit: cell-steps",
    "verify-exact": "jets, lifts, contact suites over 3 seeds in one process: "
                    "exact poly/expr kernel, growing caches; work unit: check-trials",
}


def _amplitude(rng: random.Random) -> str:
    return str(Fraction(rng.choice((1, 2, 3)) * rng.choice((-1, 1)), rng.choice((2, 3, 4))))


def trig_init(rng: random.Random, dim: int) -> dict:
    """One component of initial data: its text and its (amplitude, mode) terms."""
    names = VARS[dim]
    terms = []
    for mode in (MODES_3D if dim == 3 else MODES_2D):
        amp = str(rng.randint(2, 4)) if not mode else _amplitude(rng)
        terms.append((amp, [list(f) for f in mode]))
    parts = []
    for amp, mode in terms:
        factors = [amp] + [f"{fn}({names[axis]})" if k == 1 else f"{fn}({k}*{names[axis]})"
                           for fn, axis, k in mode]
        parts.append("*".join(factors))
    text = " + ".join(parts).replace("+ -", "- ")
    return {"text": text, "terms": terms}


def _sim_op(rng, model: str, n: int, steps: int, cadence: int,
            K: str = "", phi: str | None = None) -> dict:
    dim, ncomp = {"contact-momentum": (3, 3), "vlasov-density": (2, 1)}[model]
    comps = [trig_init(rng, dim) for _ in range(ncomp)]
    return {"kind": "sim", "model": model, "n": n, "dt": DT, "steps": steps,
            "cadence": cadence, "dim": dim, "init": comps, "K": K, "phi": phi,
            "work": n ** dim * ncomp * steps}


def build(name: str, seed: int, tiny: bool = False) -> dict:
    """The cycle spec of workload ``name``; ``tiny`` shrinks it for the self-test."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sim-io":
        ops = [_sim_op(rng, "contact-momentum", 8 if tiny else 32,
                       4 if tiny else 30, 2 if tiny else 10, K="z")]
    elif name == "sim-plan":
        steps = (2, 2) if tiny else (40, 48)
        ops = [_sim_op(rng, "contact-momentum", 8 if tiny else 32, steps[0], steps[0],
                       K="cos(x)*sin(y) + z"),
               _sim_op(rng, "vlasov-density", 8 if tiny else 64, steps[1], steps[1],
                       phi="cos(q)")]
    elif name == "verify-exact":
        rounds = 1 if tiny else 3
        ops = [{"kind": "verify", "suite": suite, "trials": 1 if tiny else 2,
                "seed": seed + r}
               for r in range(rounds) for suite in ("jets", "lifts", "contact")]
    else:
        raise KeyError(name)
    # outputs of the default seed are compared with committed files
    if seed == DEFAULT_SEED and not tiny:
        for i, op in enumerate(ops):
            ref = REF_DIR / ref_name(name, i, op)
            op["reference"] = ref.read_text() if ref.exists() else None
    return {"workload": name, "ops": ops}


def ref_name(workload: str, index: int, op: dict) -> str:
    if op["kind"] == "sim":
        return f"{workload}-{index}-{op['model']}-diag.csv"
    return f"{workload}-{index}-{op['suite']}-seed{op['seed']}.txt"
