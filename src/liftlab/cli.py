"""Command-line front end.

Subcommands: lift, bracket, density, verify, sim.  Exit codes: 0 ok,
1 verify failure, 2 config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .expr import ExprError
from .geometry import Chart, VectorField, one_form
from .jets import GeneralizedVectorField, JetChart, prolongation_bracket
from .kinetics import (
    ContactStructure, contact_bracket, contact_density,
    plasma_chart, plasma_density,
)
from .lifts import (
    CotangentChart, canonical_poisson, complete_cotangent_lift,
    lift_decomposition,
)
from .geometry import jacobi_lie_bracket
from .grid import NumericalAbortError
from .parser import parse_expr
from .sim import ConfigError, SimConfig, load_config, run_simulation
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ABORT = 3


def _split(text: str, sep: str = ",") -> list[str]:
    return [part.strip() for part in text.split(sep) if part.strip()]


def _parse_components(text: str, chart: Chart, sep: str = ",") -> list:
    parts = _split(text, sep)
    if len(parts) != chart.dim:
        raise ConfigError(f"expected {chart.dim} components, got {len(parts)}")
    return [parse_expr(p, chart.vars) for p in parts]


def cmd_lift(args) -> int:
    names = _split(args.vars)
    base = Chart.make(*names)
    cchart = CotangentChart.make(base)
    X = VectorField(base, tuple(_parse_components(args.field, base)))
    lifted = complete_cotangent_lift(cchart, X)
    v, h = lift_decomposition(cchart, X)
    fibers = ", ".join(cchart.fiber_var(a).name for a in range(cchart.m))
    print(f"chart: base {base}, fibers ({fibers})\nX^c* = {lifted}\n"
          f"V X^c* = {v}\nH X^c* = {h}")
    return EXIT_OK


def cmd_bracket(args) -> int:
    kind = args.type
    if kind == "jl":
        chart = Chart.make(*_split(args.vars))
        X = VectorField(chart, tuple(_parse_components(args.a, chart)))
        Y = VectorField(chart, tuple(_parse_components(args.b, chart)))
        print(f"[a, b] = {jacobi_lie_bracket(X, Y)}")
        return EXIT_OK
    if kind == "pro":
        if not args.fibers:
            raise ConfigError("--type pro needs --fibers")
        jc = JetChart.make(_split(args.vars), _split(args.fibers))
        all_first = sorted(jc.first_order_vars(), key=lambda v: v.index)

        def parse_gvf(text: str) -> GeneralizedVectorField:
            halves = text.split(";")
            if len(halves) != 2:
                raise ConfigError("generalized field syntax: 'base comps ; fiber comps'")
            base = [parse_expr(p, list(jc.base)) for p in _split(halves[0])]
            fiber = [parse_expr(p, all_first) for p in _split(halves[1])]
            if len(base) != jc.m or len(fiber) != jc.k:
                raise ConfigError(f"expected {jc.m} base and {jc.k} fiber components")
            return GeneralizedVectorField(jc, tuple(base), tuple(fiber))

        out = prolongation_bracket(parse_gvf(args.a), parse_gvf(args.b))
        print(f"[a, b]_pro = {out}")
        return EXIT_OK
    if kind == "contact":
        cs = ContactStructure.standard()
        K = parse_expr(args.a, cs.chart.vars)
        L = parse_expr(args.b, cs.chart.vars)
        print(f"{{a, b}}_c = {contact_bracket(cs, K, L)}")
        return EXIT_OK
    if kind == "canonical":
        names = _split(args.vars)
        if len(names) % 2:
            raise ConfigError("--type canonical needs an even variable list: "
                              "base coordinates then momenta")
        m = len(names) // 2
        base = Chart.make(*names[:m])
        cchart = CotangentChart.make(base, names[m:])
        f = parse_expr(args.a, cchart.full.vars)
        g = parse_expr(args.b, cchart.full.vars)
        print(f"{{a, b}} = {canonical_poisson(cchart, f, g)}")
        return EXIT_OK
    raise ConfigError(f"unknown bracket type '{kind}'")


def cmd_density(args) -> int:
    if args.contact_alpha:
        cs = ContactStructure.standard()
        comps = [parse_expr(p, cs.chart.vars) for p in _split(args.contact_alpha, ";")]
        if len(comps) != 3:
            raise ConfigError("--contact-alpha needs 'ax;ay;az'")
        alpha = one_form(cs.chart, tuple(comps))
        L = contact_density(cs, alpha)
        print(f"L = {L}")
        return EXIT_OK
    if args.plasma_pi:
        parts = _split(args.plasma_pi, ";")
        if len(parts) % 2:
            raise ConfigError("--plasma-pi needs 'P_1;..;P_n;P^1;..;P^n'")
        n = len(parts) // 2
        pc = plasma_chart(n)
        comps = [parse_expr(p, pc.full.vars) for p in parts]
        print(f"f = {plasma_density(pc, one_form(pc.full, comps))}")
        return EXIT_OK
    raise ConfigError("density needs --contact-alpha or --plasma-pi")


def _report_json(report) -> str:
    """The suite report as JSON, with each check's wall time and the change
    of ``expr.kernel_stats()`` while it ran."""
    checks = []
    for r in report.results:
        check = {"name": r.name, "trials": r.trials, "passed": r.passed,
                 "seconds": r.seconds, "kernel": r.kernel,
                 "counterexample": r.counterexample}
        if r.residuals:
            check.update(max_residual=max(r.residuals), flagged=r.flagged)
        checks.append(check)
    return json.dumps({"suite": report.suite, "trials": report.trials,
                       "degree": report.degree, "seed": report.seed,
                       "result": report.verdict, "seconds": report.seconds,
                       "kernel": report.kernel, "checks": checks}, indent=2)


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.degree < 0:
        raise ConfigError(f"--degree must be at least 0, got {args.degree}")
    try:
        report = run_suite(args.suite, trials=args.trials,
                           degree=args.degree, seed=args.seed)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    print(_report_json(report) if args.json else report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILURE


def cmd_sim(args) -> int:
    if args.config:
        cfg = load_config(args.config)
    else:
        if not args.model:
            raise ConfigError("sim needs --config or --model")
        params = {}
        if args.m is not None:
            params["m"] = args.m
        if args.e is not None:
            params["e"] = args.e
        if args.phi is not None:
            params["phi"] = args.phi
        cfg = SimConfig(
            model=args.model,
            expr=args.K or "",
            params=params,
            init=tuple(_split(args.init, ";")) if args.init else (),
            n=args.n, dt=args.dt, steps=args.steps, cadence=args.cadence,
            out=args.out, diag=args.diag,
            allow_aperiodic=args.allow_aperiodic,
        )
    result = run_simulation(cfg)
    last = result.diagnostics[-1]
    print(f"completed {cfg.steps} steps of {cfg.model}; "
          f"final t={last[0]:g} mass={last[1]:.6e} l2={last[2]:.6e}")
    print(f"trajectory: {result.out_path}")
    print(f"diagnostics: {result.diag_path}")
    print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liftlab",
        description="lift calculus, Lie-Poisson kinetic equations, and a "
                    "periodic-grid integrator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="complete cotangent lift and its V/H split")
    p.add_argument("--field", required=True,
                   help="comma-separated components of the base field")
    p.add_argument("--vars", required=True, help="comma-separated base coordinates")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("bracket", help="Lie brackets of the four flavors")
    p.add_argument("--type", required=True,
                   choices=("jl", "pro", "contact", "canonical"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--vars", default="",
                   help="base coordinates (jl, pro) or phase-space coordinates (canonical)")
    p.add_argument("--fibers", default="", help="fiber coordinates for --type pro")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("density", help="momentum-map densities")
    p.add_argument("--contact-alpha", default="",
                   help="'ax;ay;az' one-form components on x,y,z")
    p.add_argument("--plasma-pi", default="",
                   help="'P_1;..;P^n' momentum components on (q, p)")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify", help="randomized symbolic verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON, with each check's wall time "
                        "and the change of the kernel counters while it ran")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sim", help="method-of-lines simulation run")
    p.add_argument("--config", default="", help="run.json path")
    p.add_argument("--model", default="")
    p.add_argument("--K", default="", help="contact generator expression")
    p.add_argument("--init", default="", help="semicolon-separated initial components")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--cadence", type=int, default=10)
    p.add_argument("--out", default="traj.csv")
    p.add_argument("--diag", default="diag.csv")
    p.add_argument("--allow-aperiodic", action="store_true")
    p.add_argument("--m", default=None, help="plasma particle mass (rational)")
    p.add_argument("--e", default=None, help="plasma charge (rational)")
    p.add_argument("--phi", default=None, help="plasma potential phi(q)")
    p.set_defaults(fn=cmd_sim)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericalAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ABORT
    except (ConfigError, ExprError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
