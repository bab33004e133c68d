"""Command-line surface: subcommands, formats, exit codes."""

import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import liftlab
from liftlab.cli import main
from liftlab.parser import MAX_DEPTH
from liftlab.sim import ConfigError, SimConfig, load_config

GOOD_CONFIG = {
    "model": "vlasov-density", "params": {"phi": "cos(q)"},
    "init": ["1 + 3/10*sin(q)*sin(p)"], "n": 16, "dt": 1e-3, "steps": 1,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLift:
    def test_dilation_lift(self, capsys):
        code, out, _ = run(capsys, "lift", "--field", "x", "--vars", "x")
        assert code == 0
        assert "X^c* = (x) * d/dx + (-y_x) * d/dy_x" in out
        assert "V X^c*" in out and "H X^c*" in out

    def test_bad_component_count(self, capsys):
        code, _, err = run(capsys, "lift", "--field", "x,y", "--vars", "x")
        assert code == 2
        assert "error" in err

    def test_trig_field_lifts(self, capsys):
        code, out, _ = run(capsys, "lift", "--field", "sin(x)", "--vars", "x")
        assert code == 0
        assert "(-y_x*cos(x)) * d/dy_x" in out

    @pytest.mark.parametrize("field", [
        "-" * MAX_DEPTH + "x",
        "-(" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2),
        "x" + "/1" * MAX_DEPTH,
    ], ids=["unary-minus", "minus-and-parentheses", "quotients"])
    def test_field_at_the_depth_bound_lifts(self, capsys, field):
        code, out, _ = run(capsys, "lift", f"--field={field}", "--vars", "x")
        assert code == 0
        assert "X^c* = (x) * d/dx + (-y_x) * d/dy_x" in out

    @pytest.mark.parametrize("field", [
        "(" * 3000 + "x" + ")" * 3000,
        "-" * 3000 + "x",
        "x" + "/1" * 3000,
        "-" * MAX_DEPTH + "(x)",
    ], ids=["parentheses", "unary-minus", "quotients", "one-past-the-bound"])
    def test_field_nested_too_deep_is_config_error(self, capsys, field):
        code, _, err = run(capsys, "lift", f"--field={field}", "--vars", "x")
        assert code == 2
        assert "nested deeper" in err

    def test_numeric_only_quotient_by_zero_is_config_error(self, capsys):
        code, out, err = run(capsys, "lift", "--field", "sin(x)/(x-x),y",
                             "--vars", "x,y")
        assert code == 2
        assert out == ""
        assert "identically zero" in err

    def test_function_name_as_variable_is_config_error(self, capsys):
        code, _, err = run(capsys, "lift", "--field", "y, y", "--vars", "sin,y")
        assert code == 2
        assert "function name" in err

    def test_power_too_large_to_expand_is_config_error(self, capsys):
        # (1+x+y)^200 would expand to 20,301 terms
        start = time.perf_counter()
        code, out, err = run(capsys, "lift", "--field", "(1+x+y)^200,y", "--vars", "x,y")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: power 200 of a sum of 3 terms is too large to expand: "
                       "it may have more than 10000 terms\n")

    def test_product_too_large_to_expand_is_config_error(self, capsys):
        # each factor expands to 5,151 terms, within the bound, and their
        # product could have 26.5 million: expanding it took tens of seconds
        # and printed 18 MB.  What is left is the factors' time (CPU time,
        # which the load of other processes does not move)
        start = time.process_time()
        code, out, err = run(capsys, "lift", "--field", "(1+x+y)^100*(1+x+y)^100,y",
                             "--vars", "x,y")
        assert time.process_time() - start < 10.0
        assert (code, out) == (2, "")
        assert err == ("error: product of sums of 5151 and 5151 terms is too large to "
                       "expand: it may have more than 10000 terms\n")


class TestBracket:
    def test_jacobi_lie(self, capsys):
        code, out, _ = run(capsys, "bracket", "--type", "jl",
                           "--a", "0,x", "--b", "y,0", "--vars", "x,y")
        assert code == 0
        assert "(x) * d/dx" in out and "(-y) * d/dy" in out

    def test_prolongation(self, capsys):
        code, out, _ = run(capsys, "bracket", "--type", "pro",
                           "--a", "1 ; 0", "--b", "0 ; u",
                           "--vars", "x", "--fibers", "u")
        assert code == 0
        assert "[a, b]_pro = 0" in out

    def test_contact(self, capsys):
        code, out, _ = run(capsys, "bracket", "--type", "contact",
                           "--a", "x", "--b", "y")
        assert code == 0
        assert "{a, b}_c = 1" in out

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "bracket", "--type", "canonical",
                           "--a", "q", "--b", "p", "--vars", "q,p")
        assert code == 0
        assert "{a, b} = 1" in out

    def test_function_name_as_jet_variable_is_config_error(self, capsys):
        code, _, err = run(capsys, "bracket", "--type", "pro", "--a", "1 ; 0",
                           "--b", "0 ; 1", "--vars", "x", "--fibers", "exp")
        assert code == 2
        assert "function name" in err

    def test_unknown_variable_is_config_error(self, capsys):
        code, _, err = run(capsys, "bracket", "--type", "jl",
                           "--a", "w,0", "--b", "0,x", "--vars", "x,y")
        assert code == 2
        assert "unknown variable" in err


class TestDensity:
    def test_contact_density(self, capsys):
        code, out, _ = run(capsys, "density", "--contact-alpha", "0;0;1")
        assert code == 0
        assert "L = -2" in out

    def test_numeric_only_contact_density(self, capsys):
        code, out, _ = run(capsys, "density", "--contact-alpha", "sin(y);0;1")
        assert code == 0
        assert out == "L = -cos(y) - 2\n"

    def test_plasma_density(self, capsys):
        code, out, _ = run(capsys, "density", "--plasma-pi", "p;0")
        assert code == 0
        assert "f = -1" in out

    def test_needs_an_input(self, capsys):
        code, _, err = run(capsys, "density")
        assert code == 2


class TestVerify:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "euler-field",
                           "--trials", "3", "--degree", "2", "--seed", "5")
        assert code == 0
        assert "RESULT: PASS" in out
        assert "[PASS]" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    def test_operators_weak_passes_and_fails_under_a_fault(self, capsys, monkeypatch):
        from liftlab import verify

        argv = ("verify", "--suite", "operators-weak", "--trials", "1", "--seed", "3")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "  [PASS] pairing-duality (1 trials)\n" in out
        assert out.endswith("RESULT: PASS\n")
        momentum = verify.hamiltonian_operator_momentum
        monkeypatch.setattr(verify, "hamiltonian_operator_momentum",
                            lambda cs, alpha, X: momentum(cs, alpha, X).scaled(-1))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert "  [FAIL] momentum-operator-weak (1 trials)\n" in out
        assert out.endswith("RESULT: FAIL\n")

    def test_failed_exact_suite_exits_one(self, capsys, monkeypatch):
        from liftlab import cli
        from liftlab.verify import CheckResult, SuiteReport

        def broken_suite(name, trials=20, degree=3, seed=0):
            report = SuiteReport(name, trials, degree, seed)
            report.results.append(CheckResult(
                "some-identity", 1, False, counterexample="X = x"))
            return report

        monkeypatch.setattr(cli, "run_suite", broken_suite)
        code, out, _ = run(capsys, "verify", "--suite", "lifts")
        assert code == 1
        assert "RESULT: FAIL" in out
        assert "counterexample: X = x" in out
        code, out, _ = run(capsys, "verify", "--suite", "lifts", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["result"] == "FAIL"
        assert report["checks"][0]["counterexample"] == "X = x"

    def test_library_fault_inside_a_check_is_a_verify_failure(self, capsys, monkeypatch):
        # a fault that makes a check raise an ExprError fails that check;
        # it is not a config error and prints no traceback
        from liftlab import jets, verify
        from liftlab.expr import canonicalize

        vertical_representative = jets.vertical_representative

        def doubled(xi):
            v = vertical_representative(xi)
            return jets.GeneralizedVectorField(
                v.jet_chart, v.base_components,
                tuple(canonicalize(c * 2) for c in v.fiber_components))

        for module in (jets, verify):
            monkeypatch.setattr(module, "vertical_representative", doubled)
        argv = ("verify", "--suite", "jets", "--trials", "2")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert ("  [FAIL] vertical-bracket-identity (1 trials)\n"
                "         counterexample: JetConsistencyError: second-jet "
                "variables did not cancel in the bracket: u_xx, u_xy, u_yy\n") in out
        assert out.endswith("RESULT: FAIL\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["result"] == "FAIL"
        assert report["checks"][1]["counterexample"].startswith("JetConsistencyError: ")

    def test_json_report_times_each_check(self, capsys):
        argv = ("verify", "--suite", "lifts", "--trials", "2", "--seed", "4")
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["suite"], report["trials"], report["degree"], report["seed"],
                report["result"]) == ("lifts", 2, 3, 4, "PASS")
        lines = [f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']} ({c['trials']} trials)"
                 for c in report["checks"]]
        assert text.splitlines()[1:-1] == lines
        for check in report["checks"]:
            assert check["seconds"] >= 0 and check["counterexample"] is None
            assert check["kernel"]["canonicalize_calls"] > 0
        assert report["seconds"] >= sum(c["seconds"] for c in report["checks"])
        assert report["kernel"]["canonicalize_calls"] == sum(
            c["kernel"]["canonicalize_calls"] for c in report["checks"])

    def test_json_report_counts_the_nodes_each_check_interned(self, capsys):
        # each trial gives its nodes back, but the count of nodes interned
        # only grows, so a check that builds expressions shows a delta
        code, out, _ = run(capsys, "verify", "--suite", "jets", "--trials", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert all(c["kernel"]["nodes"] > 0 for c in report["checks"])
        assert report["kernel"]["nodes"] >= sum(c["kernel"]["nodes"] for c in report["checks"])

    def test_json_report_of_the_weak_suite_times_the_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "operators-weak",
                           "--trials", "1", "--seed", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == "PASS" and report["seconds"] > 0
        assert report["seconds"] >= sum(c["seconds"] for c in report["checks"])
        assert all(set(c) == {"name", "trials", "passed", "seconds", "kernel",
                              "counterexample"} for c in report["checks"])

    def test_json_report_of_an_unknown_suite_is_config_error(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "nope", "--json")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("suite, flag, value, message", [
        ("operators-weak", "--trials", "0", "--trials must be at least 1, got 0"),
        ("jets", "--trials", "-1", "--trials must be at least 1, got -1"),
        ("jets", "--trials", "0", "--trials must be at least 1, got 0"),
        ("contact", "--degree", "-1", "--degree must be at least 0, got -1"),
    ])
    def test_out_of_range_count_is_config_error(self, capsys, suite, flag, value, message):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSim:
    def test_flag_run(self, tmp_path, capsys):
        out_csv = str(tmp_path / "t.csv")
        diag_csv = str(tmp_path / "d.csv")
        code, out, _ = run(capsys, "sim", "--model", "contact-density",
                           "--K", "z", "--init", "2 + sin(x)*sin(y)*sin(z)",
                           "--n", "16", "--dt", "1e-3", "--steps", "10",
                           "--cadence", "5", "--out", out_csv, "--diag", diag_csv)
        assert code == 0
        assert "completed 10 steps" in out
        assert open(diag_csv).readline().strip() == "t,mass,l2,min,max"

    def test_last_step_is_output_when_cadence_does_not_divide_steps(self, tmp_path, capsys):
        diag_csv = str(tmp_path / "d.csv")
        code, out, _ = run(capsys, "sim", "--model", "contact-density", "--K", "z",
                           "--init", "2+sin(x)", "--n", "8", "--steps", "12",
                           "--cadence", "5", "--dt", "0.01",
                           "--out", str(tmp_path / "t.csv"), "--diag", diag_csv)
        assert code == 0
        assert "completed 12 steps of contact-density; final t=0.12 " in out
        times = [line.split(",")[0] for line in open(diag_csv).read().splitlines()[1:]]
        assert times == ["0.0", "0.05", "0.1", "0.12"]

    def test_negative_charge_runs_in_equals_form(self, tmp_path, capsys):
        # "--e -1/2" reads -1/2 as an option: see the hostile-input table
        code, out, _ = run(capsys, "sim", "--model", "vlasov-density", "--e=-1/2",
                           "--phi", "cos(q)", "--init", "1 + 3/10*sin(q)*sin(p)",
                           "--n", "8", "--steps", "2", "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 0
        assert "completed 2 steps of vlasov-density" in out
        manifest = json.load(open(str(tmp_path / "t.csv") + ".manifest.json"))
        assert manifest["config"]["params"]["e"] == "-1/2"

    def test_config_run(self, tmp_path, capsys):
        cfg = {
            "model": "vlasov-density",
            "params": {"m": "1", "e": "1", "phi": "cos(q)"},
            "init": ["1 + 3/10*sin(q)*sin(p)"],
            "n": 16, "dt": 1e-3, "steps": 5, "cadence": 5,
            "out": str(tmp_path / "t.csv"), "diag": str(tmp_path / "d.csv"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "sim", "--config", str(path))
        assert code == 0
        manifest = json.load(open(cfg["out"] + ".manifest.json"))
        assert manifest["config"]["model"] == "vlasov-density"

    def test_contact_momentum_with_rational_K_runs(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sim", "--model", "contact-momentum",
                           "--K", "z/(1+x^2)",
                           "--init", "0;-cos(x)*sin(y)*sin(z);-1",
                           "--n", "8", "--dt", "1e-3", "--steps", "2",
                           "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 0
        assert "completed 2 steps of contact-momentum" in out

    def test_deepest_K_runs_at_a_low_recursion_limit(self, tmp_path, capsys):
        # the kernel's walks over the differentiated K use explicit stacks,
        # so 100 frames above the caller's depth are enough
        K = "z" + "/exp(y)" * (MAX_DEPTH - 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            code, out, _ = run(capsys, "sim", "--model", "contact-momentum",
                               "--K", K, "--init", "1;1;1", "--n", "8",
                               "--steps", "1", "--out", str(tmp_path / "t.csv"),
                               "--diag", str(tmp_path / "d.csv"))
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0

    def test_steps_zero_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sim", "--model", "contact-density",
                           "--K", "z", "--init", "1", "--n", "16",
                           "--dt", "1e-3", "--steps", "0",
                           "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 2

    def test_numeric_only_quotient_by_zero_in_K_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sim", "--model", "contact-density",
                           "--K", "z+sin(x)/(x-x)", "--init", "1", "--n", "16",
                           "--dt", "1e-3", "--steps", "1",
                           "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 2
        assert "identically zero" in err
        assert not (tmp_path / "t.csv").exists()

    def test_aperiodic_init_is_config_error_without_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "sim", "--model", "contact-density",
                           "--K", "z", "--init", "x", "--n", "16",
                           "--dt", "1e-3", "--steps", "1",
                           "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 2
        assert "non-periodic" in err

    def test_init_periodic_only_within_a_float_tolerance_needs_the_flag(self, tmp_path,
                                                                         capsys):
        # off by 2pi*1e-10 one period on, below a float tolerance
        argv = ("sim", "--model", "contact-density", "--K", "z",
                "--init", "2 + sin(x)*(1 + x/10^10)", "--n", "8", "--steps", "1",
                "--out", str(tmp_path / "t.csv"), "--diag", str(tmp_path / "d.csv"))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "non-periodic" in err and "periodic in x " in err
        assert run(capsys, *argv, "--allow-aperiodic")[0] == 0

    def test_periodic_power_is_decided_without_expanding_it(self, tmp_path, capsys):
        code, _, err = run(capsys, "sim", "--model", "contact-density", "--K", "z",
                           "--init", "(1+sin(x)+cos(y)+sin(z))^200", "--n", "8",
                           "--steps", "1", "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 0, err

    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, err = run(capsys, "sim", "--model", "contact-density",
                               "--K", "z", "--init", "2 + sin(x)*sin(y)*sin(z)",
                               "--n", "16", "--dt", "5.0", "--steps", "400",
                               "--out", str(tmp_path / "t.csv"),
                               "--diag", str(tmp_path / "d.csv"))
        assert code == 3
        assert "numerical abort" in err

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt_is_config_error(self, tmp_path, capsys, dt):
        code, _, err = run(capsys, "sim", "--model", "contact-density",
                           "--K", "z", "--init", "1", "--n", "16",
                           "--dt", dt, "--steps", "1",
                           "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 2
        assert "dt must be finite" in err

    @pytest.mark.parametrize("text", [
        json.dumps(dict(GOOD_CONFIG, n="abc")),
        json.dumps(dict(GOOD_CONFIG, n=1e400)),
        json.dumps(dict(GOOD_CONFIG, dt=[1])),
        json.dumps(dict(GOOD_CONFIG, dt="0.001")),
        json.dumps(dict(GOOD_CONFIG, dt=True)),
        json.dumps(dict(GOOD_CONFIG, params=[1])),
        json.dumps(dict(GOOD_CONFIG, init=[1])),
        json.dumps(dict(GOOD_CONFIG, out=5)),
        json.dumps(dict(GOOD_CONFIG, allow_aperiodic="false")),
        json.dumps([GOOD_CONFIG]),
        '{"model": "vlasov-density", "n": 16,',
        "[" * 100000 + "]" * 100000,
        "\xff",
    ], ids=["n-not-a-number", "n-overflows", "dt-a-list", "dt-a-string",
            "dt-a-bool", "params-a-list",
            "init-not-strings", "out-not-a-string", "aperiodic-a-string",
            "top-level-a-list", "malformed-json", "nested-too-deep",
            "not-utf8"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_bytes(text.encode("latin-1"))
        code, _, err = run(capsys, "sim", "--config", str(path))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("value", [2.9, True, "8"],
                             ids=["fractional", "bool", "string"])
    @pytest.mark.parametrize("key", ["n", "steps", "cadence"])
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(GOOD_CONFIG, **{key: value})))
        code, _, err = run(capsys, "sim", "--config", str(path))
        assert code == 2
        assert f"config key '{key}' must be an integer" in err

    def test_integral_float_counts_load(self, tmp_path, capsys):
        cfg = dict(GOOD_CONFIG, n=16.0, steps=2.0, cadence=1.0,
                   out=str(tmp_path / "t.csv"), diag=str(tmp_path / "d.csv"))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "sim", "--config", str(path))
        assert code == 0
        assert "completed 2 steps" in out

    def test_unknown_param_in_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(GOOD_CONFIG, params={"mass": 2})))
        code, _, err = run(capsys, "sim", "--config", str(path))
        assert code == 2
        assert "unknown params: ['mass']" in err

    @pytest.mark.parametrize("extra, message", [
        ({"model": "contact-density", "h": "z", "params": {}}, "unknown config keys: ['h']"),
        ({"K": "1/2*p^2"}, "model 'vlasov-density' takes no K"),
    ], ids=["contact-with-h", "vlasov-with-K"])
    def test_generator_key_of_the_other_family_is_config_error(
            self, tmp_path, capsys, extra, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(GOOD_CONFIG, **extra)))
        code, _, err = run(capsys, "sim", "--config", str(path))
        assert code == 2
        assert message in err

    def test_plasma_param_for_contact_model_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sim", "--model", "contact-density",
                           "--K", "z", "--m", "5", "--init", "1", "--n", "16",
                           "--steps", "1", "--out", str(tmp_path / "t.csv"),
                           "--diag", str(tmp_path / "d.csv"))
        assert code == 2
        assert "model 'contact-density' takes no params" in err


# ---------------------------------------------------------------------------
# the exact stdout of lift, bracket and density: every row takes the
# canonical route, rows with sin/cos/exp with their calls as atoms

PINNED = {
    "lift-polynomial": (("lift", "--field", "x^2-y,x*y", "--vars", "x,y"),
        "chart: base (x, y), fibers (y_x, y_y)\n"
        "X^c* = (x^2 - y) * d/dx + (x*y) * d/dy + ((-2)*x*y_x - y*y_y) * d/dy_x + "
        "(-x*y_y + y_x) * d/dy_y\n"
        "V X^c* = (-x^2*y_x_x - x*y*y_x_y + (-2)*x*y_x - y*y_y + y*y_x_x) * d/dy_x + "
        "(-x^2*y_y_x - x*y*y_y_y - x*y_y + y*y_y_x + y_x) * d/dy_y\n"
        "H X^c* = (x^2 - y) * d/dx + (x*y) * d/dy + (x^2*y_x_x + x*y*y_x_y - y*y_x_x) * "
        "d/dy_x + (x^2*y_y_x + x*y*y_y_y - y*y_y_x) * d/dy_y\n"),
    "lift-rational": (("lift", "--field", "x/(1+y^2),x*y", "--vars", "x,y"),
        "chart: base (x, y), fibers (y_x, y_y)\n"
        "X^c* = (x/(y^2 + 1)) * d/dx + (x*y) * d/dy + ((-y^3*y_y - y*y_y - y_x)/(y^2 + "
        "1)) * d/dy_x + ((-x*y^4*y_y + (-2)*x*y^2*y_y + 2*x*y*y_x - x*y_y)/(y^4 + 2*y^2 "
        "+ 1)) * d/dy_y\n"
        "V X^c* = ((-x*y^3*y_x_y - y^3*y_y - x*y*y_x_y - x*y_x_x - y*y_y - y_x)/(y^2 + "
        "1)) * d/dy_x + ((-x*y^5*y_y_y - x*y^4*y_y + (-2)*x*y^3*y_y_y + (-2)*x*y^2*y_y - "
        "x*y^2*y_y_x + 2*x*y*y_x - x*y*y_y_y - x*y_y - x*y_y_x)/(y^4 + 2*y^2 + 1)) * "
        "d/dy_y\n"
        "H X^c* = (x/(y^2 + 1)) * d/dx + (x*y) * d/dy + ((x*y^3*y_x_y + x*y*y_x_y + "
        "x*y_x_x)/(y^2 + 1)) * d/dy_x + ((x*y^3*y_y_y + x*y*y_y_y + x*y_y_x)/(y^2 + 1)) "
        "* d/dy_y\n"),
    "lift-three-axes": (("lift", "--field", "y*z,x*z,x*y", "--vars", "x,y,z"),
        "chart: base (x, y, z), fibers (y_x, y_y, y_z)\n"
        "X^c* = (y*z) * d/dx + (x*z) * d/dy + (x*y) * d/dz + (-y*y_z - z*y_y) * d/dy_x + "
        "(-x*y_z - z*y_x) * d/dy_y + (-x*y_y - y*y_x) * d/dy_z\n"
        "V X^c* = (-x*y*y_x_z - x*z*y_x_y - y*z*y_x_x - y*y_z - z*y_y) * d/dy_x + "
        "(-x*y*y_y_z - x*z*y_y_y - y*z*y_y_x - x*y_z - z*y_x) * d/dy_y + (-x*y*y_z_z - "
        "x*z*y_z_y - y*z*y_z_x - x*y_y - y*y_x) * d/dy_z\n"
        "H X^c* = (y*z) * d/dx + (x*z) * d/dy + (x*y) * d/dz + (x*y*y_x_z + x*z*y_x_y + "
        "y*z*y_x_x) * d/dy_x + (x*y*y_y_z + x*z*y_y_y + y*z*y_y_x) * d/dy_y + (x*y*y_z_z "
        "+ x*z*y_z_y + y*z*y_z_x) * d/dy_z\n"),
    "lift-trig": (("lift", "--field", "sin(x)*y,cos(y)", "--vars", "x,y"),
        "chart: base (x, y), fibers (y_x, y_y)\n"
        "X^c* = (y*sin(x)) * d/dx + (cos(y)) * d/dy + (-y*y_x*cos(x)) * d/dy_x + "
        "(-y_x*sin(x) + y_y*sin(y)) * d/dy_y\n"
        "V X^c* = (-y*y_x*cos(x) - y*y_x_x*sin(x) - y_x_y*cos(y)) * d/dy_x + "
        "(-y*y_y_x*sin(x) - y_x*sin(x) + y_y*sin(y) - y_y_y*cos(y)) * d/dy_y\n"
        "H X^c* = (y*sin(x)) * d/dx + (cos(y)) * d/dy + (y*y_x_x*sin(x) + y_x_y*cos(y)) "
        "* d/dy_x + (y*y_y_x*sin(x) + y_y_y*cos(y)) * d/dy_y\n"),
    "lift-exp-over-rational": (("lift", "--field", "exp(x)/(1+x^2)", "--vars", "x"),
        "chart: base (x), fibers (y_x)\n"
        "X^c* = (exp(x)/(x^2 + 1)) * d/dx + ((-x^2*y_x*exp(x) + 2*x*y_x*exp(x) - "
        "y_x*exp(x))/(x^4 + 2*x^2 + 1)) * d/dy_x\n"
        "V X^c* = ((-x^2*y_x*exp(x) - x^2*y_x_x*exp(x) + 2*x*y_x*exp(x) - y_x*exp(x) - "
        "y_x_x*exp(x))/(x^4 + 2*x^2 + 1)) * d/dy_x\n"
        "H X^c* = (exp(x)/(x^2 + 1)) * d/dx + ((y_x_x*exp(x))/(x^2 + 1)) * d/dy_x\n"),
    "jl-rational": (("bracket", "--type", "jl", "--a", "x/(1+y),y^2", "--b", "y,x^2",
                     "--vars", "x,y"),
        "[a, b] = ((y^4 + x^3 + 2*y^3 - y)/(y^2 + 2*y + 1)) * d/dx + (((-2)*x^2*y^2 + "
        "(-2)*x^2*y + 2*x^2)/(y + 1)) * d/dy\n"),
    "jl-trig": (("bracket", "--type", "jl", "--a", "sin(y),0", "--b", "0,cos(x)", "--vars",
                 "x,y"),
        "[a, b] = (-cos(x)*cos(y)) * d/dx + (-sin(x)*sin(y)) * d/dy\n"),
    "pro-rational": (("bracket", "--type", "pro", "--a", "x ; u*u_x", "--b",
                      "1 ; u^2/(1+x^2)", "--vars", "x", "--fibers", "u"),
        "[a, b]_pro = (-1) * d/dx + ((-x^2*u^2*u_x + (-2)*x^2*u^2 + 2*x*u^3 - "
        "u^2*u_x)/(x^4 + 2*x^2 + 1)) * d/du\n"),
    "pro-two-fibers": (("bracket", "--type", "pro", "--a", "x*y, y ; u*v, x+v", "--b",
                        "1, x ; v^2, u*y", "--vars", "x,y", "--fibers", "u,v"),
        "[a, b]_pro = (-x^2 - y) * d/dx + (x*y - x) * d/dy + (-y*u^2 - v^3 + 2*x*v + "
        "2*v^2) * d/du + (y*u*v - 1) * d/dv\n"),
    "pro-trig": (("bracket", "--type", "pro", "--a", "sin(x) ; u*cos(u_x)", "--b",
                  "1 ; exp(u)", "--vars", "x", "--fibers", "u"),
        "[a, b]_pro = (-cos(x)) * d/dx + (u*u_x*exp(u)*sin(u_x) + u*cos(u_x)*exp(u) - "
        "cos(u_x)*exp(u)) * d/du\n"),
    "contact-rational": (("bracket", "--type", "contact", "--a", "x*y/(1+z^2)", "--b",
                          "z-x^2"),
        "{a, b}_c = (2*x^3*y*z + 2*x^2*z^2 + 2*x*y*z^2 + 2*x^2)/(z^4 + 2*z^2 + 1)\n"),
    "contact-trig": (("bracket", "--type", "contact", "--a", "sin(x)*z", "--b", "exp(y)"),
        "{a, b}_c = z*cos(x)*exp(y) - exp(y)*sin(x)\n"),
    "canonical-rational": (("bracket", "--type", "canonical", "--a", "q1*p2/(1+q2^2)",
                            "--b", "p1^2+q1*p2", "--vars", "q1,q2,p1,p2"),
        "{a, b} = ((-2)*q1^2*q2*p2 + 2*q2^2*p1*p2 + 2*p1*p2)/(q2^4 + 2*q2^2 + 1)\n"),
    "canonical-trig": (("bracket", "--type", "canonical", "--a", "cos(q)*p", "--b",
                        "sin(p)", "--vars", "q,p"),
        "{a, b} = -p*cos(p)*sin(q)\n"),
    "contact-alpha-rational": (("density", "--contact-alpha", "y/(1+x^2);x*z;1+y"),
        "L = ((-2)*x^2*y + x^2*z + (-2)*x^2 + (-2)*y + z - 3)/(x^2 + 1)\n"),
    "contact-alpha-trig": (("density", "--contact-alpha", "sin(y);cos(x);exp(z)"),
        "L = -cos(y) + (-2)*exp(z) - sin(x)\n"),
    "plasma-pi-rational": (("density", "--plasma-pi", "p^2;q/(1+p^2)"),
        "f = ((-2)*p^3 + (-2)*p + 1)/(p^2 + 1)\n"),
    "plasma-pi-trig": (("density", "--plasma-pi", "p*cos(q);q*sin(p)"),
        "f = -cos(q) + sin(p)\n"),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_output(capsys, name):
    argv, expected = PINNED[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


# ---------------------------------------------------------------------------
# the exit-code contract over a fixed table of hostile inputs

_SIM = ("sim", "--n", "8", "--steps", "1", "--out", "{tmp}/t.csv", "--diag", "{tmp}/d.csv")
HOSTILE = {
    "huge-constant-printed": ("lift", "--field", "2^20000,y", "--vars", "x,y"),
    "huge-constant-in-K": (*_SIM, "--model", "contact-density", "--K", "2^2000*z",
                           "--init", "2+sin(x)"),
    "huge-power-in-init": (*_SIM, "--model", "contact-density", "--K", "z",
                           "--init", "2+10^5000*sin(x)"),
    "overflowing-exp-in-K": (*_SIM, "--model", "contact-density", "--K", "exp(1000)*z",
                             "--init", "2+sin(x)"),
    "huge-constant-in-phi": (*_SIM, "--model", "vlasov-density", "--phi", "10^400*cos(q)",
                             "--init", "2+sin(q)"),
    "out-is-diag": ("sim", "--model", "contact-density", "--K", "z", "--init", "2+sin(x)",
                    "--n", "8", "--steps", "4", "--cadence", "2",
                    "--out", "{tmp}/same.csv", "--diag", "{tmp}/same.csv"),
    "diag-is-manifest": (*_SIM[:-1], "{tmp}/t.csv.manifest.json", "--model",
                         "contact-density", "--K", "z", "--init", "2+sin(x)"),
    "nul-in-out": (*_SIM[:6], "{tmp}/a\0b", *_SIM[7:], "--model", "contact-density",
                   "--K", "z", "--init", "2+sin(x)"),
    # {tmp}/loop is a symlink to itself
    "output-path-symlink-loop": (*_SIM[:6], "{tmp}/loop/t.csv", *_SIM[7:], "--model",
                                 "contact-density", "--K", "z", "--init", "sin(x)"),
    "numeric-quotient-by-zero": ("lift", "--field", "sin(x)/(x-x),y", "--vars", "x,y"),
    "numeric-power-of-zero": ("lift", "--field", "(sin(x)^0-1)^-1,y", "--vars", "x,y"),
    # atoms expand as variables do, so a power of a sum of them is bounded too
    "power-of-a-sum-of-atoms": ("lift", "--field", "(sin(x)+cos(y)+x)^200,y", "--vars", "x,y"),
    "empty-field": ("lift", "--field", "", "--vars", "x"),
    "repeated-variable": ("lift", "--field", "x,x", "--vars", "x,x"),
    "unbalanced": ("bracket", "--type", "jl", "--a", "(x", "--b", "x", "--vars", "x"),
    "contact-zero-denominator": ("bracket", "--type", "contact", "--a", "1/(z-z)",
                                 "--b", "x"),
    "pro-without-fibers": ("bracket", "--type", "pro", "--a", "x;", "--b", "x;",
                           "--vars", "x"),
    "pro-bad-name": ("bracket", "--type", "pro", "--vars", "1x", "--fibers", "u",
                     "--a", "1;u", "--b", "1;u"),
    "unknown-bracket": ("bracket", "--type", "lie", "--a", "x", "--b", "x"),
    "density-of-nothing": ("density",),
    "unknown-suite": ("verify", "--suite", "nope"),
    "no-trials": ("verify", "--suite", "jets", "--trials", "0"),
    "unknown-model": (*_SIM, "--model", "heat"),
    "odd-n": ("sim", "--model", "contact-density", "--K", "z", "--init", "1",
              "--n", "7", "--steps", "1", "--out", "{tmp}/t.csv", "--diag", "{tmp}/d.csv"),
    "nan-dt": (*_SIM, "--model", "contact-density", "--K", "z", "--init", "1",
               "--dt", "nan"),
    "missing-config": ("sim", "--config", "{tmp}/missing.json"),
    "blow-up": (*_SIM, "--model", "contact-density", "--K", "z",
                "--init", "2+sin(x)", "--dt", "1e300"),
    # finite but past 1e154 before it aborts at step 65: l2 squares to inf
    "slow-blow-up": ("sim", "--model", "contact-density", "--K", "z", "--init", "2+sin(x)",
                     "--n", "8", "--steps", "400", "--cadence", "1", "--dt", "5",
                     "--out", "{tmp}/t.csv", "--diag", "{tmp}/d.csv"),
    "negative-charge-as-its-own-word": (*_SIM, "--model", "vlasov-density", "--phi", "cos(q)",
                                        "--init", "2+sin(q)", "--e", "-1/2"),
    "zero-denominator-mass": (*_SIM, "--model", "vlasov-density", "--init", "2+sin(q)",
                              "--m=1/0"),
    "malformed-charge": (*_SIM, "--model", "vlasov-density", "--init", "2+sin(q)",
                         "--e=foo"),
    # Fraction would expand these exponents exactly
    "mass-past-the-exponent-bound": (*_SIM, "--model", "vlasov-density",
                                     "--init", "2+sin(q)", "--m=1e1000000"),
    "charge-past-the-exponent-bound": (*_SIM, "--model", "vlasov-density",
                                       "--init", "2+sin(q)", "--e=-1e-1000000"),
    "mass-with-a-huge-exponent": (*_SIM, "--model", "vlasov-density",
                                  "--init", "2+sin(q)", "--m=1e100000000"),
    "no-subcommand": (),
    "unknown-flag": ("lift", "--fields", "x"),
    "contact-without-K": (*_SIM, "--model", "contact-density", "--init", "2+sin(x)"),
    "unparsable-phi": (*_SIM, "--model", "vlasov-density", "--phi", "cos(",
                       "--init", "2+sin(q)"),
    "unparsable-init": (*_SIM, "--model", "contact-density", "--K", "z", "--init", "sin("),
    "zero-cadence": (*_SIM, "--model", "contact-density", "--K", "z", "--init", "2+sin(x)",
                     "--cadence", "0"),
    "sim-without-model": _SIM,
    "contact-alpha-of-two": ("density", "--contact-alpha", "x;y"),
    "pro-extra-base-component": ("bracket", "--type", "pro", "--vars", "x", "--fibers", "u",
                                 "--a", "1,1;u", "--b", "1;u"),
    # a folded constant past the doubles, though its value would fit
    "overflowing-fold-in-init": (*_SIM, "--model", "contact-density", "--K", "z",
                                 "--init", "10^308*10 + sin(x)"),
    # coefficients singular on a grid node: x = 0 and q = 0
    "K-singular-on-a-node": (*_SIM, "--model", "contact-density", "--K", "1/x",
                             "--init", "2+sin(x)"),
    "phi-singular-on-a-node": (*_SIM, "--model", "vlasov-density", "--phi", "1/sin(q)",
                               "--init", "2+sin(q)"),
    # past Python's 4300-digit bound on converting a string to an int
    "long-integer-literal": ("lift", "--field", "1" * 5000 + ",y", "--vars", "x,y"),
    "long-integer-exponent": ("lift", "--field", "x^" + "1" * 5000 + ",y", "--vars", "x,y"),
    "long-integer-denominator": ("lift", "--field", "x/" + "1" * 5000 + ",y",
                                 "--vars", "x,y"),
    # 2^3000000000 would have 3e9 bits
    "power-of-a-constant": ("lift", "--field", "2^3000000000*x,y", "--vars", "x,y"),
}


# rows whose exit code is pinned, not just inside the contract
HOSTILE_CODE = {"overflowing-exp-in-K": 2, "blow-up": 3, "slow-blow-up": 3,
                "negative-charge-as-its-own-word": 2, "zero-denominator-mass": 2,
                "malformed-charge": 2, "pro-bad-name": 2,
                "mass-past-the-exponent-bound": 2, "charge-past-the-exponent-bound": 2,
                "mass-with-a-huge-exponent": 2, "contact-without-K": 2, "unparsable-phi": 2,
                "unparsable-init": 2, "zero-cadence": 2, "sim-without-model": 2,
                "contact-alpha-of-two": 2, "pro-extra-base-component": 2,
                "overflowing-fold-in-init": 2, "K-singular-on-a-node": 2,
                "phi-singular-on-a-node": 2, "power-of-a-sum-of-atoms": 2,
                "long-integer-literal": 2, "long-integer-exponent": 2,
                "long-integer-denominator": 2, "power-of-a-constant": 2,
                "output-path-symlink-loop": 2}

# the cause that the error line of a pinned row names
HOSTILE_MESSAGE = {
    "contact-without-K": "contact models need the generator K",
    "unparsable-phi": "bad potential phi",
    "unparsable-init": "bad initial data 'sin('",
    "zero-cadence": "cadence must be >= 1",
    "sim-without-model": "sim needs --config or --model",
    "contact-alpha-of-two": "--contact-alpha needs 'ax;ay;az'",
    "pro-extra-base-component": "expected 1 base and 1 fiber components",
    "overflowing-fold-in-init": "a value too large for a double",
    "K-singular-on-a-node": "division by a value with magnitude < 1e-300",
    "phi-singular-on-a-node": "division by a value with magnitude < 1e-300",
    "power-of-a-sum-of-atoms": "power 200 of a sum of 3 terms is too large to expand",
    "long-integer-literal": "an integer literal of more than 4300 digits (at byte offset 0)",
    "long-integer-exponent": "an integer literal of more than 4300 digits (at byte offset 2)",
    "long-integer-denominator": "an integer literal of more than 4300 digits (at byte offset 2)",
    "power-of-a-constant": "power 3000000000 of a coefficient of 2 bits is too large",
    "output-path-symlink-loop": "/loop/t.csv': Symlink loop from",
}


def _run_hostile(tmp_path, name):
    (tmp_path / "loop").symlink_to("loop")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in HOSTILE[name]]
    try:
        return main(argv)
    except SystemExit as exc:       # argparse's usage errors
        return exc.code


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_input_keeps_the_exit_code_contract(tmp_path, capsys, name):
    code = _run_hostile(tmp_path, name)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert code == HOSTILE_CODE.get(name, code)
    assert "Traceback" not in err
    assert code == 0 or err.startswith(("error: ", "usage: "))
    assert code == 0 or out == ""


@pytest.mark.parametrize("name", HOSTILE_MESSAGE)
def test_hostile_config_error_names_its_cause(tmp_path, capsys, name):
    assert _run_hostile(tmp_path, name) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and HOSTILE_MESSAGE[name] in err.splitlines()[0]


@pytest.mark.parametrize("name", ["blow-up", "slow-blow-up"])
def test_blow_up_warns_only_of_the_cfl_advisory(tmp_path, capsys, name):
    argv = HOSTILE[name]
    dt = float(argv[argv.index("--dt") + 1])
    with pytest.warns(RuntimeWarning) as record:
        assert _run_hostile(tmp_path, name) == 3
    assert len(record) == 1
    assert str(record[0].message).startswith(f"dt={dt} exceeds the CFL advisory")
    assert capsys.readouterr().err.count("error: ") == 1


def test_cfl_advisory_prints_one_warning_line_without_a_source_path(tmp_path):
    # the library warns; the command prints it as one line, like an error
    package_root = str(Path(liftlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    argv = ["sim", "--model", "contact-density", "--K", "exp(z)", "--init", "1",
            "--n", "8", "--steps", "1"]
    proc = subprocess.run([sys.executable, "-m", "liftlab.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: dt=0.001 exceeds the CFL advisory ")
    assert proc.stderr.count("\n") == 1 and ".py" not in proc.stderr


@pytest.mark.parametrize("name, named", [
    ("zero-denominator-mass", "m='1/0'"), ("malformed-charge", "e='foo'"),
    ("mass-past-the-exponent-bound", "m='1e1000000'"),
    ("charge-past-the-exponent-bound", "e='-1e-1000000'"),
    ("mass-with-a-huge-exponent", "m='1e100000000'")])
def test_bad_plasma_parameter_names_itself(tmp_path, capsys, name, named):
    start = time.perf_counter()
    assert _run_hostile(tmp_path, name) == 2
    assert time.perf_counter() - start < 1.0
    assert f"error: bad rational parameter {named}" in capsys.readouterr().err


def test_power_of_a_constant_is_refused_before_it_is_computed(tmp_path, capsys):
    start = time.perf_counter()
    assert _run_hostile(tmp_path, "power-of-a-constant") == 2
    assert time.perf_counter() - start < 1.0
    assert "it may have more than 1048576 bits" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exit-code contract over argument vectors edited from the tables above

_ARGVS = [argv for argv in [*HOSTILE.values(), *(argv for argv, _ in PINNED.values())]
          if argv]
_TOKENS = sorted({token for argv in _ARGVS for token in argv})
# no "/": an edited path stays inside the example's directory
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/"),
                max_size=6)
# the most of a count an example may ask for: it must run in milliseconds
_COUNT_LIMITS = {"--steps": 4, "--n": 16, "--trials": 4}


def _too_costly(argv: list[str]) -> bool:
    for i, token in enumerate(argv):
        flag, _, value = token.partition("=")
        if flag in _COUNT_LIMITS:
            value = value or (argv[i + 1] if i + 1 < len(argv) else "")
            if value.isdecimal() and int(value) > _COUNT_LIMITS[flag]:
                return True
    return False


@settings(max_examples=200, deadline=None)
@given(data=st.data(), argv=st.sampled_from(_ARGVS))
def test_edited_argv_keeps_the_exit_code_contract(data, argv):
    i = data.draw(st.integers(0, len(argv) - 1))
    edited = [*argv[:i], data.draw(st.sampled_from(_TOKENS) | _TEXT), *argv[i + 1:]]
    assume(not _too_costly(edited))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        os.chdir(tmp)
        try:
            code = main([a.replace("{tmp}", tmp) for a in edited])
        except SystemExit as exc:       # argparse's usage errors and --help
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or edited[0] == "verify"
    assert code in (0, 1) or out.getvalue() == ""


# ---------------------------------------------------------------------------
# the run.json boundary: SimConfig's fields are its keys

_DROP = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**500, 10**500) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
_EDITS = st.dictionaries(st.sampled_from([f.name for f in fields(SimConfig)] + ["h"]),
                         st.just(_DROP) | _JSON, max_size=4)


@settings(max_examples=100, deadline=None)
@given(edits=_EDITS)
def test_edited_run_json_loads_or_is_config_error(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "fuzzed-run.json"
    raw = {k: v for k, v in dict(GOOD_CONFIG, **edits).items() if v is not _DROP}
    path.write_text(json.dumps(raw))
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    block = json.dumps(asdict(cfg))       # the manifest's config block
    path.write_text(block)
    # compared as JSON text: a NaN inside params is never == itself
    assert json.dumps(asdict(load_config(path))) == block


def test_readme_run_json_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"`run\.json` schema:.*?```json\n(.*?)```", readme, re.S).group(1)
    raw = dict(json.loads(example), out=str(tmp_path / "traj.csv"),
               diag=str(tmp_path / "diag.csv"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    load_config(path)       # a ConfigError if the documented schema has drifted
