"""Command-line surface: subcommands, formats, exit codes."""

import inspect
import json
import sys

import pytest

from liftlab.cli import main
from liftlab.parser import MAX_DEPTH

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

    def test_operators_weak_reports_without_failing(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "operators-weak",
                           "--trials", "1", "--seed", "3")
        assert code == 0
        assert "RESULT: REPORTED" in out
        assert "pairing-duality" in out

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

    def test_json_report_of_the_weak_suite_times_the_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "operators-weak",
                           "--trials", "1", "--seed", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"] == "REPORTED" and report["seconds"] > 0
        assert all(c["seconds"] is None and c["max_residual"] >= 0
                   for c in report["checks"])

    def test_json_report_of_an_unknown_suite_is_config_error(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "nope", "--json")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("suite, flag, value, message", [
        ("operators-weak", "--trials", "0", "--trials must be at least 1, got 0"),
        ("jets", "--trials", "-1", "--trials must be at least 1, got -1"),
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
    "numeric-quotient-by-zero": ("lift", "--field", "sin(x)/(x-x),y", "--vars", "x,y"),
    "numeric-power-of-zero": ("lift", "--field", "(sin(x)^0-1)^-1,y", "--vars", "x,y"),
    "empty-field": ("lift", "--field", "", "--vars", "x"),
    "repeated-variable": ("lift", "--field", "x,x", "--vars", "x,x"),
    "unbalanced": ("bracket", "--type", "jl", "--a", "(x", "--b", "x", "--vars", "x"),
    "contact-zero-denominator": ("bracket", "--type", "contact", "--a", "1/(z-z)",
                                 "--b", "x"),
    "pro-without-fibers": ("bracket", "--type", "pro", "--a", "x;", "--b", "x;",
                           "--vars", "x"),
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
    "no-subcommand": (),
    "unknown-flag": ("lift", "--fields", "x"),
}


# rows whose exit code is pinned, not just inside the contract
HOSTILE_CODE = {"overflowing-exp-in-K": 2, "blow-up": 3, "slow-blow-up": 3,
                "negative-charge-as-its-own-word": 2}


def _run_hostile(tmp_path, name):
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


@pytest.mark.parametrize("name", ["blow-up", "slow-blow-up"])
def test_blow_up_warns_only_of_the_cfl_advisory(tmp_path, capsys, name):
    argv = HOSTILE[name]
    dt = float(argv[argv.index("--dt") + 1])
    with pytest.warns(RuntimeWarning) as record:
        assert _run_hostile(tmp_path, name) == 3
    assert len(record) == 1
    assert str(record[0].message).startswith(f"dt={dt} exceeds the CFL advisory")
    assert capsys.readouterr().err.count("error: ") == 1
