"""Simulation configs, compiled models, the run loop, and its outputs."""

import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import random
import signal
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftlab import cli, grid, sim, studies
from liftlab.expr import (
    ZERO, ExprError, Var, canonicalize, expr_equal, partial, substitute,
)
from liftlab.geometry import divergence, one_form
from liftlab.grid import AperiodicDataError, Grid
from liftlab.kinetics import (
    ContactStructure, PlasmaParams, contact_density,
    contact_density_rhs, contact_vector_field, lie_poisson_rhs,
    plasma_chart, vlasov_density_rhs, vlasov_momentum_rhs,
)
from liftlab.parser import parse_expr
from liftlab.samplers import rand_poly
from liftlab.sim import (
    ConfigError, SimConfig, build_model, initial_state, load_config, run_simulation,
)
from liftlab.studies import (
    determined_nodes, discrete_intertwining_error, spatial_operator_order, temporal_order,
)
from test_grid import delta, deriv

L0 = "2 + sin(x)*sin(y)*sin(z)"

# one small config of each model
MODEL_CFGS = {
    "contact-momentum": SimConfig(model="contact-momentum", n=8, dt=1e-3, steps=1, K="z",
                                  init=("sin(x)", "cos(y)", "sin(z)")),
    "contact-density": SimConfig(model="contact-density", n=8, dt=1e-3, steps=1, K="z",
                                 init=(L0,)),
    "vlasov-momentum": SimConfig(model="vlasov-momentum", n=8, dt=1e-3, steps=1,
                                 params={"phi": "cos(q)"}, init=("sin(q)*sin(p)", "cos(q)")),
    "vlasov-density": SimConfig(model="vlasov-density", n=8, dt=1e-3, steps=1,
                                params={"phi": "cos(q)"}, init=("1 + 3/10*sin(q)*sin(p)",)),
}


def density_map_plan():
    """The two-path harness's density map: ``contact_density`` on the jet
    chart of the contact-momentum row's fibers."""
    cs = ContactStructure.standard()
    return sim._jet_plan(cs.chart, sim._RATES["contact-momentum"][0],
                         lambda a, d: contact_density(cs, a, d))


def rates(model, state):
    """The model's rates at state, in a fresh array."""
    return model.rhs(state, np.empty_like(state))


def contact_cfg(tmp_path, **kw):
    base = dict(model="contact-density", n=16, dt=1e-3, steps=20, cadence=10,
                K="z", init=(L0,),
                out=str(tmp_path / "traj.csv"), diag=str(tmp_path / "diag.csv"))
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_zero_steps_forbidden(self):
        with pytest.raises(ConfigError):
            SimConfig(model="contact-density", n=16, dt=1e-3, steps=0)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            SimConfig(model="heat", n=16, dt=1e-3, steps=1)

    def test_negative_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(model="contact-density", n=16, dt=-1e-3, steps=1)

    def test_json_round_trip(self, tmp_path):
        payload = {
            "model": "vlasov-density",
            "params": {"m": "1", "e": "1", "phi": "cos(q)"},
            "init": ["1 + 3/10*sin(q)*sin(p)"],
            "n": 16, "dt": 1e-3, "steps": 5, "cadence": 5,
            "out": str(tmp_path / "t.csv"), "diag": str(tmp_path / "d.csv"),
            "allow_aperiodic": False,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        cfg = load_config(path)
        assert cfg.model == "vlasov-density"
        assert cfg.params["phi"] == "cos(q)"

    def test_unknown_config_key_rejected(self, tmp_path):
        # "seed" was accepted and never read; it is unknown like any other
        for key in ("bogus", "seed"):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"model": "contact-density", "n": 16,
                                        "dt": 1e-3, "steps": 1, key: 1}))
            with pytest.raises(ConfigError, match=key):
                load_config(path)

    @pytest.mark.parametrize("out, diag", [
        ("same.csv", "same.csv"),
        ("traj.csv", "./traj.csv.manifest.json"),
        ("run/../traj.csv", "traj.csv"),
    ])
    def test_outputs_naming_one_file_rejected(self, tmp_path, out, diag):
        (tmp_path / "run").mkdir()
        with pytest.raises(ConfigError, match="three different files"):
            contact_cfg(tmp_path, out=str(tmp_path / out), diag=str(tmp_path / diag))

    @pytest.mark.parametrize("key", ["model", "n", "dt", "steps"])
    def test_missing_required_key_rejected(self, tmp_path, key):
        payload = {"model": "contact-density", "n": 16, "dt": 1e-3, "steps": 1}
        del payload[key]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"missing config key: '{key}'"):
            load_config(path)

    def test_library_configs_pass_the_run_json_checks(self):
        cfg = SimConfig(model="contact-density", n=16.0, dt=1, steps=2.0, K="z", init=["1"])
        assert (cfg.n, cfg.steps, cfg.dt, cfg.init) == (16, 2, 1.0, ("1",))
        assert type(cfg.n) is int and type(cfg.dt) is float
        with pytest.raises(ConfigError, match="config key 'n' must be an integer"):
            SimConfig(model="contact-density", n=16.5, dt=1e-3, steps=1)
        with pytest.raises(ConfigError, match="config key 'K' must be a string"):
            SimConfig(model="contact-density", n=16, dt=1e-3, steps=1, K=None)

    def test_expr_is_the_former_name_of_K(self):
        # perfbench/cycle.py's set-up still builds its configs with expr=
        cfg = SimConfig(model="contact-density", n=8, dt=1e-3, steps=1, expr="z")
        assert cfg == SimConfig(model="contact-density", n=8, dt=1e-3, steps=1, K="z")

    def test_manifest_config_block_loads_back_to_the_run_config(self, tmp_path):
        cfg = contact_cfg(tmp_path, n=8, steps=1)
        result = run_simulation(cfg)
        block = json.load(open(result.manifest_path))["config"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(block))
        assert load_config(path) == cfg

    def test_inconsistent_h_rejected(self):
        # a Vlasov Hamiltonian comes from params alone, so any K or h is refused
        with pytest.raises(ConfigError, match="takes no K"):
            SimConfig(model="vlasov-density", n=16, dt=1e-3, steps=1,
                      K="p^2 + q", params={"m": "1", "e": "1", "phi": "0"},
                      init=("1",))


class TestCompiledRates:
    def test_contact_density_constant_state(self):
        # K = z on a constant state: rate is 3 L everywhere
        cfg = SimConfig(model="contact-density", n=16, dt=1e-3, steps=1,
                        K="z", init=("1",))
        model = build_model(cfg)
        rate = rates(model, initial_state(cfg, model))
        assert np.allclose(rate, 3.0, atol=1e-12)

    def test_vlasov_density_constant_state(self):
        cfg = SimConfig(model="vlasov-density", n=16, dt=1e-3, steps=1,
                        params={"m": "1", "e": "1", "phi": "cos(q)"}, init=("1",))
        model = build_model(cfg)
        rate = rates(model, initial_state(cfg, model))
        assert np.max(np.abs(rate)) == 0.0

    def test_contact_momentum_dz_state(self):
        cfg = SimConfig(model="contact-momentum", n=16, dt=1e-3, steps=1,
                        K="z", init=("0", "0", "1"))
        model = build_model(cfg)
        rate = rates(model, initial_state(cfg, model))
        assert np.allclose(rate[0], 0.0, atol=1e-13)
        assert np.allclose(rate[1], 0.0, atol=1e-13)
        assert np.allclose(rate[2], 3.0, atol=1e-12)

    @pytest.mark.parametrize("cfg, shape", [
        (MODEL_CFGS["contact-momentum"], (3, 8, 8, 8)),
        (MODEL_CFGS["contact-density"], (1, 8, 8, 8)),
        (MODEL_CFGS["vlasov-momentum"], (2, 8, 8)),
        (MODEL_CFGS["vlasov-density"], (1, 8, 8)),
    ], ids=list(MODEL_CFGS))
    def test_state_and_rates_are_component_major(self, cfg, shape):
        model = build_model(cfg)
        state = initial_state(cfg, model)
        rate = rates(model, state)
        for a in (state, rate):
            assert a.shape == shape and a.flags.c_contiguous

    @pytest.mark.parametrize("cfg, stencils", [
        (SimConfig(model="contact-momentum", n=8, dt=1e-3, steps=1, K="z",
                   init=("sin(x)", "cos(y)", "sin(z)")), 6),
        (SimConfig(model="contact-momentum", n=8, dt=1e-3, steps=1,
                   K="cos(x)*sin(y) + z", init=("sin(x)", "cos(y)", "sin(z)")), 9),
        (SimConfig(model="vlasov-density", n=8, dt=1e-3, steps=1,
                   params={"phi": "cos(q)"}, init=("1 + 3/10*sin(q)*sin(p)",)), 2),
    ], ids=["contact-momentum-z", "contact-momentum-trig", "vlasov-density"])
    def test_rhs_computes_only_the_stencils_it_reads(self, monkeypatch, cfg, stencils):
        # counts the stencils lowered into the program bound for one pair
        model = build_model(cfg)
        state = initial_state(cfg, model)
        want = rates(model, state)
        lowered = []
        real = grid.stencil_calls
        monkeypatch.setattr(grid, "stencil_calls",
                            lambda u, axis, out: lowered.append(axis) or real(u, axis, out))
        got = rates(model, state)
        assert len(lowered) == stencils
        assert np.array_equal(got, want)

    def test_component_count_enforced(self):
        with pytest.raises(ConfigError):
            build_model(SimConfig(model="contact-momentum", n=16, dt=1e-3,
                                  steps=1, K="z", init=("0", "0")))

    def test_aperiodic_init_needs_override(self):
        cfg = SimConfig(model="contact-density", n=16, dt=1e-3, steps=1,
                        K="z", init=("x",))
        model = build_model(cfg)
        with pytest.raises(AperiodicDataError):
            initial_state(cfg, model)
        cfg2 = SimConfig(model="contact-density", n=16, dt=1e-3, steps=1,
                         K="z", init=("x",), allow_aperiodic=True)
        initial_state(cfg2, build_model(cfg2))


class TestRunSimulation:
    def test_smoke_run_and_row_counts(self, tmp_path):
        cfg = contact_cfg(tmp_path, n=16, steps=100, cadence=10, dt=1e-3, init=(L0,))
        result = run_simulation(cfg)
        assert len(result.diagnostics) == 1 + 100 // 10
        diag_lines = open(cfg.diag).read().splitlines()
        assert diag_lines[0] == "t,mass,l2,min,max"
        assert len(diag_lines) == 1 + len(result.diagnostics)
        traj_header = open(cfg.out).readline().strip()
        assert traj_header == "t,i,j,k,comp0"

    def test_momentum_trajectory_has_three_components(self, tmp_path):
        cfg = contact_cfg(tmp_path, model="contact-momentum",
                          init=("0", "0", "1"), steps=2, cadence=1)
        run_simulation(cfg)
        assert open(cfg.out).readline().strip() == "t,i,j,k,comp0,comp1,comp2"

    def test_deterministic_outputs(self, tmp_path):
        cfg = contact_cfg(tmp_path, steps=10, cadence=5)
        run_simulation(cfg)
        first = (open(cfg.out, "rb").read(), open(cfg.diag, "rb").read())
        run_simulation(cfg)
        second = (open(cfg.out, "rb").read(), open(cfg.diag, "rb").read())
        assert first == second

    def test_manifest_echoes_config(self, tmp_path):
        cfg = contact_cfg(tmp_path, steps=5, cadence=5)
        result = run_simulation(cfg)
        manifest = json.load(open(result.manifest_path))
        assert manifest["config"]["model"] == "contact-density"
        assert manifest["config"]["steps"] == 5
        assert manifest["grid"]["n"] == 16
        assert manifest["aborted_at_step"] is None
        timings, counters = manifest["timings"], manifest["counters"]
        assert set(timings) == {"build_s", "init_s", "integrate_s", "io_s", "writer_wait_s"}
        assert set(counters) == {"steps", "rhs_calls", "snapshots", "traj_bytes",
                                 "traj_repr_fallbacks", "minor_faults",
                                 "integrate_minor_faults", "peak_rss_mb", "plan_binds",
                                 "plan_terms", "plan_stencils"}
        assert all(v >= 0 for v in (*timings.values(), *counters.values()))
        assert counters["steps"] == cfg.steps
        assert counters["rhs_calls"] == 4 * cfg.steps
        assert counters["snapshots"] == len(result.diagnostics) == 2
        assert counters["traj_bytes"] == os.path.getsize(cfg.out)
        assert timings["writer_wait_s"] <= timings["io_s"]
        # x L_x + z L_z + 3 L: three terms, two of them stencils
        assert (counters["plan_terms"], counters["plan_stencils"]) == (3, 2)

    @pytest.mark.parametrize("steps", [1, 30])
    def test_plan_is_bound_to_at_most_the_four_pairs_of_march(self, tmp_path, steps):
        cfg = contact_cfg(tmp_path, n=8, steps=steps, cadence=10)
        run_simulation(cfg)
        binds = json.loads(Path(cfg.out + ".manifest.json").read_text())["counters"]["plan_binds"]
        assert 1 <= binds <= 4

    def test_cfl_advisory_warns_but_runs(self, tmp_path):
        cfg = contact_cfg(tmp_path, dt=0.05, steps=1)
        with pytest.warns(RuntimeWarning, match="CFL"):
            run_simulation(cfg)

    def test_numerical_abort_flushes_outputs(self, tmp_path):
        # dt far beyond stability: blows up to NaN within the step budget
        cfg = contact_cfg(tmp_path, dt=5.0, steps=400, cadence=1)
        from liftlab.grid import NumericalAbortError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalAbortError):
                run_simulation(cfg)
        manifest = json.load(open(cfg.out + ".manifest.json"))
        step = manifest["aborted_at_step"]
        assert step is not None
        assert manifest["counters"]["steps"] == step - 1
        assert manifest["counters"]["rhs_calls"] == 4 * step
        assert manifest["counters"]["traj_bytes"] == os.path.getsize(cfg.out)
        assert os.path.getsize(cfg.diag) > 0


def writer_sim_argv(tmp_path, out):
    return ["sim", "--model", "contact-density", "--K", "z", "--init", L0, "--n", "8",
            "--steps", "3", "--cadence", "1", "--out", out, "--diag", str(tmp_path / "d.csv")]


# sha256 prefixes of traj.csv and diag.csv of each MODEL_CFGS model run for 4
# steps at cadence 1, pinned from an earlier writer that formatted each value
# with repr, so the numpy formatter is held to its bytes.  The
# contact-density and vlasov-momentum traj.csv digests were rewritten when
# the plan became a sum of coefficient products, which changed some of their
# values in the last place; the new ones are those of ``reference_snapshot``
# on the same states.  The contact-momentum, contact-density and
# vlasov-momentum traj.csv digests, and the vlasov-momentum diag.csv one,
# were rewritten the same way when the stencil's 1/(12 h) was folded into
# the plan's coefficients.
TRAJECTORY_DIGESTS = {
    "contact-momentum": ("7708ff37b6ffb60a", "2c56feeb13b901b8"),
    "contact-density": ("191ae81d466eedd0", "b73626904c08d99e"),
    "vlasov-momentum": ("dd6dbe0c22763550", "8d163df216977048"),
    "vlasov-density": ("bde1f7a7acae95d3", "d09434a1b6e31277"),
}


@pytest.fixture
def forks(monkeypatch):
    """The pids that ``os.fork`` returned in this process, through a wrapper."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def refuse_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def snapshot_rows(path) -> list[int]:
    """The rows of each snapshot of a traj.csv, in order: its lines after
    the header counted by their time column."""
    with open(path) as f:
        next(f)
        return [len(list(rows)) for _, rows in itertools.groupby(f, lambda line: line.split(",")[0])]


class TestSnapshotWriter:
    """The snapshot writer, a child forked once per run or the run itself:
    the pinned bytes, the pinned exit codes and error lines when a write
    fails, and no child left after any ending."""

    @pytest.mark.parametrize("name, in_process", [
        pytest.param(name, in_process, id=f"{name}-in-process" if in_process else name)
        for in_process in (False, True) for name in MODEL_CFGS])
    def test_writes_the_pinned_bytes(self, tmp_path, monkeypatch, forks, name, in_process):
        if in_process:
            monkeypatch.setattr(os, "fork", refuse_fork)
        # at cadence 1 every step is a snapshot
        cfg = dataclasses.replace(MODEL_CFGS[name], steps=4, cadence=1,
                                  out=str(tmp_path / "t.csv"), diag=str(tmp_path / "d.csv"))
        run_simulation(cfg)
        assert len(forks) == (0 if in_process else 1)     # one child for five snapshots
        digests = tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
                        for path in (cfg.out, cfg.diag))
        assert digests == TRAJECTORY_DIGESTS[name]
        counters = json.loads(Path(cfg.out + ".manifest.json").read_text())["counters"]
        assert counters["traj_bytes"] == os.path.getsize(cfg.out)

    def test_a_live_thread_keeps_the_writer_in_process(self, tmp_path, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            run_simulation(contact_cfg(tmp_path, n=8, steps=2, cadence=1))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert snapshot_rows(tmp_path / "traj.csv") == [8 ** 3] * 3

    def test_a_writer_failure_exits_2_with_the_in_process_error_line(
            self, tmp_path, monkeypatch, capsys):
        real = sim._write_traj_snapshot

        def full_at_second_snapshot(f, t, state, tails):
            if t > 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(f, t, state, tails)

        monkeypatch.setattr(sim, "_write_traj_snapshot", full_at_second_snapshot)
        assert cli.main(writer_sim_argv(tmp_path, str(tmp_path / "t.csv"))) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_to_a_full_device_exits_2(self, tmp_path, capsys):
        assert cli.main(writer_sim_argv(tmp_path, "/dev/full")) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_no_writer_outlives_a_return_or_an_abort(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = contact_cfg(tmp_path, steps=3, cadence=1)
            run_simulation(cfg)
            self.assert_snapshots_complete(cfg)
            cfg = contact_cfg(tmp_path, dt=5.0, steps=400, cadence=1)
            with pytest.raises(grid.NumericalAbortError):
                run_simulation(cfg)
            self.assert_snapshots_complete(cfg)

    @staticmethod
    def assert_snapshots_complete(cfg):
        # every snapshot, the last one too, is complete on disk, and the
        # writer is reaped
        counters = json.loads(Path(cfg.out + ".manifest.json").read_text())["counters"]
        assert snapshot_rows(cfg.out) == [16 ** 3] * counters["snapshots"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("ending, err, snapshots", [pytest.param(*case, id=case[0]) for case in (
        ("writer-enospc", "error: [Errno 28] No space left on device\n", 1),
        ("writer-killed", "error: trajectory writer ended without a reply (wait status 9)\n", 1),
        ("interrupt", "", 3),
    )])
    def test_a_failure_or_an_interrupt_reaps_the_writer_and_keeps_its_snapshots(
            self, tmp_path, monkeypatch, capsys, forks, ending, err, snapshots):
        parent, real_write, real_march = os.getpid(), sim._write_traj_snapshot, sim.march

        def failing_write(f, t, state, tails):
            if t > 0 and os.getpid() != parent:
                if ending == "writer-killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(f, t, state, tails)

        def interrupted_march(*args):
            for step, state in real_march(*args):
                if step == 3:
                    raise KeyboardInterrupt
                yield step, state

        argv = writer_sim_argv(tmp_path, str(tmp_path / "t.csv"))
        if ending == "interrupt":
            monkeypatch.setattr(sim, "march", interrupted_march)
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            monkeypatch.setattr(sim, "_write_traj_snapshot", failing_write)
            assert cli.main(argv) == 2
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert capsys.readouterr().err == err
        # every snapshot sent before the ending is complete on disk, and no
        # other is begun
        assert snapshot_rows(tmp_path / "t.csv") == [8 ** 3] * snapshots


def allocating_rk4(state, rhs, dt):
    """Classical RK4 on fresh arrays, for a ``rhs(u, out)`` that writes the rate."""
    def rate(u):
        return rhs(u, np.empty_like(u))
    k1 = rate(state)
    k2 = rate(state + 0.5 * dt * k1)
    k3 = rate(state + 0.5 * dt * k2)
    k4 = rate(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestBufferedStep:
    @pytest.mark.parametrize("cfg", MODEL_CFGS.values(), ids=list(MODEL_CFGS))
    def test_matches_an_allocating_rk4_bitwise(self, cfg):
        model = build_model(cfg)
        state = initial_state(cfg, model)
        want = state.copy()
        for _, state in grid.march(state, model.rhs, 1e-2, 3):
            want = allocating_rk4(want, model.rhs, 1e-2)
        assert np.array_equal(state.view(np.uint64), want.view(np.uint64))

    def test_rhs_calls_into_two_outs_do_not_alias(self):
        cfg = MODEL_CFGS["contact-momentum"]
        model = build_model(cfg)
        state = initial_state(cfg, model)
        a, b = np.empty_like(state), np.empty_like(state)
        assert model.rhs(state, a) is a
        first = a.copy()
        assert model.rhs(2.0 * state, b) is b
        assert np.array_equal(a, first)
        assert np.array_equal(b, 2.0 * a)

    def test_temporal_order_finals_are_distinct_arrays(self, monkeypatch):
        finals = []
        real = studies.march

        def spying(state, *args):
            for step, state in real(state, *args):
                yield step, state
            finals.append(state)

        monkeypatch.setattr(studies, "march", spying)
        temporal_order(MODEL_CFGS["contact-density"], (4e-3, 2e-3, 1e-3), t_end=8e-3)
        assert len(finals) == 3
        assert not any(np.shares_memory(f, g) for f, g in itertools.combinations(finals, 2))

    def test_a_warmed_up_step_allocates_less_than_half_a_grid_array(self):
        cfg = SimConfig(model="contact-momentum", n=32, dt=1e-3, steps=1,
                        K="cos(x)*sin(y) + z", init=("sin(x)", "cos(y)", "sin(z)"))
        model = build_model(cfg)
        state = initial_state(cfg, model)
        steps = grid.march(state, model.rhs, cfg.dt, 3)
        next(steps)     # the spare, the work and the plan's slots are made here
        next(steps)
        tracemalloc.start()
        try:
            next(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * state[0].nbytes


def stencils_then_plan(plan, state):
    """The plan's terms by a second binding: every undivided stencil
    difference into fresh arrays by ``delta``, then each rate as the sum
    of its terms, in their order, in numpy on fresh arrays."""
    g = Grid(state.ndim - 1, state.shape[1])
    jets = {(l, a): delta(state[l], a)
            for l, a in itertools.product(range(len(state)), range(g.dim))}
    out = []
    for row in plan.terms:
        acc = np.zeros(g.shape)
        for i, (j, a, c) in enumerate(row):
            term = c * (state[j] if a is None else jets[j, a])
            acc = term if i == 0 else acc + term
        out.append(np.broadcast_to(acc, g.shape))
    return np.stack(out)


def folded_rates(jc, g, rate_exprs, state):
    """The rates by a second route: each rate tree evaluated with every
    variable fixed, the coordinates to the grid's lines, each fiber
    variable to ``state[l]`` and each jet variable to its stencil by
    ``deriv``."""
    fixed = {v: g.axis_line(a) for a, v in enumerate(jc.base)}
    fixed.update(zip(jc.fiber, state))
    for l, a in itertools.product(range(jc.k), range(jc.m)):
        fixed[jc.jet(l, a)] = deriv(state[l], a, g.h)
    return np.stack([np.broadcast_to(v, g.shape) for v in grid.compile_numeric(rate_exprs, fixed)])


def odd_rates(jc):
    """A rate that is a bare jet variable, twice, a jet that three rates
    read, and a fiber variable with the coefficient -1."""
    a_x_y, a_z_x = Var(jc.jet(0, 1)), Var(jc.jet(2, 0))
    return [a_x_y, a_x_y * Var(jc.base[1]) + a_z_x - Var(jc.fiber[1]),
            canonicalize(a_z_x * Var(jc.base[2])), a_x_y]


def numpy_bytes() -> int:
    """The bytes of numpy array data that tracemalloc sees alive."""
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([numpy_data]).traces)


class TestStencilsAsPlanInstructions:
    @pytest.mark.parametrize("cfg", MODEL_CFGS.values(), ids=list(MODEL_CFGS))
    def test_model_rhs_is_stencils_then_plan_bitwise(self, cfg):
        model = build_model(cfg)
        state = initial_state(cfg, model)
        want = stencils_then_plan(model.rhs, state)
        assert np.array_equal(rates(model, state).view(np.uint64), want.view(np.uint64))

    def test_density_map_and_shared_and_bare_jets_bitwise(self):
        cfg = MODEL_CFGS["contact-momentum"]
        state = initial_state(cfg, build_model(cfg))
        g = Grid(3, cfg.n)
        jc, map_rates = density_map_plan()
        for rate_exprs in (map_rates, odd_rates(jc)):
            plan = sim._compile_jet_plan(jc, g, rate_exprs)
            got = plan(state, np.empty((len(rate_exprs),) + g.shape))
            want = stencils_then_plan(plan, state)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_model_holds_no_array_per_stencil(self):
        # the trig plan reads 9 stencils; the model holds its folded
        # coefficients, equal ones once, the plan's stencil slot and scratch
        # array, and at most one more grid array
        cfg = SimConfig(model="contact-momentum", n=16, dt=1e-3, steps=1,
                        K="cos(x)*sin(y) + z", init=("sin(x)", "cos(y)", "sin(z)"))
        state = initial_state(cfg, build_model(cfg))
        out = np.empty_like(state)
        tracemalloc.start()
        try:
            base = numpy_bytes()
            model = build_model(cfg)
            model.rhs(state, out)
            held = numpy_bytes() - base
        finally:
            tracemalloc.stop()
        coefficients = sum({id(c): np.asarray(c).nbytes
                            for row in model.rhs.terms for _, _, c in row}.values())
        assert model.rhs.nstencils == 9
        assert held <= coefficients + 3 * state[0].nbytes

    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    def test_diag_l2_is_the_sum_of_squares_bitwise_in_two_component_arrays(self, ncomp):
        g = Grid(3, 16)
        state = np.random.default_rng(ncomp).standard_normal((ncomp,) + g.shape)
        want = math.sqrt(grid.quadrature(np.sum(state * state, axis=0), g.h, g.dim))
        tracemalloc.start()
        try:
            row = sim._diag_row(0.25, state, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row[2].hex() == want.hex()
        assert peak < 2.5 * state[0].nbytes


# the edges of repr's two forms and of the formatter's exact range
EDGE_VALUES = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.0 ** -1022, 1.5e300,
    1e-5, 1e-4, math.nextafter(1e-4, 0), 1e16, 9999999999999998.0, 0.043,
    *(math.nextafter(10.0 ** k, to) for k in range(-4, 17) for to in (0, math.inf)),
    *(2.0 ** e for e in range(-14, 54)),
)


def reference_snapshot(t, state, grid):
    """One line per node in C order of (i, j, k), each value repr(float),
    from a component-major state of shape (ncomp,) + grid.shape."""
    lines = []
    for idx in np.ndindex(grid.shape):
        i, j, k = list(idx) + [0] * (3 - grid.dim)
        vals = ",".join(repr(float(c[idx])) for c in state)
        lines.append(f"{t!r},{i},{j},{k},{vals}\n")
    return "".join(lines)


class DiscardingSink:
    def write(self, text):
        return len(text)


class TestTrajectoryWriter:
    # at n = 20 in three dimensions with three components, the last block
    # of slabs is a partial one (six slabs to a block)
    @pytest.mark.parametrize("n", [8, 20, 32])
    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bytes_match_reference_formatter(self, dim, ncomp, n):
        grid = Grid(dim, n)
        rng = np.random.default_rng(100 * dim + 10 * ncomp + n)
        state = rng.standard_normal((ncomp,) + grid.shape)
        flat = state.reshape(-1)
        edges = EDGE_VALUES + tuple(-v for v in EDGE_VALUES)
        flat[:len(edges)] = edges[:flat.size]
        for t in (0.0, 0.1 * 3, 1e-3 * 7):
            f = io.StringIO()
            written, _ = sim._write_traj_snapshot(f, t, state, sim._row_tails(grid))
            want = reference_snapshot(t, state, grid)
            assert f.getvalue() == want
            assert written == len(want)

    def test_last_snapshot_reads_back_to_the_final_state(self, tmp_path):
        cfg = contact_cfg(tmp_path, model="contact-momentum", n=8, steps=6,
                          cadence=3, init=("sin(x)", "cos(y)", "1/3*sin(z)"))
        run_simulation(cfg)
        model = build_model(cfg)
        for _, final in grid.march(initial_state(cfg, model), model.rhs, cfg.dt, cfg.steps):
            pass
        rows = [line.split(",") for line in open(cfg.out).read().splitlines()[1:]]
        last = [r for r in rows if float(r[0]) == cfg.steps * cfg.dt]
        assert [tuple(map(int, r[1:4])) for r in last] == list(np.ndindex(final.shape[1:]))
        got = np.array([[float(v) for v in r[4:]] for r in last])
        want = final.reshape(3, -1).T
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_memory_is_bounded_by_one_slab(self):
        grid = Grid(3, 64)
        state = np.random.default_rng(0).standard_normal((3,) + grid.shape)
        tails = sim._row_tails(grid)
        sink = DiscardingSink()
        tracemalloc.start()
        try:
            written, _ = sim._write_traj_snapshot(sink, 0.5, state, tails)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written > 64 ** 3 * 60
        assert peak < 2 * 2 ** 20

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
        st.floats(),
        st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from((x, -x))),
    ), min_size=1, max_size=64))
    def test_block_formatter_writes_repr(self, values):
        text, _ = sim._repr_block(np.array(values))
        assert [row.tobytes().rstrip(b"\0").decode() for row in text] == list(map(repr, values))

    def test_block_formatter_writes_repr_at_the_edges(self):
        values = EDGE_VALUES + tuple(-v for v in EDGE_VALUES)
        text, fallbacks = sim._repr_block(np.array(values))
        assert [row.tobytes().rstrip(b"\0").decode() for row in text] == list(map(repr, values))
        # the values outside 1e-4 <= |x| < 1e16 other than zero take repr's route
        assert fallbacks >= sum(not (1e-4 <= abs(v) < 1e16) for v in values if v != 0)

    def test_manifest_counts_the_values_repr_formatted(self, tmp_path):
        counts = []
        for init in (L0, f"1/10^6*({L0})"):     # every value of the second below 1e-4
            cfg = contact_cfg(tmp_path, steps=2, cadence=1, init=(init,))
            run_simulation(cfg)
            counts.append(json.loads(Path(cfg.out + ".manifest.json").read_text())
                          ["counters"]["traj_repr_fallbacks"])
        assert counts == [0, 3 * 16 ** 3]


def roll_derivative(u, axis):
    """The 4th-order periodic central difference along axis, by ``np.roll``,
    for the spacing h = 2 pi / n of the n points along it."""
    h = 2 * np.pi / u.shape[axis]
    return (8 * (np.roll(u, -1, axis) - np.roll(u, 1, axis))
            - (np.roll(u, -2, axis) - np.roll(u, 2, axis))) / (12 * h)


def displayed_vlasov_rate(state, m, e, charge_sign=1):
    """The displayed Vlasov momentum equations for phi = cos q, by numpy
    alone: P1_dot = -X_h(P1) + e phi_qq P2 and P2_dot = -X_h(P2) - P1/m,
    with X_h = (p/m) d_q - e phi_q d_p, phi_q = -sin q and phi_qq = -cos q.
    ``charge_sign`` multiplies the charge term e phi_qq P2."""
    n = state.shape[1]
    line = np.arange(n) * (2 * np.pi / n)
    q, p = line[:, None], line[None, :]
    P1, P2 = state

    def X_h(g):
        return (p / m) * roll_derivative(g, 0) + e * np.sin(q) * roll_derivative(g, 1)

    return np.stack([-X_h(P1) - charge_sign * e * np.cos(q) * P2, -X_h(P2) - P1 / m])


class TestCompiledPlanAgainstHandWrittenRhs:
    def test_contact_density_plan_matches_direct_numpy(self):
        # independent oracle: the K = z rate written out by hand,
        # L_dot = 3 L + x L_x + z L_z, with its own stencil code
        cfg = SimConfig(model="contact-density", n=16, dt=1e-3, steps=1,
                        K="z", init=(L0,))
        model = build_model(cfg)
        state = initial_state(cfg, model)
        got = rates(model, state)[0]

        line = np.arange(16) * (2 * np.pi / 16)
        x = line[:, None, None]
        z = line[None, None, :]
        L = state[0]
        want = 3 * L + x * roll_derivative(L, 0) + z * roll_derivative(L, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_vlasov_momentum_plan_matches_direct_numpy(self):
        cfg = SimConfig(model="vlasov-momentum", n=16, dt=1e-3, steps=1,
                        params={"m": "2", "e": "3", "phi": "cos(q)"},
                        init=("sin(q)*sin(p)", "cos(q)"))
        model = build_model(cfg)
        state = initial_state(cfg, model)
        got = rates(model, state)
        want = displayed_vlasov_rate(state, 2.0, 3.0)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_vlasov_momentum_trajectory_matches_numpy_rk4(self):
        # a second route for a whole vlasov-momentum trajectory: classical
        # RK4 of the displayed equations; with the charge term's sign
        # flipped it must differ, or the comparison could not tell
        cfg = SimConfig(model="vlasov-momentum", n=16, dt=1e-3, steps=5,
                        params={"m": "3/2", "e": "-2", "phi": "cos(q)"},
                        init=("cos(q)*sin(p)", "sin(q) + cos(p)"))
        model = build_model(cfg)
        start = initial_state(cfg, model)
        for _, got in grid.march(start.copy(), model.rhs, cfg.dt, cfg.steps):
            pass

        def rk4(charge_sign):
            def rate(u):
                return displayed_vlasov_rate(u, 1.5, -2.0, charge_sign)
            u, dt = start, cfg.dt
            for _ in range(cfg.steps):
                k1 = rate(u)
                k2 = rate(u + dt / 2 * k1)
                k3 = rate(u + dt / 2 * k2)
                k4 = rate(u + dt * k3)
                u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            return u

        assert np.max(np.abs(got - rk4(1))) <= 1e-12
        assert np.max(np.abs(got - rk4(-1))) > 1e-6


# The models of MODEL_CFGS and contact-momentum at the benchmark's
# transcendental K.
PINNED_CFGS = {**MODEL_CFGS, "contact-momentum-trig": dataclasses.replace(
    MODEL_CFGS["contact-momentum"], K="cos(x)*sin(y) + z")}


# The exact plans of PINNED_CFGS and of the density map: their jet chart,
# rates and carrying field.  The benchmark's gate checks trajectories only
# to 1e-9; this table pins each plan's form.
PINNED_PLANS = {
    "contact-momentum": ("(x, y, z; a_x, a_y, a_z)",
                         ["x*a_x_x + z*a_x_z + 3*a_x", "x*a_y_x + z*a_y_z + 2*a_y",
                          "x*a_z_x + z*a_z_z + 3*a_z"],
                         ["-x", "0", "-z"]),
    "contact-momentum-trig": (
        "(x, y, z; a_x, a_y, a_z)",
        ["x*a_z*cos(x)*sin(y) + x*a_x_z*sin(x)*sin(y) + a_x*cos(y)*sin(x) - a_y*cos(x)*sin(y)"
         " - a_x_x*cos(x)*cos(y) - a_x_y*sin(x)*sin(y) + a_x_z*cos(x)*sin(y) + x*a_x_x"
         " + z*a_x_z + 3*a_x",
         "x*a_z*cos(y)*sin(x) + x*a_y_z*sin(x)*sin(y) + a_x*cos(x)*sin(y) - a_y*cos(y)*sin(x)"
         " + a_z*cos(x)*cos(y) - a_y_x*cos(x)*cos(y) - a_y_y*sin(x)*sin(y)"
         " + a_y_z*cos(x)*sin(y) + x*a_y_x + z*a_y_z + 2*a_y",
         "x*a_z_z*sin(x)*sin(y) - a_z_x*cos(x)*cos(y) - a_z_y*sin(x)*sin(y)"
         " + a_z_z*cos(x)*sin(y) + x*a_z_x + z*a_z_z + 3*a_z"],
        ["cos(x)*cos(y) - x", "sin(x)*sin(y)", "-x*sin(x)*sin(y) - cos(x)*sin(y) - z"]),
    "contact-density": ("(x, y, z; L)", ["x*L_x + z*L_z + 3*L"], ["-x", "0", "-z"]),
    "vlasov-momentum": ("(q, p; P1, P2)",
                        ["-p*P1_q - P2*cos(q) - P1_p*sin(q)", "-p*P2_q - P2_p*sin(q) - P1"],
                        ["p", "sin(q)"]),
    "vlasov-density": ("(q, p; f)", ["-p*f_q - f_p*sin(q)"], ["p", "sin(q)"]),
    "density-map": ("(x, y, z; a_x, a_y, a_z)",
                    ["x*a_x_z - x*a_z_x + (-2)*a_z - a_x_y + a_y_x"], None),
}


# The number of calls in the bound RHS of each PINNED_CFGS model, as
# stencils * 10 + pointwise: ten per stencil it reads (two flat-shift
# subtractions, six one-plane fix-ups, a multiply by 8 and a subtraction),
# and 2M - 1 for a rate of M terms.  A change that adds passes shows here.
PINNED_CALLS = {
    "contact-momentum": 6 * 10 + 15,
    "contact-momentum-trig": 9 * 10 + 29,
    "contact-density": 2 * 10 + 5,
    "vlasov-momentum": 4 * 10 + 10,
    "vlasov-density": 2 * 10 + 3,
}


@pytest.mark.parametrize("name", PINNED_CALLS)
def test_bound_calls_are_pinned(name):
    model = build_model(PINNED_CFGS[name])
    state = initial_state(PINNED_CFGS[name], model)
    assert len(model.rhs.bind(state, np.empty_like(state))) == PINNED_CALLS[name]


@pytest.mark.parametrize("cfg", MODEL_CFGS.values(), ids=list(MODEL_CFGS))
def test_initial_state_starts_on_a_cache_line(cfg):
    state = initial_state(cfg, build_model(cfg))
    assert state.flags.c_contiguous and state.ctypes.data % 64 == 0


@pytest.mark.parametrize("name", PINNED_CFGS)
def test_alignment_changes_no_bit(monkeypatch, name):
    # every whole-grid buffer, the caller's and the plan's and march's,
    # starts k elements past a cache line, for each k of a line: a numpy
    # path that depends on alignment would show as a changed bit
    cfg = PINNED_CFGS[name]
    model = build_model(cfg)
    state0 = initial_state(cfg, model)
    real = grid.aligned_empty
    results = []
    for k in range(8):
        def offset_empty(shape, k=k):
            size = math.prod(shape)
            return real((size + 8,))[k:k + size].reshape(shape)

        monkeypatch.setattr(grid, "aligned_empty", offset_empty)
        plan = grid.LinearPlan(model.grid, model.rhs.terms)
        state = offset_empty(state0.shape)
        state[...] = state0
        rate = plan(state, offset_empty(state0.shape)).copy()
        for _, state in grid.march(state, plan, cfg.dt, 3):
            pass
        assert plan.slot.ctypes.data % 64 == state.ctypes.data % 64 == 8 * k
        results.append(np.concatenate([rate, state]).view(np.uint64))
    assert all(np.array_equal(r, results[0]) for r in results[1:])


@pytest.mark.parametrize("name", [*PINNED_CFGS, "density-map", "odd-rates"])
def test_no_bound_call_divides_and_each_fix_up_writes_one_plane(monkeypatch, name):
    cfg = PINNED_CFGS.get(name, MODEL_CFGS["contact-momentum"])
    model = build_model(cfg)
    state = initial_state(cfg, model)
    plan = model.rhs
    if name not in PINNED_CFGS:
        jc, rate_exprs = density_map_plan()
        rate_exprs = odd_rates(jc) if name == "odd-rates" else rate_exprs
        plan = sim._compile_jet_plan(jc, model.grid, rate_exprs)
    lowered = []
    real = grid.stencil_calls
    monkeypatch.setattr(grid, "stencil_calls",
                        lambda u, axis, out: lowered.append(real(u, axis, out)) or lowered[-1])
    calls = plan.bind(state, np.empty((len(plan.terms),) + model.grid.shape))
    assert lowered and np.true_divide not in {fn for fn, _ in calls}
    # the flat shifts and the closing multiply and subtraction write 1-D
    # views, a fix-up one plane
    for stencil in lowered:
        planes = [args[-1].size for _, args in stencil if args[-1].ndim > 1]
        assert planes == [state[0].size // model.grid.n] * 6


class TestLinearPlan:
    """The plan is each rate's exact Jacobian: a second route folds the
    rate trees themselves, and a rate that is not linear is refused."""

    # the models of PINNED_CFGS, a rational K, whose rates are quotients,
    # the density map and odd_rates
    CFGS = {**PINNED_CFGS, "contact-momentum-rational": dataclasses.replace(
        MODEL_CFGS["contact-momentum"], K="z/(1+x^2)")}

    @pytest.mark.parametrize("name", [*CFGS, "density-map", "odd-rates"])
    def test_rates_equal_the_folded_rate_trees(self, name):
        cfg = self.CFGS.get(name, MODEL_CFGS["contact-momentum"])
        model = build_model(cfg)
        state = initial_state(cfg, model)
        if name in self.CFGS:
            jc, rate_exprs, _ = sim._model_plan(cfg)
            plan = model.rhs
        else:
            jc, rate_exprs = density_map_plan()
            if name == "odd-rates":
                rate_exprs = odd_rates(jc)
            plan = sim._compile_jet_plan(jc, model.grid, rate_exprs)
        got = plan(state, np.empty((len(rate_exprs),) + model.grid.shape))
        want = folded_rates(jc, model.grid, rate_exprs, state)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("text", ["a_x*a_y", "a_x + 1", "a_x/(1 + a_y)"])
    def test_a_rate_that_is_not_linear_is_refused(self, text):
        jc, _ = density_map_plan()
        rate = parse_expr(text, [*jc.base, *jc.fiber])
        with pytest.raises(ExprError, match="not linear in the state"):
            sim._compile_jet_plan(jc, Grid(3, 8), [rate])


@pytest.mark.parametrize("name", PINNED_PLANS)
def test_plan_is_pinned(name):
    if name == "density-map":
        jc, rate_exprs = density_map_plan()
        carrier = None
    else:
        jc, rate_exprs, carrier = sim._model_plan(PINNED_CFGS[name])
        carrier = [str(c) for c in carrier]
    assert (str(jc), [str(r) for r in rate_exprs], carrier) == PINNED_PLANS[name]


def _poly_text(rng: random.Random, names, degree: int) -> str:
    """A random polynomial of total degree <= degree, as text."""
    terms = []
    for _ in range(3):
        budget = degree
        factors = [f"({Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))})"]
        for name in names:
            power = rng.randint(0, budget)
            budget -= power
            factors.append(f"{name}^{power}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _rational_section(rng: random.Random, vars, k: int) -> list:
    """k random non-zero rational functions of vars whose denominators
    cannot vanish."""
    out = []
    while len(out) < k:
        num = rand_poly(rng, vars, 2, 2)
        if num != ZERO:
            out.append(canonicalize(num / (1 + Var(rng.choice(vars)) ** 2)))
    return out


def _on_section(jc, rates, section) -> list:
    """Read rates over a jet chart at a section: each fiber variable is a
    component of the section and each jet variable its partial derivative."""
    bind = {}
    for l, comp in enumerate(section):
        bind[jc.fiber[l]] = comp
        for a, v in enumerate(jc.base):
            bind[jc.jet(l, a)] = partial(comp, v)
    return [canonicalize(substitute(r, bind)) for r in rates]


def _all_equal(got, want) -> bool:
    return len(got) == len(want) and all(expr_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("seed", range(4))
class TestPlansAreKineticsFormulasOnJets:
    """Each plan, read at a section, is its kinetics formula applied to that
    section with the partial derivative."""

    cs = ContactStructure.standard()
    pc = plasma_chart(1)

    def contact_inputs(self, seed):
        rng = random.Random(f"plans:{seed}")
        # a term no random one can cancel keeps K_x and K_z non-zero
        K_text = _poly_text(rng, ("x", "y", "z"), 2) + " + (1/7)*x*z"
        return K_text, parse_expr(K_text, self.cs.chart.vars), rng

    def plasma_inputs(self, seed):
        rng = random.Random(f"plans:{seed}")
        phi_text = _poly_text(rng, ("q",), 3) + " + (1/7)*q^3"
        m = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        e = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        params = PlasmaParams(m, e, parse_expr(phi_text, [self.pc.base_var(0)]))
        return {"m": str(m), "e": str(e), "phi": phi_text}, params, rng

    def test_contact_momentum(self, seed):
        K_text, K, rng = self.contact_inputs(seed)
        cfg = SimConfig(model="contact-momentum", n=8, dt=1e-3, steps=1, K=K_text)
        jc, rates, _ = sim._model_plan(cfg)
        alpha = _rational_section(rng, self.cs.chart.vars, 3)
        want = lie_poisson_rhs(contact_vector_field(self.cs, K),
                               one_form(self.cs.chart, tuple(alpha)), self.cs.vol)
        assert _all_equal(_on_section(jc, rates, alpha),
                          [want.coeff((i,)) for i in range(3)])

    def test_contact_momentum_rational_K(self, seed):
        # a non-constant denominator in K: building the plan takes gcds of
        # operands over nested subsets of the jet chart's twelve variables
        K_text, _, rng = self.contact_inputs(seed)
        K_text = f"({K_text})/(1 + x^2)"
        cfg = SimConfig(model="contact-momentum", n=8, dt=1e-3, steps=1, K=K_text)
        jc, rates, _ = sim._model_plan(cfg)
        # a polynomial section: with a rational one the independent route
        # can spend more than 30 s in one gcd of two polynomials over x, y, z
        alpha = []
        while len(alpha) < 3:
            comp = canonicalize(rand_poly(rng, self.cs.chart.vars, 2, 2))
            if comp != ZERO:
                alpha.append(comp)
        X_K = contact_vector_field(self.cs, parse_expr(K_text, self.cs.chart.vars))
        want = lie_poisson_rhs(X_K, one_form(self.cs.chart, tuple(alpha)), self.cs.vol)
        assert _all_equal(_on_section(jc, rates, alpha),
                          [want.coeff((i,)) for i in range(3)])

    def test_contact_density(self, seed):
        K_text, K, rng = self.contact_inputs(seed)
        cfg = SimConfig(model="contact-density", n=8, dt=1e-3, steps=1, K=K_text)
        jc, rates, _ = sim._model_plan(cfg)
        L = _rational_section(rng, self.cs.chart.vars, 1)
        assert _all_equal(_on_section(jc, rates, L),
                          [contact_density_rhs(self.cs, L[0], K)])

    def test_density_map(self, seed):
        rng = random.Random(f"plans:{seed}")
        jc, rates = density_map_plan()
        alpha = _rational_section(rng, self.cs.chart.vars, 3)
        want = contact_density(self.cs, one_form(self.cs.chart, tuple(alpha)))
        assert _all_equal(_on_section(jc, rates, alpha), [want])

    def test_vlasov_density(self, seed):
        raw, params, rng = self.plasma_inputs(seed)
        cfg = SimConfig(model="vlasov-density", n=8, dt=1e-3, steps=1, params=raw)
        jc, rates, _ = sim._model_plan(cfg)
        f = _rational_section(rng, self.pc.full.vars, 1)
        assert _all_equal(_on_section(jc, rates, f),
                          [vlasov_density_rhs(self.pc, f[0], params)])

    def test_vlasov_momentum(self, seed):
        raw, params, rng = self.plasma_inputs(seed)
        cfg = SimConfig(model="vlasov-momentum", n=8, dt=1e-3, steps=1, params=raw)
        jc, rates, _ = sim._model_plan(cfg)
        pi = _rational_section(rng, self.pc.full.vars, 2)
        want = vlasov_momentum_rhs(self.pc, one_form(self.pc.full, pi), params)
        assert _all_equal(_on_section(jc, rates, pi), [want.coeff((i,)) for i in range(2)])


def test_both_momentum_models_are_the_one_lift_route(monkeypatch):
    # building a momentum model reads momentum_rhs_via_lift once, on the
    # field that carries the state, and a density model never reads it
    want = {name: [sim._model_plan(cfg)[2]] if name.endswith("momentum") else []
            for name, cfg in MODEL_CFGS.items()}
    carriers = []
    real = sim.momentum_rhs_via_lift
    monkeypatch.setattr(sim, "momentum_rhs_via_lift",
                        lambda X, *args: carriers.append(X.components) or real(X, *args))
    got = {}
    for name, cfg in MODEL_CFGS.items():
        carriers.clear()
        build_model(cfg)
        got[name] = list(carriers)
    assert got == want
    assert not hasattr(sim, "vlasov_momentum_rhs")


@pytest.mark.parametrize("K_text", ["cos(x)*sin(y) + z", "sin(x)*z + y"])
class TestContactMomentumPlanTranscendentalK:
    """With a K that calls sin, cos or exp, the plan read at a section that
    calls them too is the coadjoint formula exactly: both are canonical
    forms, with the calls as atoms, and the divergence of X_K is exactly
    -2 K_z."""

    cs = ContactStructure.standard()
    section = ("sin(x)*cos(z) + y", "cos(x + y)*z", "exp(sin(y)) - x*z")

    def test_plan_on_trig_section_matches_coadjoint_formula(self, K_text):
        cs = self.cs
        K = parse_expr(K_text, cs.chart.vars)
        cfg = SimConfig(model="contact-momentum", n=8, dt=1e-3, steps=1, K=K_text)
        jc, rates, _ = sim._model_plan(cfg)
        alpha = [parse_expr(t, cs.chart.vars) for t in self.section]
        want = lie_poisson_rhs(contact_vector_field(cs, K), one_form(cs.chart, tuple(alpha)),
                               cs.vol)
        assert _on_section(jc, rates, alpha) == [want.coeff((l,)) for l in range(3)]

    def test_divergence_is_minus_two_Kz(self, K_text):
        cs = self.cs
        K = parse_expr(K_text, cs.chart.vars)
        assert divergence(contact_vector_field(cs, K), cs.vol) is \
            canonicalize(partial(K, cs.z) * -2)


class TestConvergenceHarnesses:
    def test_temporal_order_is_fourth(self):
        cfg = SimConfig(model="contact-density", n=16, dt=1e-3, steps=1,
                        K="z", init=(L0,))
        order, diffs = temporal_order(cfg, (4e-3, 2e-3, 1e-3), t_end=0.04)
        assert order > 3.7
        assert diffs[0] > diffs[1]

    def test_spatial_operator_order_is_fourth(self):
        from liftlab.kinetics import ContactStructure, contact_density_rhs
        from liftlab.parser import parse_expr
        cs = ContactStructure.standard()
        L0e = parse_expr(L0, cs.chart.vars)
        exact = [contact_density_rhs(cs, L0e, parse_expr("z", cs.chart.vars))]

        def mk(n):
            return SimConfig(model="contact-density", n=n, dt=1e-4, steps=1,
                             K="z", init=(L0,))
        order, errs = spatial_operator_order(mk, exact, (8, 16, 32))
        assert order > 3.5
        assert errs[0] > errs[-1]

    def test_determined_nodes_match_closed_form(self):
        # K = z: X_K = (-x, 0, -z), backward characteristic (x e^t, y, z e^t)
        n, dt, steps, cadence = 16, 5e-3, 100, 10
        h = 2 * np.pi / n
        masks = determined_nodes("z", n, dt, steps, cadence)
        assert len(masks) == steps // cadence + 1
        c = np.arange(n) * h
        for i, mask in enumerate(masks):
            t = i * cadence * dt
            ok = (c >= 4 * h) & (c * np.exp(t) <= 2 * np.pi - 4 * h)
            expect = ok[:, None, None] & ok[None, None, :] & np.ones((1, n, 1), bool)
            np.testing.assert_array_equal(mask, expect, err_msg=f"t={t}")
        assert masks[0].sum() > masks[-1].sum() > 0

    def test_determined_nodes_periodic_field_has_x_seam_only(self):
        # X_K = (cos y, 0, -sin y) is periodic: only the Darboux x-seam counts
        masks = determined_nodes("sin(y)", 16, 5e-3, 20, 20)
        for mask in masks:
            assert (mask == mask[:, :, :1]).all()
            assert not mask.all()

    def test_output_times_agree_when_cadence_does_not_divide_steps(self, tmp_path):
        # t = 0, steps 5 and 10, and the last step 12, in all three loops
        steps, cadence, dt = 12, 5, 1e-3
        result = run_simulation(contact_cfg(tmp_path, n=8, dt=dt, steps=steps, cadence=cadence))
        assert [round(row[0] / dt) for row in result.diagnostics] == [0, 5, 10, 12]
        assert len(open(result.diag_path).read().splitlines()) == 1 + 4
        assert len(determined_nodes("z", 8, dt, steps, cadence)) == 4
        _, _, checked = discrete_intertwining_error(
            "z", ("0", "-cos(x)*sin(y)*sin(z)", "-1"), L0,
            n=8, dt=dt, steps=steps, cadence=cadence)
        assert len(checked) == 4

    def test_intertwining_harness_runs(self):
        err, interior, checked = discrete_intertwining_error(
            "z", ("0", "-cos(x)*sin(y)*sin(z)", "-1"), L0,
            n=16, dt=1e-3, steps=5, cadence=5)
        assert err >= interior >= 0.0
        assert len(checked) == 2 and all(0.0 < c <= 1.0 for c in checked)
