"""Configuration, persistence, experiment drivers, and the command-line
surface: strict-parse round trips, bit-exact snapshot/CSV round trips with
explicit corruption rejection, fixed-point/uniqueness/convergence driver
contracts on small grids, and in-process exit-code checks for every
subcommand.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmps import experiments
from mmps.cli import main
from mmps.config import ConfigError, RunConfig, load_config, parse_config, with_seed
from mmps.experiments import (
    ExperimentError,
    build_initial_state,
    convergence_study,
    grid_of,
    params_of,
    read_diagnostics_csv,
    schauder_fixed_point,
    simulate_run,
    step_config_of,
    uniqueness_probe,
    write_diagnostics_csv,
)
from mmps.estimates import EstimateError, gronwall_budget, w_lq_audit
from mmps.evolution import (
    CflError,
    StepError,
    Trajectory,
    _mhd_explicit,
    _mhd_solve,
    _w_explicit,
    _w_update,
    advect_node,
    run_simulation,
)
from mmps.fields import MODE_DIRICHLET, MODE_PERIODIC
from mmps.recipes import _trig1_tables, mms_state, mollify
from mmps.stokes import SolvePlan
from mmps.snapshots import (
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    _field_arrays,
    atomic_open,
    read_snapshot,
    write_snapshot,
)
from helpers import fresh_interpreter, snapshot_trailer

SMALL = RunConfig(nx=16, dt=1e-3, t_end=3e-3, recipe="smooth-1", chi=0.02)

SMALL_TEXT = """\
# minimal run
grid.nx = 16
params.chi = 0.02      # trailing comments are fine
time.dt = 1e-3
time.t_end = 3e-3
init.recipe = smooth-1
"""


@pytest.fixture(scope="module")
def short_traj(tmp_path_factory):
    """SMALL's run collected in memory, and the directory that simulate_run
    streamed the same run into (its returned trajectory keeps no states)."""
    out = tmp_path_factory.mktemp("short")
    streamed = simulate_run(SMALL, out)
    grid = grid_of(SMALL)
    traj = run_simulation(build_initial_state(SMALL, grid), SMALL.t_end,
                          step_config_of(SMALL, grid), params_of(SMALL))
    assert streamed.failure is None and traj.failure is None
    assert streamed.states == () and streamed.records == traj.records
    return traj, out


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_config_round_trips_every_key():
    text = """
    grid.nx = 24
    grid.mode = periodic
    params.mu = 0.05
    params.chi = 0.0
    params.nu = 0.02
    time.dt = 5e-4
    time.t_end = 0.01
    init.recipe = taylor-green
    init.seed = 3
    scheme.stepper = imex-ab2
    scheme.advection = central
    scheme.cfl_limit = 0.4
    output.stride = 2
    forcing.recipe = trig-1
    schauder.epsilon = 0.05
    schauder.tolerance = 1e-9
    schauder.max_iterations = 7
    uniqueness.delta = 1e-5
    convergence.spatial_grids = 16, 32, 64
    convergence.temporal_dts = 2e-3, 1e-3, 5e-4
    """
    cfg = parse_config(text)
    assert cfg == RunConfig(
        nx=24, mode=MODE_PERIODIC, mu=0.05, chi=0.0, nu=0.02, dt=5e-4,
        t_end=0.01, recipe="taylor-green", seed=3, scheme="imex-ab2",
        advection="central", cfl_limit=0.4, stride=2, forcing_recipe="trig-1",
        epsilon=0.05, schauder_tol=1e-9, schauder_max_iterations=7,
        delta=1e-5, spatial_grids=(16, 32, 64), temporal_dts=(2e-3, 1e-3, 5e-4),
    )


def test_parse_config_defaults_and_none_forcing():
    cfg = parse_config("# nothing but comments\n\n")
    assert cfg == RunConfig()
    assert parse_config("forcing.recipe = none").forcing_recipe is None


@pytest.mark.parametrize(
    "line",
    [
        "grid.resolution = 32",          # unknown key
        "grid.nx = 16\ngrid.nx = 32",    # duplicate key
        "grid.nx 16",                    # missing '='
        "grid.nx = sixteen",             # malformed int
        "time.dt = fast",                # malformed float
        "grid.nx = 4",                   # below minimum
        "grid.mode = hexagonal",         # unknown mode
        "params.mu = -0.1",              # negative viscosity
        "params.chi = -0.01",            # negative coupling
        "time.dt = 0",                   # zero step
        "init.recipe = vortex",          # unknown recipe
        "init.seed = -1",                # negative seed
        "scheme.stepper = rk4",          # unknown stepper
        "scheme.advection = quick",      # unknown advection
        "scheme.cfl_limit = 1.5",        # out of range
        "output.stride = 0",             # non-positive stride
        "forcing.recipe = bogus",        # unknown forcing recipe
        "forcing.recipe = zero",         # initial data only, not a manufactured solution
        "schauder.epsilon = -0.1",       # negative width
        "schauder.max_iterations = 0",   # no iterations allowed
        "uniqueness.delta = -1e-6",      # negative perturbation
        "convergence.spatial_grids = 16",        # too short a ladder
        "convergence.spatial_grids = 16, 32",    # two grids fit no order check
        "convergence.spatial_grids = 16, 24, 32",  # no one fixed factor
        "convergence.temporal_dts = 1e-3, 1e-3",   # a factor of 1
        "convergence.temporal_dts = 1e-3, -1e-3",  # negative dt entry
        "convergence.temporal_dts = 1e-3, nan",    # NaN never equals its JSON round trip
        "convergence.temporal_dts = inf, 1e-3",    # infinite dt entry
    ],
)
def test_parse_config_rejects_bad_input(line):
    with pytest.raises(ConfigError):
        parse_config(line)


def test_load_config_and_seed_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_TEXT, encoding="utf-8")
    cfg = load_config(path)
    assert cfg == SMALL
    assert with_seed(cfg, None) == cfg
    assert with_seed(cfg, 9).seed == 9
    assert with_seed(cfg, 9) == replace(cfg, seed=9)


# ---------------------------------------------------------------------------
# Snapshot format
# ---------------------------------------------------------------------------


def test_snapshot_round_trip_is_bit_exact(short_traj, tmp_path):
    traj, _ = short_traj
    state = traj.final_state
    path = tmp_path / "state.mmps"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.t == state.t  # hex float round trip, no decimal loss
    assert back.grid == state.grid
    assert np.array_equal(back.u.ux, state.u.ux)
    assert np.array_equal(back.u.uy, state.u.uy)
    assert np.array_equal(back.w.data, state.w.data)
    assert np.array_equal(back.b.ux, state.b.ux)
    assert np.array_equal(back.b.uy, state.b.uy)
    assert np.array_equal(back.p.data, state.p.data)

    write_snapshot(state, tmp_path / "again.mmps")
    raw = path.read_bytes()
    assert (tmp_path / "again.mmps").read_bytes() == raw
    # the trailer checksums the header line and the payload
    assert raw[-4:] == snapshot_trailer(raw[:-4])


@pytest.mark.parametrize("mode", ["dirichlet-square", MODE_PERIODIC])
def test_write_snapshot_bytes_equal_the_joined_construction(tmp_path, mode):
    # the streamed write must give the bytes of header + payload + checksum(both)
    cfg = replace(SMALL, recipe="rough-h1", mode=mode, seed=2)
    state = replace(build_initial_state(cfg, grid_of(cfg)), t=0.1 + 0.2)
    g = state.grid
    header = f"MMPS 3 {g.nx} {g.ny} {g.mode} {float(state.t).hex()}\n".encode("ascii")
    blob = header + b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in _field_arrays(state)
    )
    path = tmp_path / "state.mmps"
    write_snapshot(state, path)
    assert path.read_bytes() == blob + snapshot_trailer(blob)


@pytest.mark.parametrize("mode", ["dirichlet-square", MODE_PERIODIC])
def test_read_snapshot_holds_no_copy_of_the_file(tmp_path, mode):
    # the payload is read into the state's own arrays and hashed there
    cfg = replace(SMALL, nx=128, recipe="zero", mode=mode)
    path = tmp_path / "state.mmps"
    write_snapshot(build_initial_state(cfg, grid_of(cfg)), path)
    read_snapshot(path)  # warm the imports and caches untraced
    tracemalloc.start()
    try:
        state = read_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state_bytes = sum(arr.nbytes for arr in _field_arrays(state))
    assert peak <= 1.2 * state_bytes, (peak, state_bytes)


def test_snapshot_rejects_corruption(short_traj, tmp_path):
    traj, _ = short_traj
    state = traj.final_state
    path = tmp_path / "state.mmps"
    write_snapshot(state, path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n") + 1

    truncated = tmp_path / "short.mmps"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(SnapshotTruncatedError):
        read_snapshot(truncated)

    flipped = bytearray(raw)
    flipped[header_end + 100] ^= 0x01  # one payload bit
    bad_payload = tmp_path / "flipped.mmps"
    bad_payload.write_bytes(bytes(flipped))
    with pytest.raises(SnapshotChecksumError) as exc:
        read_snapshot(bad_payload)
    assert "checksum" in str(exc.value)

    garbage = tmp_path / "garbage.mmps"
    garbage.write_bytes(b"\x00\x01\x02 not a snapshot \n" + raw[header_end:])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(garbage)

    header = raw[: header_end - 1].decode("ascii").split(" ")
    header[1] = "9999"
    versioned = tmp_path / "future.mmps"
    versioned.write_bytes((" ".join(header) + "\n").encode("ascii") + raw[header_end:])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(versioned)

    for old in ("1", "2"):  # earlier formats are refused by their version
        header[1] = old
        versioned.write_bytes((" ".join(header) + "\n").encode("ascii") + raw[header_end:])
        with pytest.raises(SnapshotFormatError, match=f"unsupported version '{old}'"):
            read_snapshot(versioned)

    header[1] = "3"
    for nx, ny in (("4", "4"), ("8", "9")):
        header[2], header[3] = nx, ny
        resized = tmp_path / "resized.mmps"
        resized.write_bytes((" ".join(header) + "\n").encode("ascii") + raw[header_end:])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(resized)

    header[2] = header[3] = str(10**8)  # rejected before any allocation
    huge = tmp_path / "huge.mmps"
    huge.write_bytes((" ".join(header) + "\n").encode("ascii") + raw[header_end:])
    with pytest.raises(SnapshotTruncatedError):
        read_snapshot(huge)

    trailing = tmp_path / "trailing.mmps"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(SnapshotFormatError):
        read_snapshot(trailing)

    flipped = bytearray(raw)
    flipped[-1] ^= 0x01  # one trailer bit
    bad_trailer = tmp_path / "trailer.mmps"
    bad_trailer.write_bytes(bytes(flipped))
    with pytest.raises(SnapshotChecksumError):
        read_snapshot(bad_trailer)

    for exc_type in (SnapshotTruncatedError, SnapshotChecksumError, SnapshotFormatError):
        assert issubclass(exc_type, SnapshotError)


def test_snapshot_refuses_every_single_bit_flip(tmp_path):
    # CRC-32 detects every burst of up to 32 bits, so each one-bit change of
    # the header line or the payload is refused, never read as a state
    cfg = replace(SMALL, nx=8, recipe="rough-h1", mode=MODE_PERIODIC, seed=3)
    path = tmp_path / "state.mmps"
    write_snapshot(replace(build_initial_state(cfg, grid_of(cfg)), t=0.25), path)
    raw = path.read_bytes()
    with open(path, "r+b", buffering=0) as fh:
        for i in range(len(raw) - 4):
            for bit in range(8):
                fh.seek(i)
                fh.write(bytes([raw[i] ^ (1 << bit)]))
                with pytest.raises(SnapshotError):
                    read_snapshot(path)
            fh.seek(i)
            fh.write(raw[i : i + 1])
    assert read_snapshot(path).t == 0.25  # every byte was put back


@pytest.fixture(scope="module")
def snapshot_bytes(short_traj, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "state.mmps"
    write_snapshot(short_traj[0].final_state, path)
    return path.read_bytes(), path.with_name("mutant.mmps")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_snapshot_fuzzed_corruption_never_reads(snapshot_bytes, data):
    raw, path = snapshot_bytes
    kind = data.draw(st.sampled_from(("truncate", "flip", "header")))
    if kind == "truncate":
        mutant = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        flipped = bytearray(raw)
        flipped[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        mutant = bytes(flipped)
    else:
        header_end = raw.index(b"\n")
        fields = raw[:header_end].decode("ascii").split(" ")
        i = data.draw(st.integers(0, len(fields) - 1))
        fields[i] = data.draw(st.text(max_size=24).filter(lambda s, old=fields[i]: s != old))
        mutant = " ".join(fields).encode("utf-8") + raw[header_end:]
    path.write_bytes(mutant)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


# ---------------------------------------------------------------------------
# Diagnostics CSV
# ---------------------------------------------------------------------------


def test_diagnostics_csv_round_trip_and_determinism(short_traj, tmp_path):
    traj, _ = short_traj
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagnostics_csv(traj.records, a)
    write_diagnostics_csv(traj.records, b)
    assert a.read_bytes() == b.read_bytes()
    assert read_diagnostics_csv(a) == traj.records  # repr floats round-trip


def test_diagnostics_csv_rejects_tampering(short_traj, tmp_path):
    traj, _ = short_traj
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(traj.records, path)
    lines = path.read_text(encoding="utf-8").splitlines()

    bad_header = tmp_path / "header.csv"
    bad_header.write_text(
        "\n".join([lines[0].replace("u_l2", "u_norm")] + lines[1:]) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ExperimentError):
        read_diagnostics_csv(bad_header)

    short_row = tmp_path / "short.csv"
    short_row.write_text("\n".join(lines + ["0.1,0.2,0.3"]) + "\n", encoding="utf-8")
    with pytest.raises(ExperimentError):
        read_diagnostics_csv(short_row)


def test_cli_audit_names_an_unparsable_csv_cell(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    csv_path = out / "diagnostics.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("w_l2")
    cells = lines[2].split(",")
    cells[column] = "x1"
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"mmps: {csv_path}: line 3, column w_l2: 'x1' is not a number\n"
    )


# ---------------------------------------------------------------------------
# simulate_run persistence
# ---------------------------------------------------------------------------


def test_simulate_run_writes_deterministic_outputs(short_traj, tmp_path):
    traj, first_dir = short_traj
    assert (first_dir / "diagnostics.csv").exists()
    snaps = sorted(first_dir.glob("snap_*.mmps"))
    assert len(snaps) == len(traj.states)
    assert snaps[0].name == "snap_000000.mmps"
    back = read_snapshot(snaps[-1])
    assert back.t == traj.final_state.t
    assert read_diagnostics_csv(first_dir / "diagnostics.csv") == traj.records
    for snap, (t, state) in zip(snaps, traj.states):  # the streamed files hold the states
        back = read_snapshot(snap)
        assert back.t == t
        for mine, theirs in zip(_field_arrays(back), _field_arrays(state)):
            assert np.array_equal(mine, theirs)

    rerun_dir = tmp_path / "rerun"
    simulate_run(SMALL, rerun_dir)
    assert (rerun_dir / "diagnostics.csv").read_bytes() == (
        first_dir / "diagnostics.csv"
    ).read_bytes()
    for snap in snaps:
        assert (rerun_dir / snap.name).read_bytes() == snap.read_bytes()


def test_a_streamed_trajectory_refuses_the_audits_that_need_its_states(tmp_path):
    params = params_of(SMALL)
    streamed = simulate_run(SMALL, tmp_path)
    with pytest.raises(EstimateError, match="stride 1"):
        w_lq_audit(streamed, 8.0, params)
    with pytest.raises(StepError, match="no states"):
        streamed.final_state


@pytest.mark.parametrize("scheme", ["imex-euler", "imex-ab2"])
def test_the_record_ledgers_do_not_depend_on_the_stride(tmp_path, scheme):
    cfg = replace(SMALL, t_end=7e-3, recipe="rough-h1", mode=MODE_PERIODIC, scheme=scheme)
    params = params_of(cfg)
    runs = [simulate_run(replace(cfg, stride=stride), tmp_path / f"s{stride}") for stride in (1, 3)]
    assert [len(list((tmp_path / f"s{s}").glob("snap_*.mmps"))) for s in (1, 3)] == [8, 4]
    dense, strided = runs
    assert dense.failure is None and strided.failure is None
    assert repr(dense.records) == repr(strided.records)  # bit for bit, -0.0 included
    assert gronwall_budget(dense) == gronwall_budget(strided)
    assert w_lq_audit(dense, 4.0, params) == w_lq_audit(strided, 4.0, params)
    assert gronwall_budget(strided)["int_dtu_l2_sq"] > 0.0
    assert any(w_lq_audit(strided, 4.0, params).series["scheme_slack"])


def test_snapshot_and_csv_writes_are_atomic(short_traj, tmp_path):
    traj, _ = short_traj
    path = tmp_path / "snap_000000.mmps"
    write_snapshot(traj.states[0][1], path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted write")
    assert path.read_bytes() == before  # the old file stays whole
    write_diagnostics_csv(traj.records, tmp_path / "diagnostics.csv")
    write_snapshot(traj.final_state, path)
    assert read_snapshot(path).t == traj.final_state.t
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.csv", "snap_000000.mmps"]


def test_build_initial_state_honors_recipe_grid_and_seed():
    cfg = replace(SMALL, recipe="rough-h1", seed=4)
    grid = grid_of(cfg)
    assert grid.nx == cfg.nx and grid.mode == cfg.mode
    s1 = build_initial_state(cfg, grid)
    s2 = build_initial_state(cfg, grid)
    assert np.array_equal(s1.b.ux, s2.b.ux)
    assert not s1.u.ux.any()  # rough data seeds only the magnetic field
    other = build_initial_state(replace(cfg, seed=5), grid)
    assert not np.array_equal(s1.b.ux, other.b.ux)
    p = params_of(cfg)
    assert (p.mu, p.chi, p.nu) == (cfg.mu, cfg.chi, cfg.nu)


# ---------------------------------------------------------------------------
# Fixed-point driver
# ---------------------------------------------------------------------------


def test_schauder_zero_data_converges_immediately():
    cfg = RunConfig(nx=16, dt=1e-3, t_end=5e-3, recipe="zero", chi=0.02)
    report = schauder_fixed_point(cfg)
    assert report["converged"] is True
    assert report["iterations"] == 1  # the zero spin map is already fixed
    assert report["wstar_x_norm"] == 0.0
    assert report["halvings"] == []
    assert report["coupled_l2_gap"] == 0.0


def test_schauder_without_coupling_converges_in_two_iterations():
    # chi = 0 decouples the velocity from the spin input, so the second
    # iterate already reproduces the first: the map is constant
    cfg = RunConfig(nx=16, dt=1e-3, t_end=5e-3, recipe="smooth-1", chi=0.0)
    report = schauder_fixed_point(cfg)
    assert report["converged"] is True
    assert report["iterations"] == 2
    assert report["diffs"][-1] == 0.0


def test_schauder_builds_one_solve_plan_per_map_application(monkeypatch):
    import mmps.experiments as experiments
    import mmps.stokes as stokes

    plans, applications = [], []
    plan_init, apply_map = stokes.SolvePlan.__init__, experiments._apply_spin_map

    def counting_init(self, *args, **kwargs):
        plans.append(args)
        plan_init(self, *args, **kwargs)

    def counting_apply(*args, **kwargs):
        applications.append(args)
        return apply_map(*args, **kwargs)

    monkeypatch.setattr(stokes.SolvePlan, "__init__", counting_init)
    monkeypatch.setattr(experiments, "_apply_spin_map", counting_apply)
    cfg = RunConfig(nx=16, dt=1e-3, t_end=1e-2, recipe="smooth-1", chi=0.02)
    report = schauder_fixed_point(cfg)
    assert report["converged"] and len(applications) == report["iterations"] >= 2
    # one per application of the map, plus one for the coupled comparison march
    assert len(plans) <= len(applications) + 1


def test_spin_map_hands_each_step_its_start_time(monkeypatch):
    import mmps.evolution as evolution
    import mmps.experiments as experiments

    times = []
    step = evolution.step_coupled

    def timed_step(state, *args, **kwargs):
        times.append(state.t)
        return step(state, *args, **kwargs)

    monkeypatch.setattr(evolution, "step_coupled", timed_step)
    cfg = RunConfig(nx=16, dt=1e-3, t_end=3e-3, recipe="smooth-1", chi=0.02)
    grid = grid_of(cfg)
    init = replace(build_initial_state(cfg, grid), t=0.25)
    step_cfg = step_config_of(cfg, grid, with_forcing=False)
    experiments._apply_spin_map([init.w] * 3, init, 3, step_cfg, params_of(cfg), 0.05)
    assert times == [0.25 + k * 1e-3 for k in range(3)]


def _spin_map_of_half_steps(f_slices, init, steps, step_cfg, params, eps):
    """The spin map as the composition of two half steps: u and b driven by
    the mollified iterate, then w transported by the step's starting u;
    one-step, unforced and with one solve plan."""
    dt = step_cfg.dt
    plan = SolvePlan(init.grid, ((params.mu + params.chi) * dt, params.nu * dt))
    u, b, w = init.u, init.b, init.w
    out = [w]
    for k in range(steps):
        terms = _mhd_explicit(u, b, mollify(f_slices[k], eps), params, None)
        u_new, b, _ = _mhd_solve(u, b, terms, dt, plan)
        transport = advect_node(u, w, step_cfg.advection)
        w = _w_update(w, _w_explicit(u, params, None, transport), step_cfg, params)
        u = u_new
        out.append(w)
    return out


@pytest.mark.parametrize("scheme, chi", [("imex-euler", 0.02), ("imex-ab2", 0.02),
                                         ("imex-euler", 0.0)])
@pytest.mark.parametrize("mode", [MODE_DIRICHLET, MODE_PERIODIC])
def test_spin_map_equals_the_half_step_composition_bitwise(mode, scheme, chi):
    import mmps.experiments as experiments

    cfg = RunConfig(nx=16, mode=mode, dt=1e-3, t_end=4e-3, recipe="smooth-1",
                    chi=chi, scheme=scheme, advection="central")
    grid, params, steps = grid_of(cfg), params_of(cfg), 4
    eps = 2.0 * grid.h
    init = build_initial_state(cfg, grid)
    step_cfg = step_config_of(cfg, grid, with_forcing=False)
    f_slices = [init.w] * (steps + 1)
    for _ in range(2):  # the constant extension, then a time-dependent iterate
        expected = _spin_map_of_half_steps(f_slices, init, steps, step_cfg, params, eps)
        got = experiments._apply_spin_map(f_slices, init, steps, step_cfg, params, eps)
        assert [f.data.tobytes() for f in got] == [f.data.tobytes() for f in expected]
        f_slices = got
    assert any(not np.array_equal(f.data, init.w.data) for f in f_slices)


def test_schauder_requires_whole_step_horizon():
    # the config refuses a horizon of no whole number of steps;
    # schauder_fixed_point, one of no step
    with pytest.raises(ConfigError, match="whole number of steps"):
        RunConfig(nx=16, dt=1e-3, t_end=1.5e-3, recipe="zero")
    with pytest.raises(ExperimentError, match="at least one step"):
        schauder_fixed_point(RunConfig(nx=16, dt=1e-3, t_end=0.0, recipe="zero"))


# ---------------------------------------------------------------------------
# Uniqueness driver
# ---------------------------------------------------------------------------


def test_uniqueness_zero_delta_is_bitwise_zero():
    cfg = RunConfig(nx=16, dt=1e-3, t_end=5e-3, recipe="smooth-1", chi=0.02)
    report = uniqueness_probe(cfg, 0.0)
    assert report["identically_zero"] is True
    assert all(v == 0.0 for v in report["d_delta"])
    assert math.isnan(report["ratio_min"])


def test_uniqueness_small_delta_scales_linearly():
    cfg = RunConfig(nx=16, dt=1e-3, t_end=5e-3, recipe="smooth-1", chi=0.02)
    report = uniqueness_probe(cfg, 1e-6)
    assert report["identically_zero"] is False
    assert len(report["times"]) == len(report["d_delta"]) == len(report["ratios"])
    # squared separation of a delta-perturbation scales like delta^2 = 4x
    assert 3.5 <= report["ratio_min"] <= report["ratio_max"] <= 4.5
    assert math.isfinite(report["rate_delta"])
    with pytest.raises(ExperimentError):
        uniqueness_probe(cfg, -1e-6)


# ---------------------------------------------------------------------------
# Convergence driver validation
# ---------------------------------------------------------------------------


def test_convergence_study_validates_inputs():
    with pytest.raises(ExperimentError):
        convergence_study(RunConfig(forcing_recipe=None))
    with pytest.raises(ConfigError, match=">= 3 entries"):
        RunConfig(forcing_recipe="trig-1", spatial_grids=(16, 32))
    with pytest.raises(ConfigError, match="fixed factor"):
        RunConfig(
            nx=8, dt=1e-3, t_end=2e-3, forcing_recipe="trig-1", recipe="trig-1",
            spatial_grids=(8, 12, 16), temporal_dts=(1e-3, 5e-4, 3e-4),
        )


def _failure_of(cfg: RunConfig, nx: int, dt: float) -> str:
    """The failure string of the same run under ``run_simulation``."""
    grid, params = grid_of(cfg, nx), params_of(cfg)
    init = mms_state("trig-1", 0.0, grid, params)
    traj = run_simulation(init, cfg.t_end, step_config_of(cfg, grid, dt=dt), params)
    assert traj.failure is not None
    return traj.failure


MMS_SMALL = RunConfig(nx=32, dt=2.5e-4, t_end=4e-3, recipe="trig-1", forcing_recipe="trig-1",
                      advection="central", spatial_grids=(16, 32, 64),
                      temporal_dts=(2e-3, 1e-3, 5e-4))


def test_convergence_study_fits_a_non_doubling_grid_ladder_by_its_factor():
    # 16, 24, 36 refines h by 3/2 per level; a fit by 2 would read about
    # log(1.5**2)/log(2) = 1.17 for a second-order scheme and fail the gate
    report = convergence_study(replace(MMS_SMALL, spatial_grids=(16, 24, 36)))
    orders = report["spatial"]["orders"]
    assert all(1.8 <= orders[k] <= 2.3 for k in ("u_l2", "w_l2", "b_l2")), orders
    assert report["passes"] is True


@pytest.mark.parametrize("ladder", [{"temporal_dts": (1e-3, 1e-3)},
                                    {"spatial_grids": (16, 16, 16)},
                                    {"spatial_grids": (32, 16, 8)}])
def test_convergence_study_refuses_a_ladder_without_one_factor_above_one(ladder):
    with pytest.raises(ConfigError, match="fixed factor"):
        replace(MMS_SMALL, t_end=2e-3, **ladder)


def test_convergence_study_names_the_run_a_step_failure_aborted():
    # trig-1 moves at about 0.33, so a CFL cap of 1e-3 stops the first step
    spatial = RunConfig(nx=16, dt=1e-3, t_end=2e-3, recipe="trig-1", forcing_recipe="trig-1",
                        cfl_limit=1e-3, spatial_grids=(16, 24, 36))
    with pytest.raises(ExperimentError) as exc:
        convergence_study(spatial)
    assert str(exc.value) == f"spatial run nx=16 failed: {_failure_of(spatial, 16, 1e-3)}"
    # a cap of 5e-3 passes the spatial ladder and the reference, not dt = 2e-3
    temporal = replace(spatial, dt=1e-4, cfl_limit=5e-3)
    with pytest.raises(ExperimentError) as exc:
        convergence_study(temporal)
    assert str(exc.value) == f"temporal run dt=0.002 failed: {_failure_of(temporal, 16, 2e-3)}"


def test_convergence_study_raises_a_bad_horizon_as_a_step_error():
    # t_end is whole steps of time.dt, but not of the ladder's dt = 2e-3
    cfg = RunConfig(nx=16, dt=1e-3, t_end=3e-3, recipe="trig-1", forcing_recipe="trig-1",
                    spatial_grids=(16, 24, 36), temporal_dts=(2e-3, 1e-3, 5e-4))
    with pytest.raises(StepError, match="whole number of steps"):
        convergence_study(cfg)


@pytest.fixture
def forks(monkeypatch):
    """A study's CPU count, set as ``forks.cpus`` (never above its job
    count), and the pids of the children it forks, ``forks.pids``."""
    fork, state = os.fork, SimpleNamespace(cpus=1, pids=[])

    def recorded() -> int:
        pid = fork()
        if pid:
            state.pids.append(pid)
        return pid

    monkeypatch.setattr(experiments.os, "fork", recorded)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: state.cpus)
    return state


def _reaped(pids: list[int]) -> bool:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True


def test_convergence_study_reads_the_same_bits_on_one_cpu_and_two(forks):
    cfg = replace(MMS_SMALL, t_end=0.01)  # crit-04's config
    _trig1_tables.cache_clear()
    reports = []
    for cpus in (1, 2):
        forks.cpus = cpus
        reports.append(json.dumps(convergence_study(cfg)))
    assert reports[0] == reports[1]
    assert _trig1_tables.cache_info().misses == 6  # states and forcings on three grids
    assert len(forks.pids) == 1 and _reaped(forks.pids)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_parallel_study_raises_the_serial_loop_s_error(forks, cpus):
    # dt = 2e-3 has the ladder's largest dt/h and is the only run a CFL cap
    # of 5e-3 stops; with two shares it is marched in the child
    forks.cpus = cpus
    cfg = RunConfig(nx=16, dt=1e-4, t_end=2e-3, recipe="trig-1", forcing_recipe="trig-1",
                    cfl_limit=5e-3, spatial_grids=(16, 24, 36))
    with pytest.raises(ExperimentError) as exc:
        convergence_study(cfg)
    failure = _failure_of(cfg, 16, 2e-3)
    assert str(exc.value) == f"temporal run dt=0.002 failed: {failure}"
    # the child pipes the error's cause back too, which pickle alone drops
    assert type(exc.value.__cause__) is CflError and str(exc.value.__cause__) == failure
    assert len(forks.pids) == cpus - 1 and _reaped(forks.pids)


def test_a_child_that_dies_without_a_result_fails_the_study(forks, monkeypatch):
    forks.cpus, parent, final_state = 2, os.getpid(), experiments._final_state

    def dying(*job):
        if os.getpid() != parent:
            os._exit(3)
        return final_state(*job)

    monkeypatch.setattr(experiments, "_final_state", dying)
    with pytest.raises(ExperimentError, match=r"marching spatial run nx=16, .* ended without a result"):
        convergence_study(MMS_SMALL)
    assert len(forks.pids) == 1 and _reaped(forks.pids)


def test_uniqueness_names_the_run_a_step_failure_aborted():
    cfg = replace(SMALL, cfl_limit=1e-6)
    grid, params = grid_of(cfg), params_of(cfg)
    base = run_simulation(build_initial_state(cfg, grid), cfg.t_end,
                          step_config_of(cfg, grid), params)
    assert base.failure is not None
    with pytest.raises(ExperimentError) as exc:
        uniqueness_probe(cfg, 1e-6)
    assert str(exc.value) == f"base run failed: {base.failure}"


# ---------------------------------------------------------------------------
# Command-line interface (in-process)
# ---------------------------------------------------------------------------


def _write_cfg(tmp_path, text=SMALL_TEXT, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_without_command_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_cli_parses_with_one_parser_and_each_call_reads_afresh(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; a call after a usage error
    # and after a call that set every option reads as in a process of its own
    from mmps import cli

    assert cli._build_parser() is cli._build_parser()
    cfg_path = _write_cfg(tmp_path, SMALL_TEXT.replace("smooth-1", "rough-h1"))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--seed", "x"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg_path, "--out", "seeded", "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfg_path]) == 0  # --out . and the config's seed
    here = capsys.readouterr().out.splitlines()[-1]
    (tmp_path / "fresh").mkdir()
    code = (f"import os; os.chdir({str(tmp_path / 'fresh')!r}); from mmps.cli import main; "
            f"main(['simulate', '--config', {cfg_path!r}])")
    assert fresh_interpreter(code) == here
    csv = (tmp_path / "diagnostics.csv").read_bytes()
    assert csv == (tmp_path / "fresh" / "diagnostics.csv").read_bytes()
    assert csv != (tmp_path / "seeded" / "diagnostics.csv").read_bytes()


def test_cli_simulate_then_audit(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    assert sorted(out.glob("snap_*.mmps"))
    assert "simulate:" in capsys.readouterr().out

    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    audit_out = capsys.readouterr().out
    assert "envelope_ok = 1" in audit_out
    assert "budget total" in audit_out

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["audit", "--config", cfg_path, "--out", str(empty)]) == 2


@pytest.mark.parametrize(
    "old, new, code, named",
    [
        ("grid.nx = 16", "grid.nx = 32", 1, "grid"),
        ("grid.nx = 16", "grid.nx = 16\ngrid.mode = periodic", 1, "grid"),
        ("time.t_end = 3e-3", "time.t_end = 0.5", 1, "t_end"),
        ("time.dt = 1e-3", "time.dt = 1.5e-3", 1, "dt"),
        ("init.seed", "init.seed", 0, None),
    ],
)
def test_cli_audit_refuses_a_run_its_config_does_not_describe(
    tmp_path, capsys, old, new, code, named
):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert old in SMALL_TEXT or old == "init.seed"
    audit_cfg = _write_cfg(tmp_path, SMALL_TEXT.replace(old, new), name="audit.cfg")
    assert main(["audit", "--config", audit_cfg, "--out", str(out)]) == code
    captured = capsys.readouterr()
    if named is None:
        assert "envelope_ok = 1" in captured.out and not captured.err
    else:
        assert "does not describe the run" in captured.err and named in captured.err
        assert "envelope_ok" not in captured.out


ROUGH_TEXT = """\
grid.nx = 16
grid.mode = periodic
init.recipe = rough-h1
time.dt = 1e-3
time.t_end = 6e-3
output.stride = 1
"""


def test_cli_simulate_rerun_into_a_longer_runs_directory_audits_as_fresh(tmp_path, capsys):
    long_cfg = _write_cfg(tmp_path, ROUGH_TEXT, name="long.cfg")
    short_cfg = _write_cfg(tmp_path, ROUGH_TEXT.replace("6e-3", "3e-3"), name="short.cfg")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(["simulate", "--config", long_cfg, "--out", str(reused)]) == 0
    assert main(["simulate", "--config", short_cfg, "--out", str(reused)]) == 0
    assert main(["simulate", "--config", short_cfg, "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert len(list(reused.glob("snap_*.mmps"))) == 4
    code = main(["audit", "--config", short_cfg, "--out", str(reused)])
    reused_out = capsys.readouterr()
    assert main(["audit", "--config", short_cfg, "--out", str(fresh)]) == 0
    fresh_out = capsys.readouterr()
    assert code == 1 or (code == 0 and reused_out.out == fresh_out.out)
    assert "L4 ledger min margin" in fresh_out.out


@pytest.mark.parametrize(
    "copied, planted, named",
    [
        ("snap_000005.mmps", "snap_000005.mmps", "no diagnostics row"),  # t = 5e-3 has no row
        ("snap_000001.mmps", "snap_000009.mmps", "follows"),  # a row time, out of order
        (None, "snap_000003.mmps", "last row's state"),  # the final state is gone
    ],
)
def test_cli_audit_refuses_snapshots_of_another_run(tmp_path, capsys, copied, planted, named):
    long_cfg = _write_cfg(tmp_path, ROUGH_TEXT, name="long.cfg")
    short_cfg = _write_cfg(tmp_path, ROUGH_TEXT.replace("6e-3", "3e-3"), name="short.cfg")
    long, short = tmp_path / "long", tmp_path / "short"
    assert main(["simulate", "--config", long_cfg, "--out", str(long)]) == 0
    assert main(["simulate", "--config", short_cfg, "--out", str(short)]) == 0
    capsys.readouterr()
    if copied is None:
        (short / planted).unlink()
    else:
        (short / planted).write_bytes((long / copied).read_bytes())
    assert main(["audit", "--config", short_cfg, "--out", str(short)]) == 1
    captured = capsys.readouterr()
    assert "does not describe the run" in captured.err and named in captured.err
    assert "envelope_ok" not in captured.out


def test_cli_simulate_refuses_a_horizon_of_no_whole_steps_before_touching_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = _write_cfg(tmp_path, SMALL_TEXT.replace("time.t_end = 3e-3", "time.t_end = 6.5e-3"),
                     name="bad.cfg")
    capsys.readouterr()
    assert main(["simulate", "--config", bad, "--out", str(out)]) == 2
    assert "whole number of steps" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _plant_unstored(out, tmp_path, text):
    every = tmp_path / "every"  # the same run at stride 1: snap_000001 is at t = 0.001
    cfg_path = _write_cfg(tmp_path, text.replace("output.stride = 2", "output.stride = 1"), "e.cfg")
    assert main(["simulate", "--config", cfg_path, "--out", str(every)]) == 0
    (out / "snap_000001.mmps").write_bytes((every / "snap_000001.mmps").read_bytes())


@pytest.mark.parametrize(
    "plant, named",
    [
        (lambda out, tmp_path, text: (out / "snap_000001.mmps").unlink(),
         "no snapshot holds the stored state (t = 0.002)"),
        (_plant_unstored, "a snapshot is at t = 0.001, which is no stored step's time"),
    ],
    ids=["missing", "unstored"],
)
def test_cli_audit_refuses_a_stride_2_run_off_its_stored_steps(tmp_path, capsys, plant, named):
    text = SMALL_TEXT.replace("time.t_end = 3e-3", "time.t_end = 6e-3") + "output.stride = 2\n"
    cfg_path, out = _write_cfg(tmp_path, text), tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert len(list(out.glob("snap_*.mmps"))) == 4  # t = 0, 2, 4 and 6 ms
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    plant(out, tmp_path, text)
    capsys.readouterr()
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "does not describe the run" in captured.err and named in captured.err
    assert "envelope_ok" not in captured.out


def _plant_rows(out, times):
    records = read_diagnostics_csv(out / "diagnostics.csv")
    planted = [replace(r, t=t) for r, t in zip(records, times)]
    write_diagnostics_csv(planted, out / "diagnostics.csv")


@pytest.mark.parametrize(
    "plant, named",
    [
        (lambda out, other: _plant_rows(out, (0.0, 1e-3, 2e-3)),
         "diagnostics.csv has 3 rows, but time.t_end = 0.003 with time.dt = 0.001 needs 4"),
        (lambda out, other: _plant_rows(out, (0.0, 1.5e-3, 3e-3, 4.5e-3)),
         "the last row is at t = 0.0045, not time.t_end = 0.003"),
        (lambda out, other: _plant_rows(out, (0.0, 1e-3, 2.5e-3, 3e-3)),
         "rows at t = 0.001 and 0.0025 are not time.dt = 0.001 apart"),
        (lambda out, other: _plant_rows(out, (5e-4, 1e-3, 2e-3, 3e-3)),
         "the first row is at t = 0.0005, not 0"),
        (lambda out, other: (out / "snap_000000.mmps").write_bytes(
            (other / "snap_000000.mmps").read_bytes()),
         "the snapshot at t = 0 has nx = 32, mode = dirichlet-square; "
         "the config has grid.nx = 16, grid.mode = dirichlet-square"),
    ],
    ids=["row-count", "last-row", "row-spacing", "first-row", "snapshot-grid"],
)
def test_cli_audit_refuses_planted_files_under_a_matching_manifest(tmp_path, capsys, plant, named):
    cfg_path = _write_cfg(tmp_path)
    other_cfg = _write_cfg(tmp_path, SMALL_TEXT.replace("grid.nx = 16", "grid.nx = 32"),
                           name="other.cfg")
    out, other = tmp_path / "out", tmp_path / "other"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["simulate", "--config", other_cfg, "--out", str(other)]) == 0
    plant(out, other)
    capsys.readouterr()
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "does not describe the run" in captured.err and named in captured.err
    assert "run.json" not in captured.err and not captured.out


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("params.chi = 0.02", "params.chi = 0.5", "params.chi"),
        ("params.chi = 0.02", "params.chi = 0.5\nparams.mu = 0.4", "params.mu"),  # first key
        ("init.recipe = smooth-1", "init.recipe = smooth-1\nscheme.stepper = imex-ab2",
         "scheme.stepper"),
        ("init.recipe", "init.recipe", None),
    ],
)
def test_cli_audit_refuses_a_run_made_with_other_parameters(tmp_path, capsys, old, new, named):
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_cfg(tmp_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert manifest["config"]["params.chi"] == 0.02 and manifest["config"]["grid.nx"] == 16
    assert manifest["steps_completed"] == 3 and manifest["failure"] is None
    capsys.readouterr()
    audit_cfg = _write_cfg(tmp_path, SMALL_TEXT.replace(old, new), name="audit.cfg")
    code = main(["audit", "--config", audit_cfg, "--out", str(out)])
    captured = capsys.readouterr()
    if named is None:
        assert code == 0 and "envelope_ok = 1" in captured.out and not captured.err
    else:
        assert code == 1 and "envelope_ok" not in captured.out
        assert "does not describe the run" in captured.err
        assert f"run.json has {named} = " in captured.err


def test_cli_audit_refuses_a_run_without_a_clean_manifest(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    (out / "run.json").unlink()
    capsys.readouterr()
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "no run.json" in captured.err and not captured.out

    (out / "run.json").write_text("[1, 2]", encoding="utf-8")
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 1
    assert "not a run manifest" in capsys.readouterr().err

    # smooth-1 moves faster than a CFL cap of 1e-3 allows: the first step fails
    aborted_cfg = _write_cfg(tmp_path, SMALL_TEXT + "scheme.cfl_limit = 1e-3\n", name="abort.cfg")
    aborted = tmp_path / "aborted"
    assert main(["simulate", "--config", aborted_cfg, "--out", str(aborted)]) == 1
    manifest = json.loads((aborted / "run.json").read_text(encoding="utf-8"))
    assert manifest["steps_completed"] == 0 and manifest["failure"]
    capsys.readouterr()
    assert main(["audit", "--config", aborted_cfg, "--out", str(aborted)]) == 1
    captured = capsys.readouterr()
    assert f"the run aborted: {manifest['failure']}" in captured.err and not captured.out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def manifest_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("manifest")
    cfg_path = _write_cfg(base)
    out = base / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    return cfg_path, out, (out / "run.json").read_text(encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_audit_refuses_fuzzed_manifests(manifest_run, data):
    cfg_path, out, text = manifest_run
    manifest = json.loads(text)
    kind = data.draw(st.sampled_from(("replace", "value", "drop", "failure")))
    if kind == "replace":
        manifest = data.draw(JSON_VALUES)
    elif kind == "failure":
        manifest["failure"] = data.draw(JSON_VALUES.filter(lambda v: v is not None))
    else:
        key = data.draw(st.sampled_from(sorted(manifest["config"])))
        if kind == "drop":
            del manifest["config"][key]
        else:
            old = manifest["config"][key]
            manifest["config"][key] = data.draw(JSON_VALUES.filter(lambda v: v != old))
    (out / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["audit", "--config", cfg_path, "--out", str(out)])
    finally:
        (out / "run.json").write_text(text, encoding="utf-8")
    assert code == 1 and not stdout.getvalue()
    assert "does not describe the run" in stderr.getvalue()


def _periodic_text(steps: int) -> str:
    return (f"grid.nx = 48\ngrid.mode = periodic\ninit.recipe = rough-h1\n"
            f"scheme.stepper = imex-ab2\nscheme.advection = central\n"
            f"time.dt = 5e-4\ntime.t_end = {steps * 5e-4!r}\noutput.stride = 1\n")


def _simulate_and_audit(tmp_path, steps: int) -> tuple[str, Path]:
    cfg_path = _write_cfg(tmp_path, _periodic_text(steps), name=f"p{steps}.cfg")
    out = tmp_path / f"p{steps}"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    return cfg_path, out


def test_simulate_and_audit_hold_at_most_two_states(tmp_path, capsys):
    _simulate_and_audit(tmp_path, 2)  # warm the module caches untraced
    peaks = {}
    for steps in (4, 12):
        tracemalloc.start()
        try:
            _simulate_and_audit(tmp_path, steps)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    state = read_snapshot(tmp_path / "p4" / "snap_000000.mmps")
    state_bytes = sum(arr.nbytes for arr in _field_arrays(state))
    # eight more stored states may not cost one state's bytes
    assert peaks[12] - peaks[4] < state_bytes, (peaks, state_bytes)


def test_cli_audit_reads_each_snapshot_once(tmp_path, monkeypatch, capsys):
    import mmps.cli

    cfg_path, out = _simulate_and_audit(tmp_path, 5)
    reads = []
    read = mmps.cli.read_snapshot
    monkeypatch.setattr(mmps.cli, "read_snapshot", lambda path: reads.append(path) or read(path))
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(reads) == sorted(out.glob("snap_*.mmps"))
    assert len(reads) == 6


def test_cli_audit_finishes_its_ledgers_through_the_public_audits(tmp_path, monkeypatch, capsys):
    import mmps.cli

    cfg_path, out = _simulate_and_audit(tmp_path, 5)
    calls = []
    for name in ("gronwall_budget", "w_lq_audit"):
        fn = getattr(mmps.cli, name)
        monkeypatch.setattr(mmps.cli, name,
                            lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    assert sorted(calls) == ["gronwall_budget", "w_lq_audit"]


def test_streamed_audit_ledgers_equal_the_in_memory_ledgers(tmp_path, capsys):
    cfg_path, out = _simulate_and_audit(tmp_path, 5)
    cfg = load_config(cfg_path)
    grid, params = grid_of(cfg), params_of(cfg)
    traj = run_simulation(build_initial_state(cfg, grid), cfg.t_end,
                          step_config_of(cfg, grid), params)
    records = read_diagnostics_csv(out / "diagnostics.csv")
    assert records == traj.records
    streamed = Trajectory(states=(), records=records, cfg=traj.cfg, params=params)
    budget = gronwall_budget(streamed)
    ledger = w_lq_audit(streamed, 4.0, params)
    assert budget == gronwall_budget(traj)  # float equality: bit for bit
    assert ledger == w_lq_audit(traj, 4.0, params)
    assert budget["int_dtu_l2_sq"] > 0.0 and len(ledger.times) == 5


def test_cli_audit_prints_the_l4_ledger_at_every_stride(tmp_path, capsys):
    printed = []
    for stride in (1, 3):
        cfg_path = _write_cfg(tmp_path, ROUGH_TEXT.replace("output.stride = 1",
                                                           f"output.stride = {stride}"),
                              name=f"s{stride}.cfg")
        out = tmp_path / f"s{stride}"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out)
    assert len(list((tmp_path / "s3").glob("snap_*.mmps"))) == 3
    assert "L4 ledger min margin" in printed[1] and "skipped" not in printed[1]
    assert printed[0] == printed[1]  # the budget and both ledgers read the rows alone


def test_cli_audit_scales_the_l4_margin_by_its_own_step(tmp_path, capsys):
    # rough-h1 spin starts at 0 and stays small, so the unscaled margins are
    # roundoff-sized; each is also printed against max(|lhs|, |rhs|) of its
    # step, with the worst step's time, over the steps where that scale is
    # not 0 (the first step's is: both are 0 there)
    text = ("grid.nx = 16\ninit.recipe = rough-h1\nparams.mu = 0.04\nparams.chi = 0.02\n"
            "params.nu = 0.01\ntime.dt = 5e-4\ntime.t_end = 0.012\n"
            "scheme.advection = upwind2\noutput.stride = 24\n")
    cfg_path, out = _write_cfg(tmp_path, text, name="rough.cfg"), tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    cfg = load_config(cfg_path)
    traj = Trajectory(states=(), records=read_diagnostics_csv(out / "diagnostics.csv"),
                      cfg=step_config_of(cfg, grid_of(cfg)), params=params_of(cfg))
    ledger = w_lq_audit(traj, 4.0, params_of(cfg))
    lhs, rhs, margin = (ledger.series[k] for k in ("lhs", "rhs", "margin"))
    assert lhs[0] == rhs[0] == 0.0
    rel = [m / max(abs(a), abs(b)) if max(abs(a), abs(b)) else 0.0
           for m, a, b in zip(margin, lhs, rhs)]
    assert all(max(abs(a), abs(b)) > 0.0 for a, b in zip(lhs[1:], rhs[1:]))
    k = 1 + int(np.argmin(rel[1:]))
    assert f"L4 ledger min margin = {min(margin):.6g}," in printed
    assert (f"L4 ledger worst relative margin = {rel[k]:.6g} at t = {ledger.times[k]:.6g}\n"
            in printed)
    # the scaled margins are not roundoff-sized, and none is negative:
    # Hoelder's drive chi ||curl2 u||_4 ||w||_4^3 bounds the spin source with
    # no constant
    assert abs(min(margin)) < 1e-15 < 1e-3 < rel[k]


@pytest.mark.parametrize("chi", [0.02, 0.0])
def test_cli_audit_takes_the_worst_relative_margin_over_nonzero_scales(tmp_path, capsys, chi):
    # rough-h1 spin starts at 0, so the first step's lhs and rhs are 0 and it
    # has no relative margin; with chi = 0 the spin stays 0 and no step has one
    text = (f"grid.nx = 8\ninit.recipe = rough-h1\nparams.mu = 0.04\nparams.chi = {chi}\n"
            "params.nu = 0.01\ntime.dt = 1e-3\ntime.t_end = 4e-3\n")
    cfg_path, out = _write_cfg(tmp_path, text), tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if "relative margin" in line]
    cfg = load_config(cfg_path)
    traj = Trajectory(states=(), records=read_diagnostics_csv(out / "diagnostics.csv"),
                      cfg=step_config_of(cfg, grid_of(cfg)), params=params_of(cfg))
    ledger = w_lq_audit(traj, 4.0, params_of(cfg))
    scaled = [(m / max(abs(a), abs(b)), t)
              for m, a, b, t in zip(*(ledger.series[k] for k in ("margin", "lhs", "rhs")),
                                    ledger.times)
              if max(abs(a), abs(b)) > 0.0]
    if chi == 0.0:
        assert scaled == [] and printed == [
            "audit: L4 ledger worst relative margin: no step has a nonzero max(|lhs|, |rhs|)"]
    else:
        worst, t = min(scaled)
        assert len(scaled) == 3 and worst > 0.0
        assert printed == [f"audit: L4 ledger worst relative margin = {worst:.6g} at t = {t:.6g}"]


def test_cli_rejects_bad_configs(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.cfg")
    assert main(["simulate", "--config", missing]) == 2
    bad = _write_cfg(tmp_path, text="grid.resolution = 32\n", name="bad.cfg")
    assert main(["simulate", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = _write_cfg(
        tmp_path, text=SMALL_TEXT.replace("smooth-1", "rough-h1"), name="r.cfg"
    )
    out1, out2, out3 = (tmp_path / n for n in ("s0", "s7", "s7b"))
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2), "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out3), "--seed", "7"]) == 0
    base = (out1 / "diagnostics.csv").read_bytes()
    seeded = (out2 / "diagnostics.csv").read_bytes()
    assert base != seeded
    assert seeded == (out3 / "diagnostics.csv").read_bytes()


def test_cli_schauder_writes_report(tmp_path, capsys):
    text = """
    grid.nx = 16
    params.chi = 0.02
    time.dt = 1e-3
    time.t_end = 5e-3
    init.recipe = zero
    """
    cfg_path = _write_cfg(tmp_path, text=text, name="schauder.cfg")
    out = tmp_path / "fp"
    assert main(["schauder", "--config", cfg_path, "--out", str(out)]) == 0
    report = (out / "schauder.txt").read_text(encoding="utf-8")
    assert "converged = True" in report
    assert "iterations = 1" in report


def test_schauder_failure_reports_its_last_attempt(tmp_path, capsys):
    # one iteration never reaches tol = 1e-30, so all five attempts fail:
    # horizons of 64, 32, 16, 8 and then 4 steps, after four halvings
    cfg = RunConfig(nx=16, dt=1e-3, t_end=0.064, recipe="smooth-1", chi=0.02,
                    schauder_max_iterations=1, schauder_tol=1e-30)
    report = schauder_fixed_point(cfg)
    assert report["converged"] is False
    assert report["t_end"] == report["attempts"][-1]["t_end"] == pytest.approx(0.004)
    assert report["halvings"] == pytest.approx([0.064, 0.032, 0.016, 0.008])
    assert [a["t_end"] for a in report["attempts"]] == pytest.approx(
        [0.064, 0.032, 0.016, 0.008, 0.004])
    assert report["diffs"] == report["attempts"][-1]["diffs"]
    text = ("grid.nx = 16\nparams.chi = 0.02\ntime.dt = 1e-3\ntime.t_end = 0.064\n"
            "init.recipe = smooth-1\nschauder.max_iterations = 1\nschauder.tolerance = 1e-30\n")
    out = tmp_path / "fp"
    assert main(["schauder", "--config", _write_cfg(tmp_path, text), "--out", str(out)]) == 1
    written = (out / "schauder.txt").read_text(encoding="utf-8")
    assert f"t_end = {report['t_end']!r}\n" in written and "halvings = 4\n" in written


def test_cli_uniqueness_writes_series(tmp_path):
    text = """
    grid.nx = 16
    params.chi = 0.02
    time.dt = 1e-3
    time.t_end = 5e-3
    init.recipe = smooth-1
    uniqueness.delta = 1e-6
    """
    cfg_path = _write_cfg(tmp_path, text=text, name="uni.cfg")
    out = tmp_path / "uni"
    assert main(["uniqueness", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "uniqueness.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,d_delta,d_half,ratio"
    assert len(lines) > 1


def test_cli_convergence_reports_ladder_failure(tmp_path, capsys):
    text = """
    grid.nx = 8
    time.dt = 1e-3
    time.t_end = 2e-3
    init.recipe = trig-1
    forcing.recipe = trig-1
    convergence.spatial_grids = 8, 12, 16
    convergence.temporal_dts = 1e-3, 5e-4, 3e-4
    """
    cfg_path = _write_cfg(tmp_path, text=text, name="conv.cfg")
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "fixed factor" in capsys.readouterr().err
    short = _write_cfg(tmp_path, text=text.replace("8, 12, 16", "16, 32"), name="short.cfg")
    assert main(["convergence", "--config", short, "--out", str(tmp_path)]) == 2
    assert ">= 3 entries" in capsys.readouterr().err
    assert not (tmp_path / "convergence.txt").exists()


def test_cli_probe_commands_pass_without_config(capsys):
    assert main(["stokes-selftest"]) == 0
    assert "max saddle residual" in capsys.readouterr().out
    assert main(["gn-probe"]) == 0
    assert "unstable=False" in capsys.readouterr().out
