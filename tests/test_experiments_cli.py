"""Configuration, persistence, experiment drivers, and the command-line
surface: strict-parse round trips, bit-exact snapshot/CSV round trips with
explicit corruption rejection, fixed-point/uniqueness/convergence driver
contracts on small grids, and in-process exit-code checks for every
subcommand.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mmps.evolution import StepError, run_simulation
from mmps.fields import MODE_PERIODIC
from mmps.recipes import mms_state
from mmps.snapshots import (
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    read_snapshot,
    write_snapshot,
)

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
    out = tmp_path_factory.mktemp("short")
    traj = simulate_run(SMALL, out)
    assert traj.failure is None
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
        "schauder.epsilon = -0.1",       # negative width
        "schauder.max_iterations = 0",   # no iterations allowed
        "uniqueness.delta = -1e-6",      # negative perturbation
        "convergence.spatial_grids = 16",        # too short a ladder
        "convergence.temporal_dts = 1e-3, -1e-3",  # negative dt entry
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
    # the trailer digests the header line and the payload
    assert raw[-8:] == hashlib.blake2b(raw[:-8], digest_size=8).digest()


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

    header[1] = "1"
    version_one = tmp_path / "v1.mmps"
    version_one.write_bytes((" ".join(header) + "\n").encode("ascii") + raw[header_end:])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(version_one)

    header[1] = "2"
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

    rerun_dir = tmp_path / "rerun"
    simulate_run(SMALL, rerun_dir)
    assert (rerun_dir / "diagnostics.csv").read_bytes() == (
        first_dir / "diagnostics.csv"
    ).read_bytes()
    for snap in snaps:
        assert (rerun_dir / snap.name).read_bytes() == snap.read_bytes()


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


def test_schauder_requires_whole_step_horizon():
    cfg = RunConfig(nx=16, dt=1e-3, t_end=1.5e-3, recipe="zero")
    with pytest.raises(ExperimentError):
        schauder_fixed_point(cfg)


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
    with pytest.raises(ExperimentError):
        convergence_study(
            RunConfig(forcing_recipe="trig-1", spatial_grids=(16, 32))
        )
    bad_ladder = RunConfig(
        nx=8, dt=1e-3, t_end=2e-3, forcing_recipe="trig-1", recipe="trig-1",
        spatial_grids=(8, 12, 16), temporal_dts=(1e-3, 5e-4, 3e-4),
    )
    with pytest.raises(ExperimentError):
        convergence_study(bad_ladder)


def _failure_of(cfg: RunConfig, nx: int, dt: float) -> str:
    """The failure string of the same run under ``run_simulation``."""
    grid, params = grid_of(cfg, nx), params_of(cfg)
    init = mms_state("trig-1", 0.0, grid, params)
    traj = run_simulation(init, cfg.t_end, step_config_of(cfg, grid, dt=dt), params)
    assert traj.failure is not None
    return traj.failure


def test_convergence_study_names_the_run_a_step_failure_aborted():
    # trig-1 moves at about 0.33, so a CFL cap of 1e-3 stops the first step
    spatial = RunConfig(nx=16, dt=1e-3, t_end=2e-3, recipe="trig-1", forcing_recipe="trig-1",
                        cfl_limit=1e-3, spatial_grids=(16, 24, 32))
    with pytest.raises(ExperimentError) as exc:
        convergence_study(spatial)
    assert str(exc.value) == f"spatial run nx=16 failed: {_failure_of(spatial, 16, 1e-3)}"
    # a cap of 5e-3 passes the spatial ladder and the reference, not dt = 2e-3
    temporal = replace(spatial, dt=1e-4, cfl_limit=5e-3)
    with pytest.raises(ExperimentError) as exc:
        convergence_study(temporal)
    assert str(exc.value) == f"temporal run dt=0.002 failed: {_failure_of(temporal, 16, 2e-3)}"


def test_convergence_study_raises_a_bad_horizon_as_a_step_error():
    cfg = RunConfig(nx=16, dt=1e-3, t_end=1.5e-3, recipe="trig-1", forcing_recipe="trig-1",
                    spatial_grids=(16, 24, 32))
    with pytest.raises(StepError, match="whole number of steps"):
        convergence_study(cfg)


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
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path)]) == 1
    assert "fixed factor" in capsys.readouterr().err


def test_cli_probe_commands_pass_without_config(capsys):
    assert main(["stokes-selftest"]) == 0
    assert "max saddle residual" in capsys.readouterr().out
    assert main(["gn-probe"]) == 0
    assert "unstable=False" in capsys.readouterr().out
