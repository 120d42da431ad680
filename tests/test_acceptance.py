"""Thirteen end-to-end acceptance gates, one test (= one pass/fail line) per
criterion: discrete operator algebra, solver-vs-dense-LU equivalence,
analytic and manufactured convergence orders, the energy/L^q/budget/
t-weighted estimate ladders, fixed-point construction, continuous
dependence, regularity probes, weak-form residuals, and bit-exact
determinism of the persistence layer.

Each test drives the public API on a frozen configuration and asserts the
stated quantitative gates (convergence orders, margins, stability fractions,
tolerance ceilings) plus its wall-clock budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mmps.config import RunConfig
from mmps.estimates import (
    energy_audit,
    gn_probe,
    gronwall_budget,
    refinement_order,
    refinement_stable,
    stokes_regularity_probe,
    tweighted_h2_audit,
    w_lq_audit,
    weak_form_residual,
)
from mmps.evolution import StepConfig, StepError, march, run_simulation, step_coupled
from mmps.experiments import (
    build_initial_state,
    convergence_study,
    grid_of,
    params_of,
    read_diagnostics_csv,
    schauder_fixed_point,
    simulate_run,
    step_config_of,
    uniqueness_probe,
)
from mmps.fields import (
    CELL,
    MODE_DIRICHLET,
    MODE_PERIODIC,
    NODE,
    FluidParams,
    GridSpec,
    ScalarField,
    State,
    VectorField,
    curl2,
    div,
    grad,
    l2_inner,
    lq_norm,
    perp_grad,
)
from mmps.recipes import initial_state, taylor_green_rate, taylor_green_state
from mmps.snapshots import SnapshotChecksumError, read_snapshot, write_snapshot
from mmps.stokes import solve_stationary_stokes

from test_stokes import _dense_saddle_solve, _random_mac


class _Budget:
    """Context manager asserting the criterion's wall-clock ceiling."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, f"runtime {elapsed:.1f}s over {self.limit}s budget"
        return False


def _march_to(init, t_end, cfg, params):
    """Final state of a record-free march, and the step failure that stopped
    it (None when it completed)."""
    final = init
    try:
        for _, final, *_ in march(init, t_end, cfg, params):
            pass
    except StepError as exc:
        return final, str(exc)
    return final, None


def _run(recipe, nx, dt, t_end, params, advection="central", seed=0, stride=1,
         scheme="imex-euler"):
    grid = GridSpec(nx, nx)
    init = initial_state(recipe, grid, params, seed=seed)
    cfg = StepConfig(dt=dt, scheme=scheme, advection=advection, snapshot_stride=stride)
    traj = run_simulation(init, t_end, cfg, params)
    assert traj.failure is None
    return traj


def test_criterion_01_operator_algebra_exact():
    with _Budget(1.0):
        rng = np.random.default_rng(101)
        for mode in (MODE_DIRICHLET, MODE_PERIODIC):
            g = GridSpec(16, 16, mode)
            for _ in range(5):
                w = ScalarField(g, NODE, rng.standard_normal(g.lattice_shape("node")))
                s = ScalarField(g, CELL, rng.standard_normal(g.lattice_shape("cell")))
                ux = rng.standard_normal(g.lattice_shape("xface"))
                uy = rng.standard_normal(g.lattice_shape("yface"))
                if not g.periodic:
                    ux[0, :] = ux[-1, :] = 0.0
                    uy[:, 0] = uy[:, -1] = 0.0
                v = VectorField(g, ux, uy)

                # rotated gradients are exactly solenoidal (tolerances are
                # relative to the second-difference scale |f| / h^2)
                w_scale = np.max(np.abs(w.data)) / g.h**2
                assert np.max(np.abs(div(perp_grad(w)).data)) <= 1e-13 * w_scale
                # gradients are exactly curl-free where the interior stencil
                # applies (Dirichlet wall rows encode the no-slip closure,
                # which a gradient field does not satisfy)
                c = curl2(grad(s)).data
                if not g.periodic:
                    c = c[1:-1, 1:-1]
                s_scale = np.max(np.abs(s.data)) / g.h**2
                assert np.max(np.abs(c)) <= 1e-13 * s_scale
                # gradient and (negative) divergence are adjoint under the
                # native quadratures
                lhs = l2_inner(grad(s), v)
                rhs = -l2_inner(s, div(v))
                scale = max(1.0, lq_norm(s, 2.0) * lq_norm(v, 2.0) / g.h)
                assert abs(lhs - rhs) <= 1e-13 * scale


def test_criterion_02_stokes_matches_dense_lu():
    with _Budget(10.0):
        grid = GridSpec(16, 16)
        rng = np.random.default_rng(102)
        for _ in range(20):
            f = _random_mac(grid, rng)
            sol = solve_stationary_stokes(f)
            assert sol.converged
            v_ref, p_ref = _dense_saddle_solve(grid, f)
            scale = max(1.0, np.max(np.abs(v_ref.ux)), np.max(np.abs(v_ref.uy)))
            assert np.max(np.abs(sol.v.ux - v_ref.ux)) <= 1e-10 * scale
            assert np.max(np.abs(sol.v.uy - v_ref.uy)) <= 1e-10 * scale
            assert np.max(np.abs(sol.p.data - p_ref)) <= 1e-10 * max(
                1.0, np.max(np.abs(p_ref))
            )


def test_criterion_03_taylor_green_analytic_decay_orders():
    with _Budget(120.0):
        # spatial ladder at a time step far below the h^2 error floor
        params = FluidParams(mu=0.02, chi=0.0, nu=0.01)
        rate = taylor_green_rate(params)
        t_end = 0.25
        spatial_errors = []
        for nx in (16, 32, 64):
            g = GridSpec(nx, nx, MODE_PERIODIC)
            cfg = StepConfig(dt=1.25e-4, scheme="imex-euler", advection="central",
                             snapshot_stride=10**9)
            final, failure = _march_to(taylor_green_state(g), t_end, cfg, params)
            assert failure is None
            assert not final.w.data.any() and not final.b.ux.any()  # stays decoupled
            exact = taylor_green_state(g, 0.5 * math.exp(-rate * t_end))
            diff = VectorField(g, final.u.ux - exact.u.ux, final.u.uy - exact.u.uy)
            spatial_errors.append(lq_norm(diff, 2.0))
        spatial_order = refinement_order(spatial_errors)

        # temporal ladder on one grid, strong diffusion so O(dt) dominates
        params_t = FluidParams(mu=0.3, chi=0.0, nu=0.01)
        rate_t = taylor_green_rate(params_t)
        t_end_t = 0.064
        g = GridSpec(64, 64, MODE_PERIODIC)
        exact_t = taylor_green_state(g, 0.5 * math.exp(-rate_t * t_end_t))
        temporal_errors = []
        for dt in (8e-3, 4e-3, 2e-3):
            cfg = StepConfig(dt=dt, scheme="imex-euler", advection="central",
                             snapshot_stride=10**9)
            final, failure = _march_to(taylor_green_state(g), t_end_t, cfg, params_t)
            assert failure is None
            diff = VectorField(g, final.u.ux - exact_t.u.ux, final.u.uy - exact_t.u.uy)
            temporal_errors.append(lq_norm(diff, 2.0))
        temporal_order = refinement_order(temporal_errors)

    assert spatial_errors[0] > spatial_errors[1] > spatial_errors[2]
    assert spatial_order >= 1.8, f"spatial order {spatial_order:.3f} < 1.8"
    assert temporal_errors[0] > temporal_errors[1] > temporal_errors[2]
    assert temporal_order >= 0.9, f"temporal order {temporal_order:.3f} < 0.9"


def test_criterion_04_manufactured_solution_orders():
    with _Budget(300.0):
        cfg = RunConfig(
            nx=32, dt=2.5e-4, t_end=0.01, recipe="trig-1",
            forcing_recipe="trig-1", advection="central",
            spatial_grids=(16, 32, 64), temporal_dts=(2e-3, 1e-3, 5e-4),
        )
        report = convergence_study(cfg)
    spatial = report["spatial"]["orders"]
    temporal = report["temporal"]["orders"]
    for field in ("u_l2", "w_l2", "b_l2"):
        assert spatial[field] >= 1.8, f"spatial {field} order {spatial[field]:.3f}"
        assert temporal[field] >= 0.9, f"temporal {field} order {temporal[field]:.3f}"
    assert report["passes"] is True


def test_criterion_05_energy_identity_and_envelope():
    with _Budget(120.0):
        params = FluidParams(mu=0.04, chi=0.01, nu=0.01)
        assert params.chi > 0.0
        residuals = []
        for dt in (2e-3, 1e-3, 5e-4):
            traj = _run("smooth-1", 48, dt, 0.04, params)
            ledger = energy_audit(traj, params)
            residuals.append(ledger.summary["max_abs_residual"])
            assert ledger.summary["envelope_checked"] == 1.0
            assert ledger.summary["envelope_ok"] == 1.0
            assert all(m >= 0.0 for m in ledger.series["margin"])  # every step
        order = refinement_order(residuals)
    assert order >= 0.9, f"residual order {order:.3f} < 0.9 under dt halving"


def test_criterion_06_w_lq_ledger_margins_and_exact_decay():
    with _Budget(60.0):
        params = FluidParams(mu=0.04, chi=0.02, nu=0.01)
        traj = _run("smooth-1", 32, 1e-3, 0.03, params, advection="upwind2")
        for q in (2.0, 4.0, 8.0):
            ledger = w_lq_audit(traj, q, params)
            assert ledger.summary["min_margin"] >= -1e-10, (
                f"q={q}: margin {ledger.summary['min_margin']:.3e}"
            )

        # with u identically zero the damping factor is exact per step
        g = GridSpec(32, 32)
        w = initial_state("smooth-1", g, params, seed=0).w
        cfg = StepConfig(dt=1e-3, scheme="imex-euler", advection="upwind2")
        factor = math.exp(-2.0 * params.chi * cfg.dt)
        expected = w.data
        for _ in range(10):
            w = step_coupled(replace(State.zeros(g), w=w), cfg, params).w
            expected = factor * expected
            assert np.array_equal(w.data, expected)


def test_criterion_07_budget_refinement_stability():
    with _Budget(600.0):
        params = FluidParams(mu=0.04, chi=0.01, nu=0.01)
        budgets = [
            gronwall_budget(_run("smooth-1", nx, 5e-4, 0.02, params))
            for nx in (32, 64, 128)
        ]
    for key in budgets[0]:
        series = [b[key] for b in budgets]
        verdict = refinement_stable(series)
        assert verdict["stable"], f"{key}: {series} (last {verdict['last_fraction']:.3f})"
        assert verdict["last_fraction"] <= 0.25


def test_criterion_08_tweighted_smoothing_of_rough_data():
    with _Budget(600.0):
        params = FluidParams(mu=0.04, chi=0.01, nu=0.02)
        audits = [
            tweighted_h2_audit(_run("rough-h1", nx, 5e-4, 0.02, params))
            for nx in (32, 64, 128)
        ]
    weighted = [a["late_sup_t_hess_b_sq"] for a in audits]
    verdict = refinement_stable(weighted)
    assert verdict["stable"], f"t-weighted Hessian budget drifts: {weighted}"
    unweighted_growth = audits[-1]["first_step_hess_b_sq"] / audits[0]["first_step_hess_b_sq"]
    assert unweighted_growth >= 2.0, (
        f"unweighted first-step Hessian grew only {unweighted_growth:.2f}x"
    )


def test_criterion_09_fixed_point_construction():
    with _Budget(300.0):
        cfg = RunConfig(nx=32, dt=1e-3, t_end=0.05, recipe="smooth-1",
                        advection="central")
        report = schauder_fixed_point(cfg)
        assert report["converged"] is True
        assert report["halvings"] == []  # contracts on the requested horizon
        assert report["ratios"] and all(r < 1.0 for r in report["ratios"])

        # the fixed point's gap to the coupled solver sits within 5x the
        # solver's own measured dt self-convergence error
        grid = grid_of(cfg)
        params = params_of(cfg)
        init = build_initial_state(cfg, grid)
        b, _ = _march_to(
            init, report["t_end"],
            step_config_of(cfg, grid, dt=cfg.dt / 2, with_forcing=False), params,
        )
        a, _ = _march_to(
            init, report["t_end"],
            step_config_of(cfg, grid, with_forcing=False), params,
        )
        selfconv = max(
            lq_norm(VectorField(grid, a.u.ux - b.u.ux, a.u.uy - b.u.uy), 2.0),
            lq_norm(ScalarField(grid, NODE, a.w.data - b.w.data), 2.0),
            lq_norm(VectorField(grid, a.b.ux - b.b.ux, a.b.uy - b.b.uy), 2.0),
        )
        assert report["coupled_l2_gap"] <= 5.0 * selfconv

        # without coupling the spin map is constant: second iterate exact
        report0 = schauder_fixed_point(replace(cfg, chi=0.0))
        assert report0["converged"] is True
        assert report0["iterations"] == 2


def test_criterion_10_continuous_dependence_scaling():
    with _Budget(300.0):
        rates = []
        for nx in (32, 64):
            cfg = RunConfig(nx=nx, dt=1e-3, t_end=0.2, recipe="smooth-1",
                            advection="central")
            report = uniqueness_probe(cfg, 1e-6)
            assert report["identically_zero"] is False
            assert 3.5 <= report["ratio_min"] <= report["ratio_max"] <= 4.5
            assert math.isfinite(report["rate_delta"])
            rates.append(report["rate_delta"])

        zero = uniqueness_probe(
            RunConfig(nx=32, dt=1e-3, t_end=0.2, recipe="smooth-1",
                      advection="central"),
            0.0,
        )
    assert zero["identically_zero"] is True
    assert all(v == 0.0 for v in zero["d_delta"])
    verdict = refinement_stable(rates)
    assert verdict["stable"], f"log-growth rate drifts across grids: {rates}"


def test_criterion_11_regularity_probe_stability():
    with _Budget(300.0):
        grids = tuple(GridSpec(n, n) for n in (16, 32, 64))
        stokes = stokes_regularity_probe(50, 2.0, grids, seed=0)
        ladder = gn_probe(50, grids, seed=0)
    assert stokes["unstable"] is False
    assert all(g <= 1.25 for g in stokes["growth_per_level"].values())
    assert ladder["unstable"] is False
    assert all(g <= 1.25 for g in ladder["growth_per_level"].values())


def test_criterion_12_weak_form_residual_convergence():
    with _Budget(300.0):
        params = FluidParams(mu=0.04, chi=0.01, nu=0.01)
        coarse = weak_form_residual(_run("smooth-1", 32, 2e-3, 0.04, params), 10, params)
        fine = weak_form_residual(_run("smooth-1", 64, 1e-3, 0.04, params), 10, params)
    assert coarse["solenoidality_max"] <= 1e-10
    assert fine["solenoidality_max"] <= 1e-10
    order = math.log2(coarse["max_residual"] / fine["max_residual"])
    assert order >= 0.9, f"combined residual order {order:.3f} < 0.9"


def test_criterion_13_determinism_and_robust_io(tmp_path):
    with _Budget(30.0):
        cfg = RunConfig(nx=24, dt=1e-3, t_end=5e-3, recipe="rough-h1", chi=0.02)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        traj = simulate_run(cfg, dir_a)
        simulate_run(cfg, dir_b)

        assert (dir_a / "diagnostics.csv").read_bytes() == (
            dir_b / "diagnostics.csv"
        ).read_bytes()
        snaps = sorted(dir_a.glob("snap_*.mmps"))
        assert snaps
        for snap in snaps:
            assert snap.read_bytes() == (dir_b / snap.name).read_bytes()
        assert read_diagnostics_csv(dir_a / "diagnostics.csv") == traj.records

        final = read_snapshot(snaps[-1])  # simulate_run streams its states to files
        assert final.t == traj.records[-1].t
        path = tmp_path / "final.mmps"
        write_snapshot(final, path)
        back = read_snapshot(path)
        assert back.t == final.t
        for mine, theirs in (
            (back.u.ux, final.u.ux), (back.u.uy, final.u.uy),
            (back.w.data, final.w.data),
            (back.b.ux, final.b.ux), (back.b.uy, final.b.uy),
            (back.p.data, final.p.data),
        ):
            assert np.array_equal(mine, theirs)

        corrupted = bytearray(path.read_bytes())
        corrupted[corrupted.index(b"\n") + 33] ^= 0x10
        bad = tmp_path / "bad.mmps"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(SnapshotChecksumError) as exc:
            read_snapshot(bad)
        assert "checksum" in str(exc.value)
