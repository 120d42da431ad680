"""Experiment drivers: fixed-point construction, continuous-dependence
probe, convergence studies, and the CSV/snapshot plumbing they share.

All drivers are deterministic: the same configuration and seed produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import RunConfig, config_items
from .estimates import DiagnosticsRecord, record_fields, refinement_order
from .evolution import (
    StepConfig,
    StepError,
    Trajectory,
    _Carry,
    manufactured_forcing,
    march,
    run_simulation,
    step_coupled,
)
from .fields import (
    FluidParams,
    GridSpec,
    NODE,
    ScalarField,
    State,
    VectorField,
    lq_norm,
)
from .recipes import initial_state, mms_state, mollify, perturbed_state
from .snapshots import atomic_open, write_snapshot

__all__ = [
    "ExperimentError",
    "grid_of",
    "params_of",
    "step_config_of",
    "build_initial_state",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "simulate_run",
    "schauder_fixed_point",
    "uniqueness_probe",
    "convergence_study",
]


class ExperimentError(RuntimeError):
    """An experiment driver could not complete."""


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def grid_of(cfg: RunConfig, nx: int | None = None) -> GridSpec:
    n = cfg.nx if nx is None else nx
    return GridSpec(n, n, cfg.mode)


def params_of(cfg: RunConfig) -> FluidParams:
    return FluidParams(mu=cfg.mu, chi=cfg.chi, nu=cfg.nu)


def step_config_of(
    cfg: RunConfig,
    grid: GridSpec,
    dt: float | None = None,
    with_forcing: bool = True,
) -> StepConfig:
    forcing = None
    if with_forcing and cfg.forcing_recipe is not None:
        forcing = manufactured_forcing(cfg.forcing_recipe, params_of(cfg), grid)
    return StepConfig(
        dt=cfg.dt if dt is None else dt,
        scheme=cfg.scheme,
        advection=cfg.advection,
        cfl_limit=cfg.cfl_limit,
        forcing=forcing,
        snapshot_stride=cfg.stride,
    )


def build_initial_state(cfg: RunConfig, grid: GridSpec) -> State:
    return initial_state(cfg.recipe, grid, params_of(cfg), seed=cfg.seed)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def write_diagnostics_csv(records: Sequence[DiagnosticsRecord], path: str | os.PathLike) -> None:
    """Header then one row per record, shortest round-trip decimals; atomically
    replaces ``path``."""
    names = record_fields()
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for record in records:
            writer.writerow(repr(getattr(record, name)) for name in names)


def read_diagnostics_csv(path: str | os.PathLike) -> tuple[DiagnosticsRecord, ...]:
    names = record_fields()
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != names:
            raise ExperimentError(f"{path}: unexpected diagnostics header {header}")
        for row in reader:
            if len(row) != len(names):
                raise ExperimentError(f"{path}: short diagnostics row {row}")
            values = {}
            for name, cell in zip(names, row):
                try:
                    values[name] = float(cell)
                except ValueError:
                    raise ExperimentError(f"{path}: line {reader.line_num}, column {name}: "
                                          f"{cell!r} is not a number") from None
            out.append(DiagnosticsRecord(**values))
    return tuple(out)


def simulate_run(cfg: RunConfig, out_dir: str | os.PathLike) -> Trajectory:
    """Run the configured simulation into ``out_dir``: one
    ``snap_XXXXXX.mmps`` per stored state, written as the march yields it,
    then ``diagnostics.csv`` and the ``run.json`` manifest (the config's
    keys and values, the steps completed and the ``failure`` string).

    The earlier run's snapshots, CSV and manifest there are removed first,
    so an interrupted run never leaves files that audit as another run.  The
    run holds two states at a time; the returned trajectory carries the
    records and the failure, not the states (they are in the files), so
    the audits that difference states refuse it and ``final_state`` raises
    StepError: ``mmps audit`` reads the files instead.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in (*out.glob("snap_*.mmps"), out / "diagnostics.csv", out / "run.json"):
        stale.unlink(missing_ok=True)
    grid = grid_of(cfg)
    params = params_of(cfg)
    index = itertools.count()

    def store(state: State) -> None:
        write_snapshot(state, out / f"snap_{next(index):06d}.mmps")

    traj = run_simulation(build_initial_state(cfg, grid), cfg.t_end,
                          step_config_of(cfg, grid), params, sink=store)
    write_diagnostics_csv(traj.records, out / "diagnostics.csv")
    manifest = {
        "config": config_items(cfg),
        "steps_completed": len(traj.records) - 1,
        "failure": traj.failure,
    }
    with atomic_open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return traj


def _failing_as(label: str, steps: Iterator) -> Iterator:
    """A march's steps; a failed step raises ExperimentError "<label> failed: ..."."""
    try:
        yield from steps
    except StepError as exc:
        raise ExperimentError(f"{label} failed: {exc}") from exc


def _final_state(
    init: State, t_end: float, cfg: StepConfig, params: FluidParams, label: str
) -> State:
    """The last state of a record-free march (a bad horizon raises StepError)."""
    final = init
    for _, final, _ in _failing_as(label, march(init, t_end, cfg, params)):
        pass
    return final


# ---------------------------------------------------------------------------
# Fixed-point construction
# ---------------------------------------------------------------------------


def _x_norm_diff(a: Sequence[ScalarField], b: Sequence[ScalarField]) -> float:
    """Discrete C(0,T;L^4) distance: max over step times of the L^4 norm."""
    return max(
        lq_norm(ScalarField(fa.grid, NODE, fa.data - fb.data), 4.0)
        for fa, fb in zip(a, b)
    )


def _x_norm(a: Sequence[ScalarField]) -> float:
    return max(lq_norm(f, 4.0) for f in a)


def _apply_spin_map(
    f_slices: Sequence[ScalarField],
    init: State,
    steps: int,
    step_cfg: StepConfig,
    params: FluidParams,
    eps: float,
) -> list[ScalarField]:
    """One application of the iteration map: steps of ``step_coupled`` with
    the mollified spin iterate as ``spin_force``, which drive u and b by the
    iterate and transport the spin along u.  At a fixed point this is the
    coupled stepper with a mollified body force.  The map steps one-step
    whatever the scheme of ``step_cfg``, on one carry (one solve plan)."""
    euler, carry = replace(step_cfg, scheme="imex-euler"), _Carry()
    state, out = init, [init.w]
    for k in range(steps):
        new = step_coupled(state, euler, params, carry=carry,
                           spin_force=mollify(f_slices[k], eps))
        state = replace(new, t=init.t + (k + 1) * step_cfg.dt)
        out.append(state.w)
    return out


def schauder_fixed_point(cfg: RunConfig) -> dict:
    """Iterate the mollified spin map to its fixed point.

    Starts from the constant-in-time extension of the initial spin field,
    iterates f -> (spin trajectory under velocity driven by mollified f)
    until the discrete max-in-time L^4 distance drops below the configured
    tolerance, and halves the horizon (up to 4 times) whenever the iteration
    fails to contract.  The report carries the iterate distances and their
    ratios, the fixed point's max-in-time L^4 size, and the L^2 gap at the
    final time against a fully coupled run from the same data.
    """
    grid = grid_of(cfg)
    params = params_of(cfg)
    init = build_initial_state(cfg, grid)
    eps = cfg.epsilon if cfg.epsilon is not None else 2.0 * grid.h
    base_cfg = step_config_of(cfg, grid, with_forcing=False)

    steps = int(round(cfg.t_end / base_cfg.dt))
    if steps < 1 or abs(steps * base_cfg.dt - cfg.t_end) > 1e-8 * cfg.t_end:
        raise ExperimentError(
            f"fixed-point horizon {cfg.t_end} must be a whole number of steps of dt={base_cfg.dt}"
        )
    halvings: list[float] = []
    attempt_reports: list[dict] = []
    for _attempt in range(5):
        horizon = steps * base_cfg.dt
        f_slices: list[ScalarField] = [init.w for _ in range(steps + 1)]
        diffs: list[float] = []
        ratios: list[float] = []
        iterate_norms: list[float] = [_x_norm(f_slices)]
        converged = False
        try:
            for _ in range(cfg.schauder_max_iterations):
                f_next = _apply_spin_map(f_slices, init, steps, base_cfg, params, eps)
                diff = _x_norm_diff(f_next, f_slices)
                diffs.append(diff)
                iterate_norms.append(_x_norm(f_next))
                f_slices = f_next
                if len(diffs) >= 2 and diffs[-2] > 0.0:
                    ratio = diffs[-1] / diffs[-2]
                    ratios.append(ratio)
                    if ratio >= 1.0:
                        break
                if diff <= cfg.schauder_tol:
                    converged = True
                    break
        except StepError as exc:
            raise ExperimentError(f"fixed-point sub-solver failed: {exc}") from exc
        attempt_reports.append(
            {
                "t_end": horizon,
                "iterations": len(diffs),
                "diffs": diffs,
                "ratios": ratios,
                "iterate_x_norms": iterate_norms,
            }
        )
        if converged:
            coupled = _final_state(init, horizon, base_cfg, params, "coupled comparison run")
            gap = lq_norm(ScalarField(grid, NODE, f_slices[-1].data - coupled.w.data), 2.0)
            return {
                "converged": True,
                "t_end": horizon,
                "halvings": halvings,
                "iterations": len(diffs),
                "diffs": diffs,
                "ratios": ratios,
                "iterate_x_norms": iterate_norms,
                "wstar_x_norm": _x_norm(f_slices),
                "coupled_l2_gap": gap,
                "attempts": attempt_reports,
            }
        halvings.append(horizon)
        if steps == 1:
            break
        steps = max(1, steps // 2)
    return {
        "converged": False,
        "t_end": steps * base_cfg.dt,
        "halvings": halvings,
        "attempts": attempt_reports,
        "iterations": attempt_reports[-1]["iterations"],
        "diffs": attempt_reports[-1]["diffs"],
        "ratios": attempt_reports[-1]["ratios"],
        "iterate_x_norms": attempt_reports[-1]["iterate_x_norms"],
    }


# ---------------------------------------------------------------------------
# Continuous dependence
# ---------------------------------------------------------------------------


def _separation(a: State, b: State) -> float:
    """Squared L^2 distance between two states (u, w and b)."""
    du = VectorField(a.grid, b.u.ux - a.u.ux, b.u.uy - a.u.uy)
    dw = ScalarField(a.grid, NODE, b.w.data - a.w.data)
    db = VectorField(a.grid, b.b.ux - a.b.ux, b.b.uy - a.b.uy)
    return lq_norm(du, 2.0) ** 2 + lq_norm(dw, 2.0) ** 2 + lq_norm(db, 2.0) ** 2


def _fit_log_rate(times: Sequence[float], values: Sequence[float]) -> float:
    pairs = [(t, v) for t, v in zip(times, values) if v > 0.0]
    if len(pairs) < 2:
        return 0.0
    ts = np.array([p[0] for p in pairs])
    logs = np.log(np.array([p[1] for p in pairs]))
    return float(np.polyfit(ts, logs, 1)[0])


def uniqueness_probe(cfg: RunConfig, delta: float) -> dict:
    """Continuous-dependence probe: evolve the configured data and the same
    data perturbed by ``delta`` times a fixed unit-norm smooth perturbation
    (and by ``delta/2``), and report the squared L^2 separation D(t), its
    fitted exponential rate, and the first-order scaling ratios
    D_delta / D_{delta/2} (which sit near 4 in the linear regime).

    ``delta = 0`` reports an identically zero separation, bit-exactly.
    """
    if delta < 0.0:
        raise ExperimentError(f"delta must be >= 0, got {delta}")
    grid = grid_of(cfg)
    params = params_of(cfg)
    init = build_initial_state(cfg, grid)
    step_cfg = step_config_of(cfg, grid)

    # the three runs march in lockstep and keep no trajectory: separations
    # are taken at the snapshot stride and at the final time
    labels = ("base run", "perturbed run (delta)", "perturbed run (half)")
    starts = (init, perturbed_state(init, delta), perturbed_state(init, 0.5 * delta))
    runs = zip(*(_failing_as(label, march(s, cfg.t_end, step_cfg, params))
                 for label, s in zip(labels, starts)))

    def sampled() -> Iterator[tuple[State, ...]]:
        yield starts
        k, states = 0, starts
        for k, steps in enumerate(runs, 1):
            states = tuple(new for _, new, _ in steps)
            if k % step_cfg.snapshot_stride == 0:
                yield states
        if k % step_cfg.snapshot_stride:
            yield states

    rows = [(a.t, _separation(a, b), _separation(a, c)) for a, b, c in sampled()]
    times, d_delta, d_half = (list(column) for column in zip(*rows))
    ratios = [a / b if b > 0.0 else math.nan for a, b in zip(d_delta, d_half)]
    finite = [r for r in ratios if math.isfinite(r)]
    return {
        "delta": delta,
        "d_delta": d_delta,
        "rate_delta": _fit_log_rate(times, d_delta),
        "times": times,
        "d_half": d_half,
        "rate_half": _fit_log_rate(times, d_half),
        "ratios": ratios,
        "identically_zero": all(v == 0.0 for v in d_delta),
        "ratio_min": min(finite, default=math.nan),
        "ratio_max": max(finite, default=math.nan),
    }


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


def _field_errors(state: State, exact: State) -> dict[str, float]:
    g = state.grid
    du = VectorField(g, state.u.ux - exact.u.ux, state.u.uy - exact.u.uy)
    dw = ScalarField(g, NODE, state.w.data - exact.w.data)
    db = VectorField(g, state.b.ux - exact.b.ux, state.b.uy - exact.b.uy)
    return {
        "u_l2": lq_norm(du, 2.0),
        "u_l4": lq_norm(du, 4.0),
        "w_l2": lq_norm(dw, 2.0),
        "w_l4": lq_norm(dw, 4.0),
        "b_l2": lq_norm(db, 2.0),
        "b_l4": lq_norm(db, 4.0),
    }


_ERROR_KEYS = ("u_l2", "u_l4", "w_l2", "w_l4", "b_l2", "b_l4")


def _ladder_factor(label: str, ratios: list[float]) -> float:
    """The factor every level of a ladder refines by (``ratios``: coarse
    over fine, level by level); ExperimentError unless one, above 1."""
    factor = ratios[0]
    if not factor > 1.0 or any(abs(r - factor) > 1e-9 * factor for r in ratios[1:]):
        raise ExperimentError(f"{label} ladder must refine by a fixed factor > 1, got {ratios}")
    return factor


def _order_table(errors: list[dict[str, float]], factor: float) -> dict[str, float]:
    return {key: refinement_order([e[key] for e in errors], refine_factor=factor)
            for key in _ERROR_KEYS}


def convergence_study(cfg: RunConfig) -> dict:
    """Manufactured-solution convergence orders.

    Spatial: the configured grid ladder at the configured (small, fixed) dt,
    errors against the analytic solution at the final time.  Temporal: the
    configured dt ladder on the configured grid, self-convergence against a
    reference run at one-eighth the smallest dt.  Each ladder must refine by
    one fixed factor, which its fit uses.  Reports L^2 and L^4 error tables
    and fitted orders per field.
    """
    if cfg.forcing_recipe is None:
        raise ExperimentError("convergence study needs forcing.recipe (an MMS recipe)")
    if len(cfg.spatial_grids) < 3:
        raise ExperimentError("convergence ladder too short: need >= 3 spatial grids")
    recipe = cfg.forcing_recipe
    params = params_of(cfg)

    spatial_errors: list[dict[str, float]] = []
    for nx in cfg.spatial_grids:
        grid = grid_of(cfg, nx)
        init = mms_state(recipe, 0.0, grid, params)
        step_cfg = step_config_of(cfg, grid)
        final = _final_state(init, cfg.t_end, step_cfg, params, f"spatial run nx={nx}")
        exact = mms_state(recipe, cfg.t_end, grid, params)
        spatial_errors.append(_field_errors(final, exact))

    dts = sorted(cfg.temporal_dts, reverse=True)
    dt_factor = _ladder_factor("temporal dt", [a / b for a, b in zip(dts, dts[1:])])
    grid = grid_of(cfg)
    init = mms_state(recipe, 0.0, grid, params)
    ref_cfg = step_config_of(cfg, grid, dt=min(dts) / 8.0)
    ref = _final_state(init, cfg.t_end, ref_cfg, params, "temporal reference run")
    temporal_errors: list[dict[str, float]] = []
    for dt in dts:
        step_cfg = step_config_of(cfg, grid, dt=dt)
        final = _final_state(init, cfg.t_end, step_cfg, params, f"temporal run dt={dt}")
        temporal_errors.append(_field_errors(final, ref))
    grids = cfg.spatial_grids
    h_factor = _ladder_factor("spatial grid", [b / a for a, b in zip(grids, grids[1:])])

    report = {
        "spatial": {
            "grids": list(cfg.spatial_grids),
            "errors": spatial_errors,
            "orders": _order_table(spatial_errors, h_factor),
        },
        "temporal": {
            "grid": cfg.nx,
            "dts": dts,
            "errors": temporal_errors,
            "orders": _order_table(temporal_errors, dt_factor),
        },
    }
    l2_spatial = [report["spatial"]["orders"][k] for k in ("u_l2", "w_l2", "b_l2")]
    l2_temporal = [report["temporal"]["orders"][k] for k in ("u_l2", "w_l2", "b_l2")]
    report["passes"] = bool(
        all(o >= 1.8 for o in l2_spatial) and all(o >= 0.9 for o in l2_temporal)
    )
    return report
