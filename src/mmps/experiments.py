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
import pickle
from dataclasses import replace
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import RunConfig, config_items
from .estimates import DiagnosticsRecord, record_fields, refinement_order
from .evolution import (
    StepConfig,
    StepError,
    Trajectory,
    _step_count,
    manufactured_forcing,
    march,
    run_simulation,
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
    records and the failure, not the states (they are in the files).  The
    record folds (``energy_audit``, ``gronwall_budget``, ``w_lq_audit`` at
    q = 4) audit it as they would the in-memory run; the audits that
    difference states refuse it, and ``final_state`` raises StepError.
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
    for _, final, *_ in _failing_as(label, march(init, t_end, cfg, params)):
        pass
    return final


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _outcome(job: tuple) -> State | Exception:
    try:
        return _final_state(*job)
    except Exception as exc:
        return exc


def _final_states(jobs: Sequence[tuple]) -> list[State]:
    """The final states of independent marches (each job the arguments of
    :func:`_final_state`) in job order, to the same bits on any CPU count.
    Horizons are checked first (StepError).  The jobs are dealt, largest
    steps x nx first, into one share per CPU and at most one per job: this
    process marches the first, a forked child each other one and pipes back
    its pickled final states or errors.  The first failing job's error is
    raised; a child that ends without its results raises ExperimentError."""
    costs = [_step_count(init.t, t_end, cfg.dt) * init.grid.nx for init, t_end, cfg, *_ in jobs]
    shares: list[list[int]] = [[] for _ in range(max(1, min(len(jobs), _cpu_count())))]
    for i in sorted(range(len(jobs)), key=lambda i: -costs[i]):
        min(shares, key=lambda share: sum(costs[j] for j in share)).append(i)

    done, children = {}, []  # children: (pid, read end, share)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child never unwinds into the caller
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump({i: _outcome(jobs[i]) for i in share}, pipe)
                finally:
                    os._exit(0)  # the parent reads the pipe, not the status
            os.close(write)
            children.append((pid, read, share))
        done.update({i: _outcome(jobs[i]) for i in shares[0]})
        for _, read, share in children:
            try:
                with open(read, "rb", closefd=False) as pipe:
                    done.update(pickle.load(pipe))
            except Exception:
                labels = ", ".join(jobs[i][-1] for i in sorted(share))
                raise ExperimentError(f"the process marching {labels} ended without a result") from None
    finally:
        for pid, read, _ in children:
            os.close(read)
            os.waitpid(pid, 0)
    finals = [done[i] for i in range(len(jobs))]
    if errors := [f for f in finals if isinstance(f, Exception)]:
        raise errors[0]
    return finals


# ---------------------------------------------------------------------------
# Fixed-point construction
# ---------------------------------------------------------------------------


def _x_norm_diff(a: Sequence[ScalarField], b: Sequence[ScalarField]) -> float:
    """Discrete C(0,T;L^4) distance: max over step times of the L^4 norm."""
    return max(
        lq_norm(ScalarField(fa.grid, NODE, fa.data - fb.data), 4.0)
        for fa, fb in zip(a, b)
    )


def _apply_spin_map(
    f_slices: Sequence[ScalarField],
    init: State,
    steps: int,
    step_cfg: StepConfig,
    params: FluidParams,
    eps: float,
) -> list[ScalarField]:
    """One application of the iteration map: a :func:`march` with the
    mollified spin iterate as each step's ``spin_force``, which drives u and
    b by the iterate and transports the spin along u.  At a fixed point this
    is the coupled stepper with a mollified body force.  The map steps
    one-step whatever the scheme of ``step_cfg``; a failed step raises
    ExperimentError."""
    euler, forces = replace(step_cfg, scheme="imex-euler"), (mollify(f, eps) for f in f_slices)
    stepped = march(init, init.t + steps * step_cfg.dt, euler, params, spin_forces=forces)
    return [init.w, *(new.w for _, new, *_ in _failing_as("fixed-point sub-solver", stepped))]


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

    steps = _step_count(init.t, cfg.t_end, base_cfg.dt)
    if steps < 1:
        raise ExperimentError(f"fixed-point horizon {cfg.t_end} must be at least one step")
    attempt_reports: list[dict] = []
    for _attempt in range(5):
        horizon = steps * base_cfg.dt
        f_slices: list[ScalarField] = [init.w for _ in range(steps + 1)]
        diffs: list[float] = []
        ratios: list[float] = []
        iterate_norms: list[float] = [lq_norm(init.w, 4.0)]
        converged = False
        for _ in range(cfg.schauder_max_iterations):
            f_next = _apply_spin_map(f_slices, init, steps, base_cfg, params, eps)
            diff = _x_norm_diff(f_next, f_slices)
            diffs.append(diff)
            iterate_norms.append(max(lq_norm(f, 4.0) for f in f_next))
            f_slices = f_next
            if len(diffs) >= 2 and diffs[-2] > 0.0:
                ratio = diffs[-1] / diffs[-2]
                ratios.append(ratio)
                if ratio >= 1.0:
                    break
            if diff <= cfg.schauder_tol:
                converged = True
                break
        attempt_reports.append(
            {
                "t_end": horizon,
                "iterations": len(diffs),
                "diffs": diffs,
                "ratios": ratios,
                "iterate_x_norms": iterate_norms,
            }
        )
        if converged or steps == 1:
            break
        steps //= 2
    # the horizon and iterates are those of the last attempt; every earlier
    # one was halved
    report = {"converged": converged, **attempt_reports[-1],
              "halvings": [a["t_end"] for a in attempt_reports[:-1]]}
    if converged:
        coupled = _final_state(init, report["t_end"], base_cfg, params, "coupled comparison run")
        gap = lq_norm(ScalarField(grid, NODE, f_slices[-1].data - coupled.w.data), 2.0)
        report.update(wstar_x_norm=iterate_norms[-1], coupled_l2_gap=gap)
    return {**report, "attempts": attempt_reports}


# ---------------------------------------------------------------------------
# Continuous dependence
# ---------------------------------------------------------------------------


def _difference(a: State, b: State) -> tuple[VectorField, ScalarField, VectorField]:
    """``b - a`` for u, w and b."""
    g = a.grid
    return (VectorField(g, b.u.ux - a.u.ux, b.u.uy - a.u.uy), ScalarField(g, NODE, b.w.data - a.w.data),
            VectorField(g, b.b.ux - a.b.ux, b.b.uy - a.b.uy))


def _separation(a: State, b: State) -> float:
    """Squared L^2 distance between two states (u, w and b)."""
    return sum(lq_norm(d, 2.0) ** 2 for d in _difference(a, b))


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

    # the three runs march in lockstep, each cut to its (new, stored) pairs, and
    # keep no trajectory: separations are taken at the start and the stored steps
    labels = ("base run", "perturbed run (delta)", "perturbed run (half)")
    starts = (init, perturbed_state(init, delta), perturbed_state(init, 0.5 * delta))
    runs = zip(*(map(itemgetter(1, 4), _failing_as(label, march(s, cfg.t_end, step_cfg, params)))
                 for label, s in zip(labels, starts)))
    stored = (tuple(new for new, _ in step) for step in runs if step[0][1])
    states = itertools.chain([starts], stored)
    rows = [(a.t, _separation(a, b), _separation(a, c)) for a, b, c in states]
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
    return dict(zip(_ERROR_KEYS, (e for d in _difference(exact, state) for e in lq_norm(d, (2.0, 4.0)))))


_ERROR_KEYS = ("u_l2", "u_l4", "w_l2", "w_l4", "b_l2", "b_l4")


def _order_table(errors: list[dict[str, float]], factor: float) -> dict[str, float]:
    return {key: refinement_order([e[key] for e in errors], refine_factor=factor)
            for key in _ERROR_KEYS}


def convergence_study(cfg: RunConfig) -> dict:
    """Manufactured-solution convergence orders.

    Spatial: the configured grid ladder at the configured (small, fixed) dt,
    errors against the analytic solution at the final time.  Temporal: the
    configured dt ladder on the configured grid, self-convergence against a
    reference run at one-eighth the smallest dt.  Each ladder refines by one
    fixed factor (``RunConfig`` refuses any other), which its fit uses.
    Reports L^2 and L^4 error tables and fitted orders per field.  The runs
    march on up to one process per available CPU (:func:`_final_states`), to
    the same bits as on one; ``taskset -c 0`` serialises a study.
    """
    if cfg.forcing_recipe is None:
        raise ExperimentError("convergence study needs forcing.recipe (an MMS recipe)")
    recipe = cfg.forcing_recipe
    params = params_of(cfg)

    dts = sorted(cfg.temporal_dts, reverse=True)
    grids = [grid_of(cfg, nx) for nx in cfg.spatial_grids]
    grid = grid_of(cfg)
    init = mms_state(recipe, 0.0, grid, params)
    temporal = [(min(dts) / 8.0, "temporal reference run"), *((dt, f"temporal run dt={dt}") for dt in dts)]
    finals = _final_states(
        [*((mms_state(recipe, 0.0, g, params), cfg.t_end, step_config_of(cfg, g), params,
            f"spatial run nx={g.nx}") for g in grids),
         *((init, cfg.t_end, step_config_of(cfg, grid, dt=dt), params, label) for dt, label in temporal)])
    spatial_errors = [_field_errors(final, mms_state(recipe, cfg.t_end, g, params))
                      for final, g in zip(finals, grids)]
    ref, *temporal_finals = finals[len(grids):]
    temporal_errors = [_field_errors(final, ref) for final in temporal_finals]

    spatial = {"grids": list(cfg.spatial_grids), "errors": spatial_errors,
               "orders": _order_table(spatial_errors, grids[1].nx / grids[0].nx)}
    temporal = {"grid": cfg.nx, "dts": dts, "errors": temporal_errors,
                "orders": _order_table(temporal_errors, dts[0] / dts[1])}
    passes = all(spatial["orders"][k] >= 1.8 and temporal["orders"][k] >= 0.9 for k in ("u_l2", "w_l2", "b_l2"))
    return {"spatial": spatial, "temporal": temporal, "passes": passes}
