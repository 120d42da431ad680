"""Command-line surface.

Subcommands: simulate, schauder, uniqueness, convergence, stokes-selftest,
gn-probe, audit.  Each accepts --config PATH, --out DIR and an optional
--seed N (overriding the config's seed).  Exit status: 0 on success, 1 when
a run or audit fails its checks, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterator

from .config import ConfigError, RunConfig, config_items, load_config, with_seed
from .estimates import (
    BudgetFold,
    EstimateError,
    EstimateLedger,
    LqLedgerFold,
    energy_audit,
    fold_stored_pairs,
    gn_probe,
    gronwall_budget,
    w_lq_audit,
)
from .evolution import StepError, Trajectory
from .experiments import (
    ExperimentError,
    convergence_study,
    grid_of,
    params_of,
    read_diagnostics_csv,
    schauder_fixed_point,
    simulate_run,
    step_config_of,
    uniqueness_probe,
)
from .fields import FieldError, GridSpec, State, VectorField, perp_grad
from .recipes import RecipeError
from .snapshots import SnapshotError, read_snapshot
from .stokes import SolverError, probe_scalar, solve_stationary_stokes, stokes_regularity_probe

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmps",
        description="Micropolar-MHD simulator and estimate-audit harness.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, needs_config in (
        ("simulate", True),
        ("schauder", True),
        ("uniqueness", True),
        ("convergence", True),
        ("stokes-selftest", False),
        ("gn-probe", False),
        ("audit", True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="path to a run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override init.seed")
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return with_seed(cfg, args.seed)


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    traj = simulate_run(cfg, out)
    last = traj.records[-1]
    print(
        f"simulate: {len(traj.records) - 1} steps to t={last.t:g}, "
        f"|u|={last.u_l2:.6g} |w|={last.w_l2:.6g} |b|={last.b_l2:.6g}"
    )
    if traj.failure is not None:
        print(f"simulate: aborted early: {traj.failure}")
        return 1
    return 0


def _cmd_schauder(cfg: RunConfig, out: Path) -> int:
    report = schauder_fixed_point(cfg)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"converged = {report['converged']}",
        f"t_end = {report['t_end']!r}",
        f"iterations = {report['iterations']}",
        f"halvings = {len(report['halvings'])}",
        f"wstar_x_norm = {report.get('wstar_x_norm', float('nan'))!r}",
        f"coupled_l2_gap = {report.get('coupled_l2_gap', float('nan'))!r}",
        "diffs = " + ", ".join(repr(d) for d in report["diffs"]),
        "ratios = " + ", ".join(repr(r) for r in report["ratios"]),
    ]
    (out / "schauder.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print("schauder:", line)
    return 0 if report["converged"] else 1


def _cmd_uniqueness(cfg: RunConfig, out: Path) -> int:
    report = uniqueness_probe(cfg, cfg.delta)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["t,d_delta,d_half,ratio"]
    for t, d1, d2, r in zip(
        report["times"], report["d_delta"], report["d_half"], report["ratios"]
    ):
        rows.append(f"{t!r},{d1!r},{d2!r},{r!r}")
    (out / "uniqueness.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(
        f"uniqueness: delta={report['delta']:g} rate={report['rate_delta']:.6g} "
        f"ratio range [{report['ratio_min']:.3g}, {report['ratio_max']:.3g}] "
        f"zero={report['identically_zero']}"
    )
    return 0


def _cmd_convergence(cfg: RunConfig, out: Path) -> int:
    report = convergence_study(cfg)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for part in ("spatial", "temporal"):
        orders = report[part]["orders"]
        lines.append(
            f"{part}: " + " ".join(f"{k}={orders[k]:.3f}" for k in sorted(orders))
        )
    lines.append(f"passes = {report['passes']}")
    (out / "convergence.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print("convergence:", line)
    return 0 if report["passes"] else 1


def _cmd_stokes_selftest(cfg: RunConfig, out: Path) -> int:
    grid = GridSpec(16, 16)
    worst = 0.0
    for sample in range(5):
        w = probe_scalar(grid, cfg.seed, sample, 1.3)
        pg = perp_grad(w)
        f = VectorField(grid, -pg.ux, -pg.uy)
        sol = solve_stationary_stokes(f)
        worst = max(worst, sol.residual)
        if not sol.converged:
            print(f"stokes-selftest: solve {sample} failed, residual {sol.residual:g}")
            return 1
    probe = stokes_regularity_probe(10, 2.0, (16, 32), seed=cfg.seed)
    print(
        f"stokes-selftest: max saddle residual {worst:.3g}, "
        f"regularity growth {probe['growth_per_level']}, unstable={probe['unstable']}"
    )
    return 1 if probe["unstable"] else 0


def _cmd_gn_probe(cfg: RunConfig, out: Path) -> int:
    grids = tuple(GridSpec(n, n) for n in cfg.spatial_grids)
    report = gn_probe(50, grids, seed=cfg.seed)
    for level in report["levels"]:
        print(
            "gn-probe: nx={nx} r1={ratio1:.4f} r2={ratio2:.4f} "
            "r3={ratio3:.4f} r4={ratio4:.4f}".format(**level)
        )
    print(f"gn-probe: growth {report['growth_per_level']} unstable={report['unstable']}")
    return 1 if report["unstable"] else 0


class _Mismatch(Exception):
    """The run on disk is not the one the config describes."""


def _check_manifest(cfg: RunConfig, out: Path) -> None:
    """``run.json``, which ``simulate`` writes when a run ends, must hold
    every key of ``cfg`` with the same value, and no failure."""
    path = out / "run.json"
    if not path.exists():
        raise _Mismatch("there is no run.json (simulate writes it when a run ends)")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        stored, failure = dict(manifest["config"]), manifest["failure"]
    except (ValueError, KeyError, TypeError) as exc:
        raise _Mismatch(f"run.json is not a run manifest ({exc!r})") from exc
    for key, value in config_items(cfg).items():
        if key not in stored or stored[key] != value:
            have = repr(stored[key]) if key in stored else "no value"
            raise _Mismatch(f"run.json has {key} = {have}, the config has {value!r}")
    if failure is not None:
        raise _Mismatch(f"the run aborted: {failure}")


def _check_rows(cfg: RunConfig, records) -> None:
    """A completed run has ``round(t_end/dt) + 1`` diagnostics rows spaced
    ``dt`` and ending at ``t_end``; an aborted run stops short of ``t_end``."""
    steps = int(round(cfg.t_end / cfg.dt))
    times = [r.t for r in records]
    if len(times) != steps + 1:
        raise _Mismatch(
            f"diagnostics.csv has {len(times)} rows, but time.t_end = {cfg.t_end:g} "
            f"with time.dt = {cfg.dt:g} needs {steps + 1}"
        )
    if abs(times[-1] - cfg.t_end) > 1e-8 * max(cfg.t_end, cfg.dt):
        raise _Mismatch(f"the last row is at t = {times[-1]:g}, not time.t_end = {cfg.t_end:g}")
    for a, b in zip(times, times[1:]):
        if abs((b - a) - cfg.dt) > 1e-6 * cfg.dt:
            raise _Mismatch(f"rows at t = {a:g} and {b:g} are not time.dt = {cfg.dt:g} apart")


def _stored_states(paths, grid: GridSpec, records) -> Iterator[tuple[float, State]]:
    """Read each snapshot once and check it before yielding it: on the
    config's grid, at a row's time, after the one before.  The last must
    hold the last row's state (the final state is always stored), so files
    left by another run are refused."""
    row_times = {r.t for r in records}
    last = None
    for path in paths:
        state = read_snapshot(path)
        t = state.t
        if state.grid != grid:
            raise _Mismatch(
                f"the snapshot at t = {t:g} has nx = {state.grid.nx}, mode = {state.grid.mode}; "
                f"the config has grid.nx = {grid.nx}, grid.mode = {grid.mode}"
            )
        if t not in row_times:
            raise _Mismatch(f"a snapshot is at t = {t!r}, which is no diagnostics row's time")
        if last is not None and t <= last:
            raise _Mismatch(f"the snapshot at t = {t!r} follows one at t = {last!r}")
        last = t
        yield t, state
    if last != records[-1].t:
        raise _Mismatch(f"no snapshot holds the last row's state (t = {records[-1].t!r})")


def _fold_ledgers(
    cfg: RunConfig, out: Path, traj: Trajectory
) -> tuple[dict, EstimateLedger | EstimateError]:
    """The budget and the L^4 ledger (or why it is skipped) of the run under
    ``out``.  One pass over the snapshots feeds both folds: each file is read
    once, checked, and dropped after its pair.  ``gronwall_budget`` and
    ``w_lq_audit`` then finish the folds they are handed."""
    paths = sorted(out.glob("snap_*.mmps"))
    records, params = traj.records, traj.params
    budget = BudgetFold(records)
    try:
        lq: LqLedgerFold | EstimateError = LqLedgerFold(
            records, len(paths), 4.0, cfg.advection, params)
    except EstimateError as exc:
        lq = exc
    folds = (budget,) if isinstance(lq, EstimateError) else (budget, lq)
    fold_stored_pairs(_stored_states(paths, grid_of(cfg), records), *folds)
    if not isinstance(lq, EstimateError):
        lq = w_lq_audit(traj, 4.0, params, fed=lq)
    return gronwall_budget(traj, params, fed=budget), lq


def _cmd_audit(cfg: RunConfig, out: Path) -> int:
    csv_path = out / "diagnostics.csv"
    if not csv_path.exists():
        print(f"audit: no diagnostics.csv under {out}", file=sys.stderr)
        return 2
    records = read_diagnostics_csv(csv_path)
    params = params_of(cfg)
    try:
        _check_manifest(cfg, out)
        _check_rows(cfg, records)
        traj = Trajectory(states=(), records=records,
                          cfg=step_config_of(cfg, grid_of(cfg)), params=params)
        budget, lq = _fold_ledgers(cfg, out, traj)
    except _Mismatch as exc:
        print(f"audit: the config does not describe the run under {out}: {exc}",
              file=sys.stderr)
        return 1
    ledger = energy_audit(traj, params)
    print(
        "audit: max|energy residual| = {max_abs_residual:.6g}, "
        "envelope_ok = {envelope_ok:g} (checked = {envelope_checked:g})".format(
            **ledger.summary
        )
    )
    print(f"audit: budget total = {budget['total']:.6g}")
    failed = ledger.summary["envelope_checked"] == 1.0 and ledger.summary["envelope_ok"] != 1.0
    if isinstance(lq, EstimateError):
        print(f"audit: L4 ledger skipped ({lq})")
    else:
        print(
            "audit: L4 ledger min margin = {min_margin:.6g}, "
            "max slack = {max_scheme_slack:.6g}".format(**lq.summary)
        )
    return 1 if failed else 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "schauder": _cmd_schauder,
    "uniqueness": _cmd_uniqueness,
    "convergence": _cmd_convergence,
    "stokes-selftest": _cmd_stokes_selftest,
    "gn-probe": _cmd_gn_probe,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.command is None:
        parser.print_usage()
        return 2
    try:
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, Path(args.out))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"mmps: {exc}", file=sys.stderr)
        return 2
    except (
        ExperimentError,
        EstimateError,
        StepError,
        SolverError,
        SnapshotError,
        RecipeError,
        FieldError,
    ) as exc:
        print(f"mmps: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
