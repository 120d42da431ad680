"""The benchmark's four workloads: config text generated from a seed, the
timed call into mmps, and the correctness check on what that call produced.

Nothing here imports mmps at module level, so the parent process can build
configs and read references without paying for the import.  Every call into
mmps goes through a module attribute (``cli.main``, ``evolution.run_simulation``)
so that the tracer's wrappers, installed on those attributes, see it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("wall-march", "periodic-audit", "mms-ladder", "weak-form")
DEFAULT_SEED = 0

# The two march workloads run `mmps simulate` then `mmps audit` on seeded
# rough-h1 data.  Step counts are the run length: long enough that stepping,
# not the first-call factorisations or the import, dominates, and short
# enough that several repetitions fit in one benchmark run.
MARCHES = {
    "wall-march": {
        "grid.mode": "dirichlet-square",
        "scheme.stepper": "imex-euler",
        "scheme.advection": "upwind2",
        "steps": 48,
        "output.stride": 24,
    },
    "periodic-audit": {
        "grid.mode": "periodic",
        "scheme.stepper": "imex-ab2",
        "scheme.advection": "central",
        "steps": 5,
        "output.stride": 1,
    },
}
MARCH_NX = 128
MARCH_DT = 5e-4

# crit-04's manufactured-solution ladder (grids, dts and gates) run to
# t = 0.004 instead of 0.01, the shortest end time every dt divides twice;
# its orders still clear the gates with margin.
MMS_LADDER_CONFIG = """\
grid.nx = 32
grid.mode = dirichlet-square
time.dt = 2.5e-4
time.t_end = 0.004
init.recipe = trig-1
forcing.recipe = trig-1
scheme.advection = central
convergence.spatial_grids = 16, 32, 64
convergence.temporal_dts = 2e-3, 1e-3, 5e-4
"""

# crit-12's two runs; each trajectory is audited against a bank of bumps.
# The bank has 2 bumps instead of crit-12's 10: each bump costs about a
# second of sympy, which the audit rebuilds on every call.  One bump is too
# few: the residual order check then fails.
WEAK_FORM_RUNS = ((32, 2e-3), (64, 1e-3))
WEAK_FORM_T_END = 0.04
WEAK_FORM_BANK = 2

REFERENCE_FIELDS = ("u_l2", "w_l2", "b_l2")
REFERENCE_RTOL = 1e-9


def config_texts(workload: str, seed: int) -> tuple[str, ...]:
    """The config text(s) a workload feeds to mmps, generated from ``seed``.

    Only the march workloads use the seed (as rough-h1's ``init.seed``);
    ``mms-ladder`` and ``weak-form`` run closed-form recipes.
    """
    if workload in MARCHES:
        spec = MARCHES[workload]
        return (
            f"grid.nx = {MARCH_NX}\n"
            f"grid.mode = {spec['grid.mode']}\n"
            "params.mu = 0.04\n"
            "params.chi = 0.02\n"
            "params.nu = 0.01\n"
            f"time.dt = {MARCH_DT!r}\n"
            f"time.t_end = {spec['steps'] * MARCH_DT!r}\n"
            "init.recipe = rough-h1\n"
            f"init.seed = {seed}\n"
            f"scheme.stepper = {spec['scheme.stepper']}\n"
            f"scheme.advection = {spec['scheme.advection']}\n"
            f"output.stride = {spec['output.stride']}\n",
        )
    if workload == "mms-ladder":
        return (MMS_LADDER_CONFIG,)
    if workload == "weak-form":
        return tuple(
            f"grid.nx = {nx}\n"
            "grid.mode = dirichlet-square\n"
            f"time.dt = {dt!r}\n"
            f"time.t_end = {WEAK_FORM_T_END!r}\n"
            "init.recipe = smooth-1\n"
            "scheme.advection = central\n"
            for nx, dt in WEAK_FORM_RUNS
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


@dataclass
class Prepared:
    """A workload ready to run: its config files written and parsed."""

    workload: str
    seed: int
    workdir: Path
    config_paths: tuple[Path, ...]
    configs: tuple  # parsed mmps RunConfig objects


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Write and parse the workload's configs (counted as set-up time)."""
    from mmps import config

    workdir.mkdir(parents=True, exist_ok=True)
    paths, configs = [], []
    for index, text in enumerate(config_texts(workload, seed)):
        path = workdir / f"config{index}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        configs.append(config.parse_config(text))
    return Prepared(workload, seed, workdir, tuple(paths), tuple(configs))


def run(prep: Prepared) -> dict:
    """The timed region: from the first call into mmps to its verdict."""
    if prep.workload in MARCHES:
        from mmps import cli

        args = ["--config", str(prep.config_paths[0]), "--out", str(prep.workdir / "run")]
        simulate = cli.main(["simulate", *args])
        audit = cli.main(["audit", *args]) if simulate == 0 else None
        return {"simulate_exit": simulate, "audit_exit": audit}
    if prep.workload == "mms-ladder":
        from mmps import cli

        out = prep.workdir / "run"
        code = cli.main(["convergence", "--config", str(prep.config_paths[0]), "--out", str(out)])
        return {"exit": code}
    from mmps import estimates, evolution, experiments

    reports, failures = [], []
    for cfg in prep.configs:
        grid = experiments.grid_of(cfg)
        params = experiments.params_of(cfg)
        traj = evolution.run_simulation(
            experiments.build_initial_state(cfg, grid),
            cfg.t_end,
            experiments.step_config_of(cfg, grid),
            params,
        )
        failures.append(traj.failure)
        reports.append(estimates.weak_form_residual(traj, WEAK_FORM_BANK, params))
    return {"failures": failures, "reports": reports}


def _check_diagnostics(csv_path: Path, steps: int) -> tuple[list[str], list[float]]:
    """Header and last row of diagnostics.csv, after checking the row count
    and that every value is finite."""
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if len(body) != steps + 1:
        raise CheckFailure(f"diagnostics.csv has {len(body)} rows, expected {steps + 1}")
    for number, row in enumerate(body, start=1):
        values = [float(v) for v in row]
        if len(values) != len(header) or not all(math.isfinite(v) for v in values):
            raise CheckFailure(f"diagnostics.csv row {number} is short or not finite")
    return header, [float(v) for v in body[-1]]


class CheckFailure(Exception):
    """A workload's output is wrong."""


def last_row(prep: Prepared) -> dict[str, float]:
    """The reference fields of a march workload's last diagnostics row."""
    steps = MARCHES[prep.workload]["steps"]
    header, row = _check_diagnostics(prep.workdir / "run" / "diagnostics.csv", steps)
    return {name: row[header.index(name)] for name in REFERENCE_FIELDS}


def check(prep: Prepared, outcome: dict, reference: dict) -> None:
    """Raise CheckFailure unless the workload's output is correct.

    ``reference`` maps march workloads to last-row values for DEFAULT_SEED.
    """
    if prep.workload in MARCHES:
        if outcome["simulate_exit"] != 0 or outcome["audit_exit"] != 0:
            raise CheckFailure(
                f"simulate exit {outcome['simulate_exit']}, audit exit {outcome['audit_exit']}"
            )
        got = last_row(prep)
        if prep.seed == DEFAULT_SEED:
            want = reference[prep.workload]
            for name in REFERENCE_FIELDS:
                if not math.isclose(got[name], want[name], rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                    raise CheckFailure(
                        f"last {name} = {got[name]!r}, reference {want[name]!r}"
                    )
        return
    if prep.workload == "mms-ladder":
        if outcome["exit"] != 0:
            raise CheckFailure(f"convergence exit {outcome['exit']}")
        text = (prep.workdir / "run" / "convergence.txt").read_text(encoding="utf-8")
        gates = {"spatial": 1.8, "temporal": 0.9}
        for line in text.splitlines():
            part, _, rest = line.partition(": ")
            if part not in gates:
                continue
            orders = dict(item.split("=") for item in rest.split())
            for name in REFERENCE_FIELDS:
                if not float(orders[name]) >= gates[part]:
                    raise CheckFailure(f"{part} {name} order {orders[name]} < {gates[part]}")
            del gates[part]
        if gates:
            raise CheckFailure(f"convergence.txt lacks {sorted(gates)} orders")
        return
    if any(failure is not None for failure in outcome["failures"]):
        raise CheckFailure(f"weak-form run aborted: {outcome['failures']}")
    coarse, fine = outcome["reports"]
    for report in (coarse, fine):
        if not report["solenoidality_max"] <= 1e-10:
            raise CheckFailure(f"solenoidality_max {report['solenoidality_max']!r} > 1e-10")
    order = math.log2(coarse["max_residual"] / fine["max_residual"])
    if not order >= 0.9:
        raise CheckFailure(f"weak-form residual order {order:.3f} < 0.9")
