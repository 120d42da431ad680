"""Span tracing of mmps from outside the package.

The tracer wraps every public function of the layer modules at each binding
a caller can use: the defining module's own attribute and every
``from ... import`` copy in the other mmps modules (``mmps.evolution.
helmholtz_solve``, ``mmps.cli.read_snapshot``, ...).  Patching only the
defining module would miss those copies.  Spans are kept in memory as
``[name, site, parent, start, end, cold, size, failed]`` lists, where
``site`` is the module whose binding was called and ``parent`` the index of
the enclosing span.  ``restore`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYER_MODULES = ("stokes", "evolution", "estimates", "fields", "recipes", "snapshots", "experiments")

NAME, SITE, PARENT, START, END, COLD, SIZE, FAILED = range(8)


def _state_bytes(state) -> int:
    return sum(
        a.nbytes for a in (state.u.ux, state.u.uy, state.w.data, state.b.ux, state.b.uy, state.p.data)
    )


def _cell_steps(args, result) -> int:
    grid = args[0].grid
    return grid.nx * grid.ny * (len(result.records) - 1)


# A cold call is the first call for its key: the key names what the
# program or SymPy caches (a SuperLU factorisation per grid and
# coefficient, the bump bank's derivatives per bank size), so cold time is
# first-call cost.  mmps passes these arguments positionally.
COLD_KEYS = {
    "stokes.helmholtz_solve": lambda args: (args[0].grid, args[1]),
    "stokes.leray_project": lambda args: args[0].grid,
    "estimates.weak_form_residual": lambda args: args[1],
}

# Work done by one call, computed from argument or result sizes.
SIZES = {
    "snapshots.write_snapshot": lambda args, result: _state_bytes(args[0]),
    "snapshots.read_snapshot": lambda args, result: _state_bytes(result),
    "evolution.run_simulation": _cell_steps,
}


class Tracer:
    """Wraps the layer functions of an imported mmps; one per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"mmps.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[obj] = f"{layer}.{attr}"
        for modname, module in list(sys.modules.items()):
            if modname != "mmps" and not modname.startswith("mmps."):
                continue
            site = modname.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(module, attr, self._wrap(obj, targets[obj], site))
                    self._patched.append((module, attr, obj))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, site: str):
        spans, stack, seen = self.spans, self._stack, self._seen
        cold_key = COLD_KEYS.get(name)
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cold = False
            if cold_key is not None:
                key = (name, cold_key(args))
                cold = key not in seen
                seen.add(key)
            span = [name, site, stack[-1] if stack else -1, 0.0, 0.0, cold, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size_of is not None:
                span[SIZE] = size_of(args, result)
            return result

        return wrapper

    def write(self, path: Path, workload: str) -> None:
        """Write the spans as JSON lines, one per span, tagged by workload."""
        keys = ("name", "site", "parent", "start", "end", "cold", "size", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"workload": workload, **dict(zip(keys, span))}) + "\n")


def _empty() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cold_calls": 0, "cold_s": 0.0,
            "size": 0, "failed": 0, "durations": []}


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name (and per ``name@site`` binding): calls, busy and self
    time, cold calls and time, summed sizes, failures and call durations.

    Busy time counts only outermost spans of a name, so recursion is not
    counted twice; self time is a span's duration minus its children's.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats: dict[str, dict] = {}
    for index, span in enumerate(spans):
        duration = span[END] - span[START]
        outermost = True
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                outermost = False
                break
            parent = spans[parent][PARENT]
        for key in (span[NAME], f"{span[NAME]}@{span[SITE]}"):
            entry = stats.setdefault(key, _empty())
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            entry["size"] += span[SIZE]
            entry["failed"] += span[FAILED]
            entry["durations"].append(duration)
            if outermost:
                entry["busy_s"] += duration
            if span[COLD]:
                entry["cold_calls"] += 1
                entry["cold_s"] += duration
    return stats


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def _get(stats: dict, key: str) -> dict:
    return stats.get(key) or _empty()


def layer_metrics(stats: dict[str, dict]) -> dict[str, dict[str, float | str]]:
    """The per-layer metrics the benchmark reports: name -> value and unit."""
    out: dict[str, dict[str, float | str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for name in ("stokes.helmholtz_solve", "stokes.leray_project"):
        entry = _get(stats, name)
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.busy_s", entry["busy_s"], "s")
        put(f"{name}.cold_calls", entry["cold_calls"], "count")
        put(f"{name}.cold_s", entry["cold_s"], "s")
    forcing = _get(stats, "recipes.mms_forcing")
    steps = _get(stats, "evolution.step_coupled")
    put("recipes.mms_forcing.calls", forcing["calls"], "count")
    put("recipes.mms_forcing.busy_s", forcing["busy_s"], "s")
    put(
        "recipes.mms_forcing.calls_per_step",
        forcing["calls"] / steps["calls"] if steps["calls"] else 0.0,
        "ratio",
    )
    for name in ("snapshots.write_snapshot", "snapshots.read_snapshot"):
        entry = _get(stats, name)
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.busy_s", entry["busy_s"], "s")
        put(f"{name}.mb", entry["size"] / 1e6, "MB")
    record = _get(stats, "estimates.diagnostics_record")
    put("estimates.diagnostics_record.calls", record["calls"], "count")
    put("estimates.diagnostics_record.self_s", record["self_s"], "s")
    for name in ("lq_norm", "samples_lq", "gradient_samples", "hessian_samples"):
        entry = _get(stats, f"fields.{name}@estimates")
        put(f"fields.{name}.calls", entry["calls"], "count")
        put(f"fields.{name}.busy_s", entry["busy_s"], "s")
    for name in ("energy_audit", "gronwall_budget", "w_lq_audit"):
        put(f"estimates.{name}.busy_s", _get(stats, f"estimates.{name}")["busy_s"], "s")
    weak = _get(stats, "estimates.weak_form_residual")
    put("estimates.weak_form_residual.busy_s", weak["busy_s"], "s")
    put("estimates.weak_form_residual.cold_s", weak["cold_s"], "s")
    put("evolution.step_coupled.calls", steps["calls"], "count")
    put("evolution.step_coupled.self_s", steps["self_s"], "s")
    put("evolution.step_coupled.p50_ms", 1e3 * _percentile(steps["durations"], 0.50), "ms")
    put("evolution.step_coupled.p95_ms", 1e3 * _percentile(steps["durations"], 0.95), "ms")
    for name in ("advect_mac", "advect_node"):
        entry = _get(stats, f"evolution.{name}")
        put(f"evolution.{name}.calls", entry["calls"], "count")
        put(f"evolution.{name}.busy_s", entry["busy_s"], "s")
    march = _get(stats, "evolution.run_simulation")
    put("evolution.run_simulation.busy_s", march["busy_s"], "s")
    put(
        "evolution.run_simulation.mcell_steps_per_s",
        march["size"] / 1e6 / march["busy_s"] if march["busy_s"] else 0.0,
        "Mcellstep/s",
    )
    put("evolution.steps_failed", steps["failed"], "count")
    put("experiments.simulate_run.self_s", _get(stats, "experiments.simulate_run")["self_s"], "s")
    put(
        "experiments.read_diagnostics_csv.busy_s",
        _get(stats, "experiments.read_diagnostics_csv")["busy_s"],
        "s",
    )
    put(
        "experiments.convergence_study.self_s",
        _get(stats, "experiments.convergence_study")["self_s"],
        "s",
    )
    return out
