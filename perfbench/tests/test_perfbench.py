"""Tests of the benchmark itself: config generation, the tracer, the
correctness gate and the run's refusal to start without the sources.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Each traced layer and the workload on which it does most of its work.
BUSIEST = {
    "stokes.helmholtz_solve": "wall-march",
    "stokes.leray_project": "wall-march",
    "recipes.mms_forcing": "mms-ladder",
    "snapshots.write_snapshot": "periodic-audit",
    "snapshots.read_snapshot": "periodic-audit",
    "estimates.diagnostics_record": "wall-march",
    "fields.lq_norm@estimates": "wall-march",
    "fields.samples_lq@estimates": "wall-march",
    "fields.gradient_samples@estimates": "wall-march",
    "fields.hessian_samples@estimates": "wall-march",
    "estimates.energy_audit": "periodic-audit",
    "estimates.gronwall_budget": "periodic-audit",
    "estimates.w_lq_audit": "periodic-audit",
    "estimates.weak_form_residual": "weak-form",
    "evolution.step_coupled": "wall-march",
    "evolution.advect_mac": "wall-march",
    "evolution.advect_node": "wall-march",
    "evolution.run_simulation": "wall-march",
    "experiments.simulate_run": "periodic-audit",
    "experiments.read_diagnostics_csv": "periodic-audit",
    "experiments.convergence_study": "mms-ladder",
}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {
        workload: run.run_repetition(workload, workloads.DEFAULT_SEED, trace=True)
        for workload in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_config_text_is_deterministic_per_seed(workload):
    from mmps.config import parse_config

    texts = workloads.config_texts(workload, 7)
    assert texts == workloads.config_texts(workload, 7)
    for text in texts:
        parse_config(text)
    if workload in workloads.MARCHES:
        assert "init.seed = 7\n" in texts[0]
        assert texts != workloads.config_texts(workload, 8)
    else:
        assert texts == workloads.config_texts(workload, 8)


@pytest.mark.parametrize("layer", sorted(BUSIEST))
def test_traced_run_counts_calls_on_busiest_workload(traced, layer):
    result = traced[BUSIEST[layer]]
    assert result["ok"], result["reason"]
    assert result["layers"][layer]["calls"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.MARCHES))
def test_march_workloads_make_no_forcing_calls(traced, workload):
    assert traced[workload]["metrics"]["recipes.mms_forcing.calls"]["value"] == 0


def test_benchmark_lists_every_reported_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    reported = {name: m["unit"] for name, m in tracer.layer_metrics({}).items()}
    reported.update({
        "trace.run_s": "s", "trace.overhead_frac": "ratio", "run.wall_s": "s", "host.speed_kernel_ms": "ms",
    })
    assert {m["name"]: m["unit"] for m in declared} == reported


def test_tracer_wraps_caller_bindings_and_restores_them():
    import mmps.cli
    import mmps.evolution
    import mmps.stokes

    solve, read = mmps.stokes.helmholtz_solve, mmps.cli.read_snapshot
    probe = tracer.Tracer()
    probe.install()
    try:
        assert mmps.evolution.helmholtz_solve.__wrapped__ is solve
        assert mmps.cli.read_snapshot.__wrapped__ is read
    finally:
        probe.restore()
    assert mmps.evolution.helmholtz_solve is solve
    assert mmps.stokes.helmholtz_solve is solve
    assert mmps.cli.read_snapshot is read


def test_layer_stats_self_and_busy_time():
    # outer(0..10) > inner(1..4) > inner(2..3): recursion counts once in busy.
    spans = [
        ["a.outer", "x", -1, 0.0, 10.0, False, 0, False],
        ["a.inner", "x", 0, 1.0, 4.0, True, 5, False],
        ["a.inner", "y", 1, 2.0, 3.0, False, 5, True],
    ]
    stats = tracer.layer_stats(spans)
    assert stats["a.outer"]["self_s"] == 7.0
    assert stats["a.inner"] | {"durations": None} == {
        "calls": 2, "busy_s": 3.0, "self_s": 3.0, "cold_calls": 1, "cold_s": 3.0,
        "size": 10, "failed": 1, "durations": None,
    }
    assert stats["a.inner@y"]["calls"] == 1


def test_corrupted_reference_fails_the_repetition():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    reference["wall-march"]["b_l2"] *= 1.0 + 1e-6
    run.OUT_DIR.mkdir(exist_ok=True)
    corrupted = run.OUT_DIR / "corrupted-reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    result = run.run_repetition("wall-march", workloads.DEFAULT_SEED, trace=False, reference=corrupted)
    assert not result["ok"]
    assert "b_l2" in result["reason"]


def test_run_refuses_to_start_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wall-march", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
