"""tools/bench_file.py: a run that failed or read wrong ends the command
with a non-zero exit and writes no file; paired runs keep their checks."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOOD = {"correct": True, "attempted": 4, "failed": 0,
        "metrics": {"run_norm_s": {"value": 0.2, "unit": "s"}}}


def _bench_file(monkeypatch, result: dict, run_s: dict[str, list[float]] | None = None):
    """The tool's module, its subprocess calls answered with ``result``.  A
    benchmark call also writes its checkout's per-repetition result file,
    with the raw times ``run_s[<checkout name>]`` (default 0.1, 0.3, 0.2)
    and kernel times of a tenth of them."""
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(cmd, cwd, **kwargs):
        if "--workload" in cmd:
            workload, seed = (cmd[cmd.index(flag) + 1] for flag in ("--workload", "--seed"))
            times = (run_s or {}).get(Path(cwd).name, [0.1, 0.3, 0.2])
            samples = [{"traced": False, "run_s": t, "kernel_s": t / 10} for t in times]
            out = Path(cwd) / "perfbench" / "out"
            out.mkdir(parents=True, exist_ok=True)
            (out / f"result-{workload}-trace0.json").write_text(
                json.dumps({"seed": int(seed), "samples": samples}), encoding="utf-8")
        stdout = json.dumps({"metadata": {"commit": None}}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return module


def _args(mode: str, out: Path) -> list[str]:
    """The tool's arguments, on two checkouts next to ``out`` that each
    declare the repository's benchmark."""
    for name in ("change", "parent"):
        (out.parent / name).mkdir(exist_ok=True)
        shutil.copy(ROOT / "BENCHMARK.json", out.parent / name)
    common = ["--out", str(out), "--checkout", str(out.parent / "change")]
    if mode == "pairs":
        return [*common, "--pairs", "2", "--workload", "weak-form", "--against", str(out.parent / "parent")]
    return [*common, "--label", "change"]


@pytest.mark.parametrize("mode", ["pairs", "label"])
@pytest.mark.parametrize("bad", [{"correct": False, "failed": 1}, {"correct": False}, {"failed": 1}])
def test_a_wrong_or_failed_run_writes_nothing(tmp_path, monkeypatch, mode, bad):
    tool = _bench_file(monkeypatch, {**GOOD, **bad})
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        tool.main(_args(mode, out))
    assert exc.value.code not in (0, None)
    assert not out.exists()


def test_pairs_store_each_side_s_checks(tmp_path, monkeypatch):
    tool = _bench_file(monkeypatch, GOOD)
    out = tmp_path / "BENCH.json"
    assert tool.main(_args("pairs", out)) == 0
    stored = json.loads(out.read_text(encoding="utf-8"))["pairs"]["weak-form"]
    check = {"correct": True, "attempted": 4, "failed": 0}
    assert [row["checks"] for row in stored["pairs"]] == [{"parent": check, "change": check}] * 2
    assert stored["summary"]["run_norm_s"]["change_wins"] == 0


def test_pairs_store_each_side_s_raw_run_and_kernel_medians(tmp_path, monkeypatch):
    tool = _bench_file(monkeypatch, GOOD, {"change": [0.05, 0.07, 0.06]})
    out = tmp_path / "BENCH.json"
    assert tool.main(_args("pairs", out)) == 0
    stored = json.loads(out.read_text(encoding="utf-8"))["pairs"]["weak-form"]
    for row in stored["pairs"]:
        assert row["parent"]["raw_run_s"] == 0.2 and row["change"]["raw_run_s"] == 0.06
        assert row["parent"]["kernel_s"] == 0.02 and row["change"]["kernel_s"] == 0.006
    assert stored["summary"]["raw_run_s"]["change_wins"] == 2
    assert stored["summary"]["kernel_s"]["median_gap"] == pytest.approx(0.014)


def test_pairs_refuse_a_result_file_of_another_seed(tmp_path, monkeypatch):
    tool = _bench_file(monkeypatch, GOOD)
    out = tmp_path / "BENCH.json"
    args = _args("pairs", out)
    real_run = tool.subprocess.run

    def stale(cmd, cwd, **kwargs):  # the parent's run leaves its result file as it was
        done = real_run(cmd, cwd, **kwargs)
        path = Path(cwd) / "perfbench" / "out" / "result-weak-form-trace0.json"
        if Path(cwd).name == "parent":
            path.write_text(json.dumps({"seed": -1, "samples": []}), encoding="utf-8")
        return done

    monkeypatch.setattr(tool.subprocess, "run", stale)
    with pytest.raises(SystemExit, match="not the result of seed 0"):
        tool.main(args)
    assert not out.exists()
