"""tools/bench_file.py: a run that failed or read wrong ends the command
with a non-zero exit and writes no file; paired runs keep their checks."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOOD = {"correct": True, "attempted": 4, "failed": 0,
        "metrics": {"run_norm_s": {"value": 0.2, "unit": "s"}}}


def _bench_file(monkeypatch, result: dict):
    """The tool's module, its subprocess calls answered with ``result``."""
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(cmd, **kwargs):
        stdout = json.dumps({"metadata": {"commit": None}}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(module.subprocess, "run", run)
    return module


def _args(mode: str, out: Path) -> list[str]:
    if mode == "pairs":
        return ["--out", str(out), "--pairs", "2", "--workload", "weak-form", "--against", str(out.parent)]
    return ["--out", str(out), "--label", "change"]


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
