"""Write a BENCH_<n>.json: the benchmark's result lines for one or two checkouts.

Usage (from the repository root):

    python3 tools/bench_file.py --out BENCH_21.json --label change
    python3 tools/bench_file.py --out BENCH_21.json --label parent --checkout ../parent --commit abc1234
    python3 tools/bench_file.py --out BENCH_21.json --pairs 10 --workload wall-march \\
        --checkout . --against ../parent --seed 100

A labelled run measures one checkout: ``perfbench/run.py --trace 0`` on every
workload that ``BENCHMARK.json`` declares, one ``--trace 1`` run of the first
workload, the tier-1 suite with ``--durations=5``, and fresh-process wall
times (:func:`fresh`).  It stores, under ``runs.<label>``, each run's metadata
and result lines as ``run.py`` prints them, whether ``PYTHONDONTWRITEBYTECODE``
was set, the tier-1 summary, its wall time and its five slowest tests, and
the fresh-process medians under ``fresh``.

``--pairs N`` instead alternates ``--trace 0`` runs of one workload on
``--checkout`` (the change) and ``--against`` (the parent), seeds ``--seed``,
``--seed + 1``, ..., the parent first in even pairs.  It stores each pair's
end-to-end metrics, and each side's ``correct``, ``attempted`` and ``failed``
under ``checks``, under ``pairs.<workload>`` and, per metric, both sides'
quartiles, the change's wins, the gap between the medians (parent - change)
and the parent's interquartile distance.  Each pair also stores, under
``sources``, each side's ``src_lines`` (from ``run.py``'s metadata line) and
whether ``PYTHONDONTWRITEBYTECODE`` was set, which a claim of fewer lines or
a ``peak_rss_mb`` comparison needs.  Next to the metrics, each side of
a pair stores its repetitions' median raw ``run_s`` (as ``raw_run_s``) and
median speed-kernel time ``kernel_s``, read from the checkout's
``perfbench/out/result-<workload>-trace0.json``: a change that moves the
kernel (say, by keeping a second core busy) moves ``run_norm_s`` by more
than the wall time, and these show by how much.

Either mode exits non-zero and writes nothing when a run fails: when
``run.py`` exits non-zero, or its result reads ``"correct": false`` or
``failed`` > 0 (``run.py`` itself exits 0 on a wrong repetition).

Every run goes through the checkout's own ``perfbench/run.py``, so each side
builds what it runs from its own sources.  An existing ``--out`` file is
updated in place: other labels and workloads are kept.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Each fresh-process row is the median wall time of this many new processes.
FRESH_RUNS = 5


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` call: its metadata and result lines.  Exits when the
    call fails or any repetition failed or read wrong."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout}:\n{done.stdout}{done.stderr}")
    if lines[-1].get("correct") is not True or lines[-1].get("failed") != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} read incorrect or failed a repetition:\n"
                         f"{done.stdout}{done.stderr}")
    return {"seed": seed, "trace": trace, "metadata": lines[-2]["metadata"], "result": lines[-1]}


def tier1(checkout: Path) -> dict:
    """The tier-1 suite with its five slowest tests, timed as a whole."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    wall_s = time.perf_counter() - start
    out = done.stdout.splitlines()
    slowest = [line.strip() for line in out if re.match(r"\s*[\d.]+s (call|setup|teardown) ", line)]
    summary = next((line.strip("= ") for line in reversed(out) if " in " in line), "")
    return {"exit_code": done.returncode, "summary": summary, "wall_s": round(wall_s, 2),
            "slowest": slowest[:5]}


def fresh(checkout: Path) -> dict:
    """Wall seconds of new single-threaded processes of the checkout, each the
    median of FRESH_RUNS: ``import mmps.cli`` (``import_cli_s``), and per march
    workload of ``perfbench/workloads.py`` (seed 0), ``mmps simulate`` on its
    config then ``mmps audit`` on that output (``simulate_s.<workload>``,
    ``audit_s.<workload>``).  Exits when a process fails."""
    spec = importlib.util.spec_from_file_location("bench_workloads", checkout / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass needs it there
    spec.loader.exec_module(workloads)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    cli = "import sys; from mmps.cli import main; sys.exit(main())"

    def median_s(args: list[str]) -> float:
        times = []
        for _ in range(FRESH_RUNS):
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True,
                                  text=True, check=False)
            times.append(time.perf_counter() - start)
            if done.returncode != 0:
                raise SystemExit(f"{args} failed in {checkout}:\n{done.stdout}{done.stderr}")
        return round(statistics.median(times), 4)

    rows = {"runs": FRESH_RUNS, "import_cli_s": median_s(["-c", "import mmps.cli"])}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.MARCHES:
            config = Path(tmp) / f"{name}.cfg"
            config.write_text(workloads.config_texts(name, workloads.DEFAULT_SEED)[0], encoding="utf-8")
            args = ["--config", str(config), "--out", str(Path(tmp) / name)]
            rows[f"simulate_s.{name}"] = median_s(["-c", cli, "simulate", *args])
            rows[f"audit_s.{name}"] = median_s(["-c", cli, "audit", *args])
    return rows


def raw_medians(checkout: Path, workload: str, seed: int) -> dict:
    """The median raw ``run_s`` and ``kernel_s`` over the repetitions of the
    checkout's last ``--trace 0`` run of ``workload``, which must be seed's."""
    path = checkout / "perfbench" / "out" / f"result-{workload}-trace0.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    if result.get("seed") != seed:
        raise SystemExit(f"{path} is not the result of seed {seed}")
    timed = [r for r in result["samples"] if "run_s" in r]
    return {"raw_run_s": statistics.median(r["run_s"] for r in timed),
            "kernel_s": statistics.median(r["kernel_s"] for r in timed)}


def pairs(change: Path, parent: Path, workload: str, count: int, seed: int, seconds: float) -> dict:
    """``count`` alternated pairs of end-to-end metrics and raw medians
    (:func:`raw_medians`), parent and change, with each side's ``correct``,
    ``attempted`` and ``failed``, its ``src_lines`` and whether
    ``PYTHONDONTWRITEBYTECODE`` was set, and per metric (all lower-better) each
    side's median and quartiles, the change's wins and the medians' gap
    (parent - change)."""
    rows = []
    for k in range(count):
        order = (("parent", parent), ("change", change))
        sides, checks, sources = {}, {}, {}
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            run = bench(checkout, workload, seed + k, seconds, 0)
            result = run["result"]
            sides[side] = {**{name: m["value"] for name, m in result["metrics"].items()},
                           **raw_medians(checkout, workload, seed + k)}
            checks[side] = {key: result[key] for key in ("correct", "attempted", "failed")}
            sources[side] = {"src_lines": run["metadata"]["src_lines"],
                             "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}
        rows.append({"seed": seed + k, **sides, "checks": checks, "sources": sources})
    summary = {}
    for name in rows[0]["parent"]:
        sides = {side: [r[side][name] for r in rows] for side in ("parent", "change")}
        quartiles = {side: statistics.quantiles(v, n=4, method="inclusive") for side, v in sides.items()}
        summary[name] = {
            **{f"{side}_quartiles": q for side, q in quartiles.items()},
            "change_wins": sum(r["change"][name] < r["parent"][name] for r in rows),
            "median_gap": quartiles["parent"][1] - quartiles["change"][1],
            "parent_iqr": quartiles["parent"][2] - quartiles["parent"][0],
        }
    return {"seconds": seconds, "pairs": rows, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--label", help="store a full measurement of --checkout under this name")
    parser.add_argument("--commit", help="the checkout's commit, when it has no .git")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--workload")
    parser.add_argument("--against", type=Path, help="the parent checkout of --pairs")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}

    if args.pairs:
        if args.against is None or args.workload not in names or args.pairs < 2:
            parser.error("--pairs needs N >= 2, --against and a declared --workload")
        data.setdefault("pairs", {})[args.workload] = pairs(
            checkout, args.against.resolve(), args.workload, args.pairs, args.seed, seconds)
    elif args.label:
        data.setdefault("runs", {})[args.label] = {
            "commit": args.commit,
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "workloads": {name: bench(checkout, name, args.seed, seconds, 0) for name in names},
            "traced": {names[0]: bench(checkout, names[0], args.seed, seconds, 1)},
            "tier1": tier1(checkout),
            "fresh": fresh(checkout),
        }
    else:
        parser.error("give --label or --pairs")
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
