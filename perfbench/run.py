"""mmps benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload wall-march --seed 0 --seconds 32 --trace 0

Repetitions run one at a time (a closed loop, concurrency 1) in
single-threaded children forked from a serving process that has imported
mmps and run nothing else, so module caches start cold as they do for every
command-line user (see rep.py).  A run starts SERVERS serving processes in
turn, each a fresh start whose set-up time is measured, and gives each an
equal share of ``--seconds``.  With ``--trace 0`` the end-to-end metrics are
medians: ``setup_s`` over the serving processes, ``run_norm_s`` and
``peak_rss_mb`` over the repetitions.  ``setup_s`` and ``run_norm_s`` are
wall times scaled to a reference host speed, measured while they ran.  With
``--trace 1`` untraced and traced repetitions alternate, and the per-layer
metrics are medians over the traced ones.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

# A run starts this many serving processes in turn (see rep.py), each a
# fresh start, so set-up is timed this many times per run.
SERVERS = 4
# Every run must end within 180 s, even when a repetition hangs.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The speed kernel's mean time (see rep.py) on the reference host, a 2-vCPU
# Intel Xeon virtual machine with Python 3.11.7 and NumPy 2.4.6, when quiet.
# A repetition's normalised time is its wall time at that speed.
REF_KERNEL_S = 3.0e-4


def _spawn(request: dict, timeout: float) -> tuple[int, str, str]:
    """Run rep.py single-threaded in a session of its own; on timeout kill
    the whole session (the forked repetitions too).  Either way, wait until
    every process in it has ended."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    request = {**request, "spawned": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "rep.py"), json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -signal.SIGKILL, "", f"timed out after {timeout:.0f} s"
    finally:
        _kill_session(proc.pid)
    return proc.returncode, out, err


def _kill_session(pid: int) -> None:
    """Kill every process left in session ``pid`` (whose leader is reaped)
    and wait until none is left."""
    while True:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def serve(workload: str, seed: int, kinds: list[bool], end: float, deadline: float,
          max_cycles: int = 1_000_000, reference: Path = REFERENCE) -> dict:
    """Set-up time and repetitions of one serving process; ``end`` and
    ``deadline`` are ``time.monotonic()`` values.  A serving process that
    fails comes back with ``setup`` None and one failed repetition."""
    OUT_DIR.mkdir(exist_ok=True)
    request = {
        "workload": workload,
        "seed": seed,
        "kinds": kinds,
        "end": end,
        "deadline": deadline,
        "max_cycles": max_cycles,
        "reference": str(reference),
        "out_dir": str(OUT_DIR),
        "spans": str(OUT_DIR / f"spans-{workload}.jsonl"),
    }
    code, out, err = _spawn(request, timeout=deadline + 5.0 - time.monotonic())
    lines = out.strip().splitlines()
    if code == 0 and lines:
        return json.loads(lines[-1])
    tail = err.strip().splitlines()[-1:] or ["no output"]
    return {"setup": None, "results": [{"traced": False, "ok": False, "reason": f"exit {code}: {tail[0]}"}]}


def run_repetition(workload: str, seed: int, trace: bool, reference: Path = REFERENCE) -> dict:
    """One checked repetition; ok is False if it raises, exits non-zero,
    times out or fails its check."""
    now = time.monotonic()
    return serve(workload, seed, [trace], now, now + 150.0, max_cycles=1, reference=reference)["results"][0]


def _src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit from the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    """Where and on what the numbers were taken; reported, not gated."""
    versions = {}
    for package in ("numpy", "scipy", "sympy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def normalised_s(seconds: float, kernel_s: float) -> float:
    """Wall time scaled to the reference host speed, given the speed
    kernel's mean time while it ran."""
    return seconds * REF_KERNEL_S / kernel_s


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Set-up times and repetitions from SERVERS serving processes in turn,
    each given an equal share of ``seconds``; untraced and traced
    repetitions alternate when tracing."""
    start = time.monotonic()
    kinds = [False, True] if trace else [False]
    setups: list[dict] = []
    reps: list[dict] = []
    for index in range(1, SERVERS + 1):
        served = serve(workload, seed, kinds, start + seconds * index / SERVERS, start + DEADLINE_S)
        if served["setup"] is not None:
            setups.append(served["setup"])
        reps += served["results"]
        if any(r.get("timed_out") for r in served["results"]):
            break
    return setups, reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "mmps" / "__init__.py").is_file():
        print(f"perfbench: no mmps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2

    setups, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failed = [r for r in reps if not r["ok"]]
    for rep in failed:
        print(f"perfbench: {args.workload} repetition failed: {rep['reason']}")
    timed = [r for r in plain if "run_s" in r]
    if not timed:
        print(f"perfbench: no {args.workload} repetition completed", file=sys.stderr)
        return 1

    run_norm_s = statistics.median([normalised_s(r["run_s"], r["kernel_s"]) for r in timed])
    if args.trace:
        layered = [r for r in traced if "metrics" in r]
        if not layered:
            print(f"perfbench: no traced {args.workload} repetition completed", file=sys.stderr)
            return 1
        metrics = {
            name: {
                "value": statistics.median([r["metrics"][name]["value"] for r in layered]),
                "unit": first["unit"],
            }
            for name, first in layered[0]["metrics"].items()
        }
        traced_norm_s = statistics.median([normalised_s(r["run_s"], r["kernel_s"]) for r in layered])
        metrics["trace.run_s"] = {"value": statistics.median([r["run_s"] for r in layered]), "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced_norm_s / run_norm_s - 1.0, "unit": "ratio"}
        metrics["run.wall_s"] = {"value": statistics.median([r["run_s"] for r in timed]), "unit": "s"}
        metrics["host.speed_kernel_ms"] = {
            "value": 1e3 * statistics.median([r["kernel_s"] for r in timed + layered]), "unit": "ms"
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median([normalised_s(r["setup_s"], r["kernel_s"]) for r in setups]), "unit": "s"},
            "run_norm_s": {"value": run_norm_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([r["peak_rss_mb"] for r in timed]), "unit": "MB"},
        }

    info = run_metadata()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metadata": info,
        "failed_frac": len(failed) / len(reps),
        "setup_samples": setups,
        "samples": reps,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8"
    )
    print(
        f"perfbench: {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(reps)} repetitions, failed_frac={len(failed) / len(reps):.3f}, "
        f"run_norm_s median {run_norm_s:.4f} over {len(timed)} untraced"
    )
    print(json.dumps({"metadata": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
