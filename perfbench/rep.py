"""Repetitions of one workload, forked from one process that has imported mmps.

Usage: python3 perfbench/rep.py '<json request>'

The process imports mmps, writes and parses the workload's configs, and
records its set-up time, measured from the parent's ``time.monotonic()`` at
spawn (the clock is system-wide, so interpreter start counts).  Then it
forks one child per repetition, one at a time, until the request's time is
spent.  A child starts as a fresh process would after ``import mmps``:
every module cache (the SuperLU factorisations in ``_HELMHOLTZ_CACHE``,
``_POISSON_CACHE`` and ``_STOKES_CACHE``, the SymPy ``lru_cache``) is still
empty, because this process never runs a workload.  Each child runs, times
and checks one repetition and sends its result back through a pipe.  The
last line of standard output is one JSON object: ``setup`` (its time and
the host speed during it) and the list of ``results``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path


# The shared host's speed swings by tens of per cent within seconds.  While
# mmps is imported and while a repetition runs, a SIGALRM handler times a
# fixed micro-kernel every SAMPLE_PERIOD_S; the kernel slows with the host,
# so its mean time measures the speed the work ran at.  It costs about 2%.
SAMPLE_PERIOD_S = 0.02


def speed_kernel(array) -> float:
    """Seconds for a fixed mix of interpreter and NumPy work (about 0.3 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i % 7
    for _ in range(20):
        array = array * 0.5 + 1.0
    return time.perf_counter() - start


@contextlib.contextmanager
def speed_sampled():
    """Time the speed kernel once, then every SAMPLE_PERIOD_S while the
    body runs; yields the list the kernel times are appended to."""
    import numpy as np

    kernel_input = np.linspace(0.0, 1.0, 4096)
    kernel_s = [speed_kernel(kernel_input)]
    signal.signal(signal.SIGALRM, lambda signum, frame: kernel_s.append(speed_kernel(kernel_input)))
    signal.siginterrupt(signal.SIGALRM, False)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield kernel_s
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def repetition(request: dict, traced: bool, workdir: Path) -> dict:
    """One repetition: prepare, run (timed), check; in a forked child."""
    import workloads

    prep = workloads.prepare(request["workload"], request["seed"], workdir)
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    with speed_sampled() as kernel_s:
        start = time.perf_counter()
        try:
            outcome = workloads.run(prep)
        finally:
            run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()

    result = {
        "traced": traced,
        "run_s": run_s,
        "kernel_s": statistics.fmean(kernel_s),
        "kernel_samples": len(kernel_s),
        "ok": True,
        "reason": "",
    }
    try:
        reference = json.loads(Path(request["reference"]).read_text(encoding="utf-8"))
        workloads.check(prep, outcome, reference)
    except (workloads.CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
        result.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        stats = tracing.layer_stats(tracer.spans)
        result["layers"] = {
            name: {k: v for k, v in entry.items() if k != "durations"} for name, entry in stats.items()
        }
        result["metrics"] = tracing.layer_metrics(stats)
        tracer.write(Path(request["spans"]), request["workload"])
    return result


def fork_repetition(request: dict, traced: bool, deadline: float) -> dict:
    """Run one repetition in a forked child; a child that raises, dies or
    outlives ``deadline`` (a ``time.monotonic()`` value) is killed and comes
    back with ok False."""
    workdir = Path(request["out_dir"]) / f"work-{request['workload']}-{os.getpid()}-{time.monotonic_ns()}"
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            # The CLI's progress lines would mix with the results.
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            payload = json.dumps(repetition(request, traced, workdir)).encode()
            while payload:
                payload = payload[os.write(write_fd, payload):]
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    try:
        while True:
            ready, _, _ = select.select([read_fd], [], [], max(deadline - time.monotonic(), 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return {"traced": traced, "ok": False, "reason": "timed out", "timed_out": True}
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
    finally:
        os.close(read_fd)
        shutil.rmtree(workdir, ignore_errors=True)
    if status != 0 or not chunks:
        return {"traced": traced, "ok": False, "reason": f"repetition died (wait status {status})"}
    return json.loads(b"".join(chunks))


def serve(request: dict) -> dict:
    """Time the set-up, then fork repetitions, cycling through
    ``request["kinds"]`` (traced or not), until the next cycle is expected
    to end after ``end`` (a ``time.monotonic()`` value); at least one and
    at most ``max_cycles`` cycles run."""
    setup_dir = Path(request["out_dir"]) / f"setup-{request['workload']}-{os.getpid()}"
    # NumPy comes first because the speed kernel needs it; mmps imports it
    # anyway, so it is set-up time either way.
    with speed_sampled() as setup_kernel_s:
        import mmps  # noqa: F401  (the import is part of set-up time)
        import workloads

        workloads.prepare(request["workload"], request["seed"], setup_dir)
    setup_s = time.monotonic() - request["spawned"]
    shutil.rmtree(setup_dir, ignore_errors=True)
    setup = {"setup_s": setup_s, "kernel_s": statistics.fmean(setup_kernel_s)}
    if any(request["kinds"]):
        import tracer  # noqa: F401  (imported before the first fork, untimed)
    deadline = request["deadline"]
    results: list[dict] = []
    cycle_walls: list[float] = []
    while True:
        cycle_start = time.monotonic()
        for traced in request["kinds"]:
            results.append(fork_repetition(request, traced, deadline))
            if results[-1].get("timed_out"):
                return {"setup": setup, "results": results}
        cycle_walls.append(time.monotonic() - cycle_start)
        cycles = len(cycle_walls)
        if (
            cycles >= request["max_cycles"]
            or time.monotonic() + statistics.median(cycle_walls) > request["end"]
            or time.monotonic() + max(cycle_walls) > deadline
        ):
            return {"setup": setup, "results": results}


if __name__ == "__main__":
    print(json.dumps(serve(json.loads(sys.argv[1]))))
