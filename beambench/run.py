"""Run one beamkit benchmark workload and print its metrics.

    python3 beambench/run.py --workload enhance-full --seed 1 --seconds 20 --trace 0

Run from the repository root: beamkit is imported from ``src/``.  With
``--trace 0`` the run sets the workload up at least three times
(``setup_s`` is the median), makes one untimed warm-up call on the
reference seed, compared with ``reference.json``, and then calls the
workload in a closed loop for ``--seconds``, reporting the end-to-end
metrics.  With ``--trace 1`` it sets up once under tracing, warms up,
and alternates untraced and traced calls, reporting per-layer metrics
and the tracing overhead.

The second-to-last stdout line records the environment and the
workload's outputs; the last is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is repeated at least this often and for at least this long; a
# cheap set-up gets many repeats, so its median is steady too.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
END_TO_END_UNITS = {"setup_s": "s", "rtf": "ratio", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must precede numpy's import."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= limit):
            os.environ[var] = str(limit)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "cpu": cpu_model(),
        "seed": seed,
    }


def import_path() -> bool:
    """Put this checkout's ``src/`` first on the import path, if it has one."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "beamkit", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


@contextmanager
def scratch_dir():
    """A fresh directory under ``.beambench_work/``, removed afterwards."""
    scratch = os.path.join(ROOT, ".beambench_work")
    os.makedirs(scratch, exist_ok=True)
    path = tempfile.mkdtemp(dir=scratch)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Counter:
    """Operations attempted and failed; a failure prints its traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, workload, model, check=None, span=nullcontext()):
        """Run one call inside ``span`` and check it.

        Returns (wall time, result), or (None, None) on failure.
        """
        self.attempted += 1
        try:
            start = time.perf_counter()
            with span:
                result = workload.run(model)
            elapsed = time.perf_counter() - start
            workload.check(result)
            if check is not None:
                check(result)
        except Exception:  # counted as a failed operation; the run goes on
            self.failed += 1
            traceback.print_exc()
            return None, None
        return elapsed, result


def end_to_end_metrics(setups, times, audio_seconds: float, peak_kib: int) -> dict:
    """Median set-up time, median call time per second of audio, peak RSS."""
    call_s = statistics.median(times) if times else float("nan")
    values = {
        "setup_s": statistics.median(setups),
        "rtf": call_s / audio_seconds,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def warm_up(workloads, spec, reference: dict, work_dir: str, counter: Counter):
    """One untimed call on the reference seed, compared with reference.json.

    It runs right before the timed calls: the first call after a pause
    maps its memory afresh and is up to twice as slow.
    """
    ref = spec(workloads.REFERENCE_SEED)
    ref.setup(os.path.join(work_dir, "reference"))

    def pinned(result):
        summary = ref.summary(result)
        if not workloads.matches_reference(summary, reference[spec.name]):
            raise workloads.CheckError(f"reference summary {summary} does not match")

    counter.call(ref, ref.prepare(), pinned)


def measure(args, work_dir: str, counter: Counter):
    import resource

    import probes
    import workloads
    from spans import Tracer

    spec = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = spec(args.seed)
    times, outputs = [], {}

    def timed_call():
        elapsed, result = counter.call(workload, workload.prepare())
        if elapsed is not None:
            times.append(elapsed)
            outputs.update(workload.summary(result))

    if args.trace:
        tracer = Tracer()
        with tracer.patched():
            probes.install(tracer)
            with tracer.span("bench.setup"):
                workload.setup(os.path.join(work_dir, "setup"))
        setup_part = tracer.take()
        warm_up(workloads, spec, reference, work_dir, counter)
        traced_times = []
        start = time.perf_counter()
        while not traced_times or time.perf_counter() - start < args.seconds:
            timed_call()
            with tracer.patched():
                probes.install(tracer)
                model = workload.prepare()
                if model is not None:
                    probes.instrument_model(tracer, model, workload.trains)
                elapsed, _ = counter.call(workload, model, span=tracer.span(workload.root_span))
            if elapsed is None:
                break
            traced_times.append(elapsed)
        call_part = tracer.take()
        call_s = statistics.median(times) if times else float("nan")
        traced_s = statistics.median(traced_times) if traced_times else float("nan")
        metrics = probes.layer_metrics(
            setup_part, call_part, max(len(traced_times), 1), call_s, traced_s
        )
    else:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            where = os.path.join(work_dir, f"setup{len(setups)}")
            start = time.perf_counter()
            workload.setup(where)
            setups.append(time.perf_counter() - start)
            if len(setups) > 1:
                shutil.rmtree(os.path.join(work_dir, f"setup{len(setups) - 2}"))
        warm_up(workloads, spec, reference, work_dir, counter)
        start = time.perf_counter()
        calls = 0
        while calls == 0 or time.perf_counter() - start < args.seconds:
            timed_call()
            calls += 1
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end_metrics(setups, times, workload.audio_seconds, peak_kib)
    if times:
        outputs.update(workload.throughput(statistics.median(times)))
    return metrics, {"calls": len(times), "call_s": times, "outputs": outputs}


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    if not import_path():
        print(f"beambench: no beamkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"beambench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    counter = Counter()
    with scratch_dir() as work_dir:
        metrics, record = measure(args, work_dir, counter)
    info = {"environment": environment(args.seed, blas_threads), "workload": args.workload}
    info.update(record)
    print(json.dumps(info))
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
