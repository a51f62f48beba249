"""One benchmark iteration in a fresh process, so every cache starts cold.

    python3 worker.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (import and set up only), ``run`` (untraced) or ``trace``.
Prints one JSON record as its last stdout line: set-up and item times, peak
resident memory, and per item the summary, work counts, reference
mismatches and threshold checks; spans too when traced.

Times are given three ways.  ``wall_s`` is wall time.  ``cpu_s`` is the CPU
time of this thread, less the gauge's samples; unlike wall time it leaves
out the time the host gives this machine's CPU to others (steal time).
``ref_cpu_s`` is that CPU time at the reference speed: on a shared host the
speed of the CPU itself changes by up to 1.75x within seconds, as other
tenants load the cores it shares, so a gauge measures the speed every
GAUGE_INTERVAL_S of CPU time and each stretch of the run counts at the
speed measured at its end.
"""

from __future__ import annotations

import signal
import time

GAUGE_INTERVAL_S = 0.05  # CPU time between two speed samples
GAUGE_UPDATES = 2000  # dict updates in one speed sample, about 1 ms of CPU time
REFERENCE_SAMPLE_S = 0.001  # CPU time of one speed sample at the reference speed


def thread_cpu() -> float:
    # the process CPU clock reads in whole ticks while an interval timer is armed
    return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)


class SpeedGauge:
    """CPU speed samples, taken by a SIGPROF handler every GAUGE_INTERVAL_S of CPU time.

    A sample times fixed interpreter work, tuple-keyed dict updates as in
    the engine's bookkeeping.  Handlers run between bytecodes of the main
    thread, so a sample never splits a package call's arithmetic.
    """

    def __init__(self):
        self.samples = []  # (thread CPU time at the sample's start, its CPU time)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)

    def _sample(self, signum, frame):
        c = thread_cpu()
        d = {}
        for i in range(GAUGE_UPDATES):
            k = (i % 31, i % 7, i % 3)
            d[k] = d.get(k, 0.0) + 1.5
        self.samples.append((c, thread_cpu() - c))

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def times(self, start: float, end: float) -> tuple:
        """(CPU time, CPU time at the reference speed) between two thread_cpu() readings.

        The samples' own time is left out.  Each stretch between samples
        counts at the speed of the sample that ends it; the last stretch at
        the speed of the next sample, or of the last one if none follows.
        """
        cpu = ref = 0.0
        prev = start
        for c, dt in self.samples:
            if c < start:
                continue
            if c >= end:
                break
            cpu += c - prev
            ref += (c - prev) * REFERENCE_SAMPLE_S / dt
            prev = c + dt
        else:
            dt = self.samples[-1][1]
        return cpu + end - prev, ref + (end - prev) * REFERENCE_SAMPLE_S / dt


T0, C0, GAUGE = time.perf_counter(), thread_cpu(), SpeedGauge()  # set-up includes numpy

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import references  # noqa: E402
import workloads  # noqa: E402


def process_cpu() -> float:
    """User and system time of this process, all threads, and the children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv) -> int:
    root, workload, seed, mode = Path(argv[1]).resolve(), argv[2], int(argv[3]), argv[4]
    tr = workloads.Tracer(enabled=mode == "trace")
    with tr.span("setup"):
        with tr.span("import"):
            pkg = workloads.import_package()
        items = workloads.setup(workload, root, tr)
    setup_end, setup_wall_s = thread_cpu(), time.perf_counter() - T0
    if root / "src" not in Path(pkg.__file__).resolve().parents:
        print(f"error: qsystems imported from {pkg.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    import numpy

    record = {"mode": mode, "setup_wall_s": setup_wall_s, "python": platform.python_version(),
              "numpy": numpy.__version__, "items": []}
    spans = []  # thread CPU time at the start and end of each item
    p0 = process_cpu()
    if mode != "setup":
        for name, inputs in items:
            t, c = time.perf_counter(), thread_cpu()
            try:
                with tr.span("item", name):
                    summary, count_fn = workloads.run_item(workload, name, inputs, tr, seed)
            except Exception as exc:  # a crashing construction is one failed operation
                spans.append((c, thread_cpu()))
                traceback.print_exc()
                record["items"].append({"name": name, "wall_s": time.perf_counter() - t,
                                        "error": f"{type(exc).__name__}: {exc}"})
                continue
            spans.append((c, thread_cpu()))
            wall = time.perf_counter() - t
            counts = count_fn()
            del count_fn  # free this item's objects before the next item runs
            ref = references.reference(workload, name)
            record["items"].append({
                "name": name, "wall_s": wall, "summary": summary, "counts": counts,
                "mismatches": references.mismatches(workload, summary),
                "checks": references.checks(workload, summary, ref),
            })
    record["process_cpu_s"] = process_cpu() - p0
    GAUGE.stop()
    record["setup_cpu_s"], record["setup_s"] = GAUGE.times(C0, setup_end)
    for it, (start, end) in zip(record["items"], spans):
        it["cpu_s"], it["ref_cpu_s"] = GAUGE.times(start, end)
    if mode != "setup":
        for key in ("wall_s", "cpu_s", "ref_cpu_s"):
            record[key] = sum(it[key] for it in record["items"])
    record["gauge_samples"] = len(GAUGE.samples)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr.enabled:
        record["spans"] = tr.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
