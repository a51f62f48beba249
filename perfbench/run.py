"""Benchmark of the qsystems package: time to a verified verdict.

    python3 perfbench/run.py --workload {coherence,ctps,invariants} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src`` and the bundles are read from its ``data``.  Each iteration is a
fresh single-threaded process (BLAS pinned to one thread), so caches start
cold as they do for every ``qsys`` invocation.  Iterations repeat until the
next one would end after S seconds (untraced: 2 s before, the time kept for
set-up-only processes); at least one always runs.

``--trace 0`` reports the end-to-end metrics: ``ref_cpu_s`` (median over
iterations of the CPU time from the first call after set-up to the last
verdict, at the reference CPU speed), ``setup_s`` (median over every set-up
in the run of its CPU time at the reference speed: import, bundle parsing,
model building), ``peak_rss_mb`` and ``margin_digits``.  ``worker.py``
says why the times are CPU times at a gauged speed; the wall and plain CPU
times are printed and recorded beside them.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: self time per stage span, work counts, yield ratios,
and the tracing overhead (traced wall time minus untraced).

Every item is verified against ``references.py``; a mismatch or a crash is
a failed operation.  The last stdout line is the JSON result; the full
record (results, spans, environment) goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.  Compare two such
records with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import references  # noqa: E402  (benchmark modules next to this file)
import workloads  # noqa: E402

# set-up-only processes per untraced run, for a steadier setup_s.  They run
# after the iterations, in the time no further iteration fits into; PROBE_RESERVE_S
# of the run is kept for the minimum, so they never push an iteration out
MIN_PROBES, MAX_PROBES, PROBE_RESERVE_S = 4, 30, 2.0
RUN_LIMIT_S = 170  # every run must end within 180 s
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {"ref_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "margin_digits": "digits"}
STAGES = ("fusion.validate", "io.load", "catalog.build", "morphisms.pentagon",
          "morphisms.hexagon", "morphisms.conjugates", "morphisms.unitarity",
          "qsystem.validate", "qsystem.commutativity", "ctps.zeta", "ctps.assemble",
          "ctps.braiding", "ctps.normality", "ctps.e3", "induction.solve",
          "induction.verify_algebra", "induction.hom_spaces", "modular.st",
          "modular.enumerate", "modular.invariant")
COUNTS = ("qsystem.theta_summands", "qsystem.theta3_words", "ctps.zeta_coefficients",
          "ctps.zeta_slots", "induction.hom_spaces", "induction.hom_unknowns",
          "induction.hom_nonzero", "modular.candidates", "modular.invariants_found",
          "morphisms.pentagon_blocks")
RATIOS = {"induction.hom_yield": ("induction.hom_nonzero", "induction.hom_spaces"),
          "ctps.zeta_density": ("ctps.zeta_coefficients", "ctps.zeta_slots"),
          "modular.hit_rate": ("modular.invariants_found", "modular.candidates")}
TRACE = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio"}


def per_layer_units() -> dict:
    units = {f"{s}_s": "s" for s in STAGES}
    units.update({c: "count" for c in COUNTS})
    units.update({r: "ratio" for r in RATIOS})
    units.update(TRACE)
    return units


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_PINS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(5.0, deadline - time.perf_counter()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} iteration exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_times(spans) -> dict:
    """Sum per span name of duration minus the time its direct children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def stage_coverage(spans) -> tuple:
    """(traced wall time, time covered by stage spans inside the item spans)."""
    items = {s["id"]: s for s in spans if s["name"] == "item"}
    wall = sum(s["end"] - s["start"] for s in items.values())
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in items)
    return wall, covered


def operations(records) -> tuple:
    attempted = sum(len(r["items"]) for r in records)
    failed = sum(1 for r in records for it in r["items"] if it.get("error") or it["mismatches"])
    return attempted, failed


def results_identical(records) -> bool:
    """Whether every iteration of one seed, traced or not, computed the same numbers.

    This is also the check that the traced stage calls reproduce what
    validate_category and build_ctps compute.
    """
    first = [it.get("summary") for it in records[0]["items"]]
    return all([it.get("summary") for it in r["items"]] == first for r in records)


def summed_counts(record) -> dict:
    out = dict.fromkeys(COUNTS, 0)
    for it in record["items"]:
        for k, v in it.get("counts", {}).items():
            out[k] += v
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    durations = {"setup": [], "run": [], "trace": []}

    def iteration(mode):
        t = time.perf_counter()
        rec = child(workload, seed, mode, deadline)
        durations[mode].append(time.perf_counter() - t)
        return rec

    def fits(mode_list, reserve=0.0):
        next_s = sum(statistics.median(durations[m]) for m in mode_list)
        return time.perf_counter() - start + next_s + reserve <= seconds

    probes, runs, traces = [], [], []
    modes = ("run", "trace") if traced else ("run",)
    reserve = 0.0 if traced else PROBE_RESERVE_S
    while True:
        for mode in modes:
            (traces if mode == "trace" else runs).append(iteration(mode))
        if not fits(modes, reserve):
            break
    while not traced and len(probes) < MAX_PROBES and (
            len(probes) < MIN_PROBES or fits(("setup",))):
        probes.append(iteration("setup"))
    return {"probes": probes, "runs": runs, "traces": traces,
            "elapsed_s": time.perf_counter() - start}


def end_to_end_metrics(m) -> dict:
    runs = m["runs"]
    checks = [c for r in runs for it in r["items"] for c in it.get("checks", [])]
    return {
        "ref_cpu_s": statistics.median(r["ref_cpu_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in m["probes"] + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "margin_digits": references.margin_digits(checks),
    }


def plain_times(m) -> dict:
    """Wall and CPU time counterparts of ref_cpu_s and setup_s, recorded beside the metrics."""
    runs, setups = m["runs"], m["probes"] + m["runs"]
    return {"wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups),
            "setup_cpu_s": statistics.median(r["setup_cpu_s"] for r in setups)}


def per_layer_metrics(m) -> tuple:
    """Per-layer metrics, and whether the stage spans account for the traced wall time."""
    traces = m["traces"]
    stage = {s: statistics.median(self_times(t["spans"]).get(s, 0.0) for t in traces)
             for s in STAGES}
    counts = summed_counts(traces[0])
    walls = [stage_coverage(t["spans"]) for t in traces]
    traced_wall = statistics.median(w for w, _ in walls)
    covered = statistics.median(c for _, c in walls)
    overhead = traced_wall - statistics.median(r["wall_s"] for r in m["runs"])
    out = {f"{s}_s": v for s, v in stage.items()}
    out.update(counts)
    for name, (num, base) in RATIOS.items():
        out[name] = counts[num] / counts[base] if counts[base] else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = overhead
    out["trace.coverage"] = covered / traced_wall
    accounted = traced_wall - covered <= max(overhead, 0.01 * traced_wall)
    return out, accounted


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python_executable": sys.executable,
        "blas_threads": THREAD_PINS,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [d for d in ("src/qsystems/__init__.py", "data") if not (ROOT / d).exists()]
    if missing:
        print(f"error: {ROOT} is not a qsystems checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    env = environment()
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = m["runs"] + m["traces"]
    attempted, failed = operations(records)
    identical = results_identical(records)
    correct = failed == 0 and identical
    if args.trace:
        metrics, accounted = per_layer_metrics(m)
        units = per_layer_units()
        correct = correct and accounted
    else:
        metrics = end_to_end_metrics(m)
        units = END_TO_END
    env.update(python=records[0]["python"], numpy=records[0]["numpy"])
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "elapsed_s": m["elapsed_s"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "plain_times": plain_times(m),
        "results": [it.get("summary", it.get("error")) for it in records[0]["items"]],
        "results_identical": identical,
        "iterations": [{k: v for k, v in r.items() if k != "spans"}
                       for r in m["probes"] + records],
        "spans": [t["spans"] for t in m["traces"]],
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for it in (it for r in records for it in r["items"]):
        for problem in ([it["error"]] if it.get("error") else it["mismatches"]):
            print(f"FAILED {it['name']}: {problem}")
    if not identical:
        print("FAILED: iterations of this seed computed different results")
    for k, v in metrics.items():
        print(f"{k:32s} {v:14.6g} {units[k]}")
    for k, v in out["plain_times"].items():
        print(f"{k:32s} {v:14.6g} s (not a metric)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
