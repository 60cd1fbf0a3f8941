"""Benchmark of the floqchern figure pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.
Workloads: sweep, phase-map, chern-diagram, floquet-validate (see
README.md).  A run repeats whole rounds of the workload until S seconds
have passed, checks the first round's outputs against the oracles and
every later round against the first, and prints one JSON object as its
last line of stdout.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb,
ops_per_s.  --trace 1 alternates untraced and traced rounds of the
workload, then runs one traced round of every other workload and the
layer probes, reports the per-layer metrics and writes the spans to
perfbench/out/trace-<workload>-<seed>.tsv.gz.

Only the standard library is imported before the timed set-up, so that
set-up covers the import of numpy and scipy through floqchern.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up measured in fresh interpreters after the timed loop, besides the
#: in-process one; set-up time is the median of all of them
SETUP_SAMPLES = 2


def set_up() -> float:
    """Seconds to import floqchern (with its CLI) and make one warm-up call."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import floqchern
    import floqchern.cli
    floqchern.evaluate_candidate("plus", 2, [1.0, 0.5, 0.3])
    return time.perf_counter() - t0


def fresh_set_up() -> float:
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.set_up())"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def worker_count() -> int:
    """Pool size for the sweep: at most two, and no more than the cores
    this process may run on."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited
    child (the sweep's pool workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def timed_rounds(workload, seconds: float) -> list:
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_round()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return times


def end_to_end(workload, seconds, setup_first):
    times = timed_rounds(workload, seconds)
    rss = peak_rss_mb()
    setups = [setup_first] + [fresh_set_up() for _ in range(SETUP_SAMPLES)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (workload.work * len(times) / sum(times), "1/s"),
    }


def per_layer(workload, others, seconds, tracer, probes):
    """Alternate untraced and traced rounds of `workload` for `seconds`,
    then trace one round of each of `others` and the probes."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_round()
        untraced.append(time.perf_counter() - t0)
        tracer.request += 1
        tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run_round()
        finally:
            tracer.uninstall()
        traced.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            break
    for other in others:
        tracer.request += 1
        tracer.install()
        try:
            other.run_round()
        finally:
            tracer.uninstall()
    metrics = probes.run(tracer)
    wall_untraced, wall_traced = statistics.median(untraced), statistics.median(traced)
    metrics["cli.output_bytes"] = (workload.output_bytes(), "bytes")
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead"] = (wall_traced / wall_untraced - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "phase-map", "chern-diagram", "floquet-validate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "floqchern" / "__init__.py").is_file():
        sys.stderr.write(f"floqchern sources not found under {SRC}\n")
        return 2
    os.environ.pop("FCF_THREADS", None)   # the pool size is the benchmark's

    setup_first = set_up()
    sys.path.insert(0, str(HERE))
    import floqchern
    import probes as probes_mod
    import workloads
    from tracing import Tracer

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work_dir = out / f"{args.workload}-{os.getpid()}"
    make = lambda name: workloads.WORKLOADS[name](floqchern, args.seed, str(work_dir),
                                                  worker_count())
    workload = make(args.workload)
    runs = [workload]
    try:
        if args.trace:
            others = [make(n) for n in workloads.WORKLOADS if n != args.workload]
            runs += others
            by_name = {w.name: w for w in runs}
            tracer = Tracer()
            probes = probes_mod.Probes(floqchern, args.seed, by_name)
            metrics = per_layer(workload, others, args.seconds, tracer, probes)
            tracer.write(out / f"trace-{args.workload}-{args.seed}.tsv.gz")
        else:
            metrics = end_to_end(workload, args.seconds, setup_first)
        errors = [e for w in runs for e in w.verify()]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for e in errors:
        sys.stderr.write(e + "\n")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(w.attempted for w in runs),
        "failed": sum(w.failed for w in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
