"""Run the benchmark untraced on one workload over consecutive seeds and print,
per metric, the median, the quartiles and the spread (q3 - q1) / median
as `statistics.quantiles(values, n=4)` gives them.

    python3 perfbench/spread.py --workload sweep --runs 10 [--first-seed 1]

Run from the repository root; the run length is BENCHMARK.json's
run_seconds.  Each run's JSON line is kept in
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    results = []
    with open(log, "w", encoding="utf-8") as f:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            line = done.stdout.strip().splitlines()[-1]
            f.write(line + "\n")
            results.append(json.loads(line))
    print(f"{args.workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
          f"failed/attempted {[(r['failed'], r['attempted']) for r in results]}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:32s} median {med:.6g} {first['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
