"""Run one workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload ontology_mixed --seeds 1-10 [--trace 1]

Run from the repository root.  Each seed is one ``run.py`` run of
``run_seconds`` from BENCHMARK.json.  Prints, per metric, the median, the
quartiles and the quartile spread (Q3 - Q1) / median, and the failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout.splitlines()[-1]))

    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed share: "
          f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = metrics.quartile_spread(values) if med else 0.0
        print(f"  {name:30s} median {statistics.median(values):12.5g}  "
              f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
