"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hierarchy_filtered --seed 1 --seconds 20 --trace 0

Run from the repository root.  Generates the workload's inputs from the seed
into ``perfbench/_work``, then starts one pipeline worker (``pipeline.py``)
that runs a warm-up round and then timed rounds for ``--seconds``, one
pipeline at a time, with numpy held to one thread.  The last line of
standard output is the result: ``correct``, ``attempted`` and ``failed``
rounds, and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each the median over the timed rounds, timed in CPU
seconds of the worker.  A summary of every round, wall times included, goes
to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import gen
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
# time allowed beyond --seconds: generation, the warm-up round, the round that
# overruns --seconds, and the checks (20–30 s on scale_gci2)
MARGIN_S = 150
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_inputs(workload: str, seed: int, path: str):
    files, truth = gen.generate(workload, seed)
    os.makedirs(path)
    for name, text in files.items():
        with open(os.path.join(path, name), "w", encoding="utf-8") as f:
            f.write(text)
    with open(os.path.join(path, "truth.json"), "w", encoding="utf-8") as f:
        json.dump(truth, f)


def run_worker(args, data_dir: str, deadline: float) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in SINGLE_THREAD})
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), args.workload, data_dir,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("pipeline worker ran out of time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline worker exited with code {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + args.seconds + MARGIN_S
    if not os.path.isdir(os.path.join(ROOT, "src", "elgeo")):
        print(f"no elgeo sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    data_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        write_inputs(args.workload, args.seed, data_dir)
        lines = run_worker(args, data_dir, deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    result, summary = metrics.summarize(lines, trace=bool(args.trace))
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
