"""Pipeline worker: runs one workload's pipeline in rounds and reports each round.

Started by ``run.py`` as a child process, with ``src`` on ``PYTHONPATH`` and
numpy held to one thread.  A round is what ``elgeo train`` followed by
``elgeo evaluate`` does, in library calls:

    setup     load (or parse + normalize), saturate and compute the closure
    train     ``training.train`` for a fixed number of epochs, checkpoint included
    evaluate  ``evaluation.evaluate``, closure-aware where the workload says so

Phases are timed in CPU seconds of this process (``time.process_time``).
The pipeline is single-threaded and waits on nothing but page-cache reads
and one small checkpoint write, so on an idle machine CPU time equals wall
time; on a shared virtual machine it leaves out the time the hypervisor
gives the core to others, which makes wall time swing by tens of percent.
Wall times are reported alongside, for reference.

The first round is a warm-up and is not timed; then rounds run until the
time budget is spent (at least the workload's ``min_rounds``).  Each round
prints one JSON line; the last line carries the peak RSS of this process,
taken before the correctness checks run, and the check results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

from elgeo import closure, config, dataset, evaluation, normalize, reasoner, sexpr, training
from elgeo.axioms import parse_normalized

import checks  # benchmark modules: this script's directory is on sys.path
import tracing

# preset, config overrides, evaluation options and fewest timed rounds per workload
SPECS = {
    "scale_gci2": dict(
        preset="relu-original", overrides=["train.epochs=2"], min_rounds=2,
        closure=False, eval=dict(pool=None, head_pool=None, closure_positives=False)),
    "hierarchy_filtered": dict(
        preset="neg-filter", overrides=["train.epochs=6"], min_rounds=4,
        closure=True, eval=dict(pool="tails", head_pool="probe", closure_positives=True)),
    "ontology_mixed": dict(
        preset="neg-losses", overrides=["train.epochs=6", "train.batch_size=256"], min_rounds=4,
        closure=True, eval=dict(pool=None, head_pool=None, closure_positives=False)),
}


def train_config(workload: str) -> training.TrainConfig:
    spec = SPECS[workload]
    values = config.apply_overrides(config.load_preset(spec["preset"]), spec["overrides"])
    return config.to_train_config(values)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def setup(workload: str, data_dir: str):
    """Everything before the first epoch; returns (kb, deductive closure or None)."""
    sexp = os.path.join(data_dir, "ontology.sexp")
    if os.path.exists(sexp):
        axioms, sig = normalize.normalize(sexpr.parse_general(_read(sexp)))
        splits = [parse_normalized(_read(os.path.join(data_dir, f"{name}.tsv")), sig)[0]
                  for name in ("valid", "test")]
        kb = dataset.build_kb(sig, axioms, *splits)
    else:
        kb = dataset.load_dataset(data_dir)
    dc = None
    if SPECS[workload]["closure"]:
        dc = closure.compute_closure(kb, reasoner.saturate(kb))
    return kb, dc


def positive_axioms(kb) -> int:
    return sum(len(kb.axioms[form]) for form in training.FORM_ORDER)


def run_round(workload: str, cfg, data_dir: str, ckpt: str):
    marks = [(time.perf_counter(), time.process_time())]
    kb, dc = setup(workload, data_dir)
    marks.append((time.perf_counter(), time.process_time()))
    model, report = training.train(kb, cfg, dc, checkpoint_path=ckpt)
    marks.append((time.perf_counter(), time.process_time()))
    rep = evaluation.evaluate(model, kb, dc, **SPECS[workload]["eval"])
    marks.append((time.perf_counter(), time.process_time()))
    with open(ckpt, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    queries = len(rep.records) + len(rep.closure_records)
    record = {
        "setup_s": marks[1][1] - marks[0][1],
        "train_s": marks[2][1] - marks[1][1],
        "eval_s": marks[3][1] - marks[2][1],
        "wall_s": [b[0] - a[0] for a, b in zip(marks, marks[1:])],
        "train_axioms": report.stop_epoch * positive_axioms(kb),
        "eval_queries": queries,
        "loss_first": report.epochs[0]["total"],
        "loss_last": report.epochs[-1]["total"],
        "checkpoint_sha256": digest,
        "macro_fmr": rep.macro_fmr,
        "fhits10": rep.fhits10,
    }
    return record, (kb, dc, report, rep)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=sorted(SPECS))
    ap.add_argument("data_dir")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cfg = train_config(args.workload)
    ckpt = os.path.join(args.data_dir, "checkpoint.bin")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def emit(doc):
        print(json.dumps(doc), flush=True)

    outputs = None
    rounds = 0
    start = None
    while start is None or rounds < SPECS[args.workload]["min_rounds"] or \
            time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.reset()
        outputs = None   # free the previous round before the next one loads
        try:
            record, outputs = run_round(args.workload, cfg, args.data_dir, ckpt)
        except Exception:   # a failed round is counted, and the run goes on
            traceback.print_exc()
            record = {"failed": True}
        if tracer and not record.get("failed"):
            record["layers"] = tracer.metrics()
        if start is None:   # the warm-up round is not reported as timed
            start = time.perf_counter()
        else:
            rounds += 1
        emit(record)
    if tracer:
        tracer.uninstall()

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if outputs is None:
        failures = ["the last round failed; nothing to check"]
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        failures = checks.run(args.workload, root, args.data_dir, ckpt, cfg, args.seed,
                              SPECS[args.workload]["eval"]["pool"], *outputs)
    emit({"peak_rss_mb": peak_mb, "check_failures": failures})
    return 0


if __name__ == "__main__":
    sys.exit(main())
