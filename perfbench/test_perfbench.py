"""Tests of the benchmark's own code: generator ground truth, checks, tracing, arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from elgeo.axioms import BOT, TOP, Form, parse_normalized  # noqa: E402
from elgeo.dataset import build_kb, load_dataset  # noqa: E402
from elgeo.normalize import normalize  # noqa: E402
from elgeo.sexpr import parse_general  # noqa: E402
from oracles import rescan_closure, rescan_saturate  # noqa: E402

SMALL_HIERARCHY = dict(n_chains=4, depth=6, n_heads=10, extra=3, n_probe=2)
SMALL_SCALE = dict(n_classes=40, n_train=300, n_valid=20, n_test=20)


def _write(files, path):
    for name, text in files.items():
        (path / name).write_text(text, encoding="utf-8")
    return str(path)


def _ontology_kb(seed, **sizes):
    files, truth = gen.generate("ontology_mixed", seed, **sizes)
    axioms, sig = normalize(parse_general(files["ontology.sexp"]))
    splits = [parse_normalized(files[f"{n}.tsv"], sig)[0] for n in ("valid", "test")]
    return build_kb(sig, axioms, *splits), truth


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_seeded(workload):
    small = {"scale_gci2": SMALL_SCALE, "hierarchy_filtered": SMALL_HIERARCHY,
             "ontology_mixed": checks.REDUCED}[workload]
    assert gen.generate(workload, 3, **small) == gen.generate(workload, 3, **small)
    assert gen.generate(workload, 3, **small)[0] != gen.generate(workload, 4, **small)[0]


def test_scale_splits_are_distinct_edges(tmp_path):
    files, _ = gen.generate("scale_gci2", 0, **SMALL_SCALE)
    kb = load_dataset(_write(files, tmp_path))   # build_kb rejects overlapping splits
    assert (len(kb.train_gci2), len(kb.valid), len(kb.test)) == (300, 20, 20)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hierarchy_truth_matches_the_oracle(tmp_path, seed):
    files, truth = gen.generate("hierarchy_filtered", seed, **SMALL_HIERARCHY)
    kb = load_dataset(_write(files, tmp_path))
    closure = rescan_closure(kb, rescan_saturate(kb))
    name = kb.sig.class_name
    oracle = {(name(h), name(t)) for h, _, t in closure[Form.GCI2]}
    entailed = gen.hierarchy_edges(truth["n_chains"], truth["depth"], truth["edges"])
    assert oracle == entailed
    asserted = {(name(ax.args[0]), name(ax.args[2])) for ax in kb.train_gci2}
    for i, (v, t) in enumerate(zip(kb.valid, kb.test)):
        v, t = (name(v.args[0]), name(v.args[2])), (name(t.args[0]), name(t.args[2]))
        assert v[0] == t[0] == f"H{i}"
        assert v not in asserted and t not in asserted
        # an entailed edge in one split and a novel one in the other, alternating
        assert (v in entailed, t in entailed) == ((True, False) if i % 2 == 0 else (False, True))
    assert set(truth["probe"]) == {name(c) for c in kb.pool("probe")}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ontology_is_satisfiable_and_branch_closed(seed):
    kb, truth = _ontology_kb(seed, **checks.REDUCED)
    forms = {f for f in Form if kb.axioms[f]}
    assert forms >= {Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3, Form.GCI1_BOT, Form.GCI3_BOT}
    S = rescan_saturate(kb)
    assert [c for c in S if BOT in S[c]] == [BOT]
    name = kb.sig.class_name
    for cls, b in truth["branch"].items():
        ups = {name(d) for d in S[kb.sig.class_id(cls)] if d != TOP}
        assert all(truth["branch"].get(d, b) == b for d in ups), cls


def test_checks_pass_on_program_output_and_catch_a_wrong_rank(tmp_path):
    from elgeo.closure import compute_closure
    from elgeo.evaluation import evaluate
    from elgeo.reasoner import saturate
    from elgeo.training import TrainConfig, train

    files, truth = gen.generate("hierarchy_filtered", 5, **SMALL_HIERARCHY)
    data = _write(files, tmp_path)
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    kb = load_dataset(data)
    dc = compute_closure(kb, saturate(kb))
    cfg = TrainConfig(epochs=3, dim=8, neg_forms=("gci0", "gci2"), filter_negatives=True,
                      activation="leaky_relu", reg_mode="relaxed")
    ckpt = str(tmp_path / "checkpoint.bin")
    _, report = train(kb, cfg, dc, checkpoint_path=ckpt)
    rep = evaluate(_load(ckpt), kb, dc, pool="tails", head_pool="probe",
                   closure_positives=True)
    args = ("hierarchy_filtered", ROOT, data, ckpt, cfg, 0, "tails", kb, dc, report, rep)
    assert checks.run(*args) == []

    rep.records[0].frank += 1
    rep.records[0].entailed = not rep.records[0].entailed
    failures = checks.run(*args)
    assert any(f.startswith("ranking:") for f in failures)
    assert any(f.startswith("closure: entailed flag") for f in failures)


def test_sampling_check_catches_unfiltered_negatives(tmp_path, monkeypatch):
    from elgeo.closure import DeductiveClosure, compute_closure
    from elgeo.reasoner import saturate
    from elgeo.training import TrainConfig

    files, truth = gen.generate("hierarchy_filtered", 6, **SMALL_HIERARCHY)
    kb = load_dataset(_write(files, tmp_path))
    dc = compute_closure(kb, saturate(kb))
    assert checks.check_sampling(kb, dc, TrainConfig(), truth) == []
    monkeypatch.setattr(DeductiveClosure, "contains", lambda self, ax: False)
    assert checks.check_sampling(kb, dc, TrainConfig(), truth)


def _load(path):
    from elgeo.geometry import load_model
    return load_model(path)


def test_reasoner_checks_pass_on_a_reduced_ontology():
    from elgeo.closure import compute_closure
    from elgeo.reasoner import saturate

    kb, truth = _ontology_kb(7, **checks.REDUCED)
    dc = compute_closure(kb, saturate(kb))
    assert checks.check_reasoner(kb, dc, truth) == []
    assert checks.check_reduced_oracles(7, ROOT) == []
    dc.sub.subsumers[kb.sig.class_id("K0_1")].discard(kb.sig.class_id("K0_0"))
    assert checks.check_reasoner(kb, dc, truth)


def test_tracer_restores_the_program_and_names_every_layer_metric():
    from elgeo import geometry, training

    original = training.loss_term
    tracer = tracing.Tracer()
    tracer.install()
    assert training.loss_term is not original and geometry.loss_term is training.loss_term
    tracer.uninstall()
    assert training.loss_term is original and geometry.loss_term is original
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layer == {n: metrics.layer_unit(n) for n in tracer.metrics()}
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == metrics.END_TO_END_UNITS


def test_quartile_spread():
    assert metrics.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)
    assert metrics.quartile_spread([4.0] * 10) == 0.0


def _round(setup, train, ev, digest="a", **extra):
    return dict(setup_s=setup, train_s=train, eval_s=ev, wall_s=[setup, train, ev],
                train_axioms=1000, eval_queries=50, loss_first=2.0, loss_last=1.0,
                checkpoint_sha256=digest, macro_fmr=3.0, fhits10=0.5, **extra)


def test_summarize_takes_medians_of_timed_rounds_only():
    lines = [_round(100.0, 100.0, 100.0), _round(1.0, 2.0, 5.0), _round(3.0, 4.0, 1.0),
             _round(2.0, 1.0, 2.0), {"peak_rss_mb": 80.0, "check_failures": []}]
    result, _ = metrics.summarize(lines, trace=False)
    assert result["correct"] and (result["attempted"], result["failed"]) == (3, 0)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values == {"setup_s": 2.0, "train_axioms_per_s": 500.0,
                      "eval_queries_per_s": 25.0, "peak_rss_mb": 80.0}
    assert result["metrics"]["train_axioms_per_s"]["unit"] == "axioms/s"


def test_summarize_counts_failed_rounds_and_nondeterminism():
    lines = [_round(1.0, 1.0, 1.0), _round(1.0, 1.0, 1.0, digest="b"), {"failed": True},
             {"peak_rss_mb": 80.0, "check_failures": ["sampling: 1 kept"]}]
    result, summary = metrics.summarize(lines, trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert any(f.startswith("determinism") for f in summary["check_failures"])
    with pytest.raises(ValueError):
        metrics.summarize(lines[:1] + [{"failed": True}] + lines[-1:], trace=False)


def test_summarize_per_layer():
    layers = [{"closure.contains_s": v, "closure.contains_calls": 7} for v in (9.0, 1.0, 3.0)]
    lines = [_round(1.0, 1.0, 1.0, layers=layers[0]), _round(1.0, 1.0, 1.0, layers=layers[1]),
             _round(1.0, 1.0, 1.0, layers=layers[2]), {"peak_rss_mb": 1.0, "check_failures": []}]
    result, _ = metrics.summarize(lines, trace=True)
    assert result["metrics"] == {"closure.contains_s": {"value": 2.0, "unit": "s"},
                                 "closure.contains_calls": {"value": 7, "unit": "count"}}


def test_rank_bounds_cover_ties():
    scores = np.array([0.0, 0.0, -1.0, 0.5])
    assert checks._rank_bounds(scores, 0.0) == (2, 3)
    assert checks._rank_bounds(scores, 0.5) == (1, 1)
