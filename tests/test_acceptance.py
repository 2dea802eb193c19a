"""Acceptance checks, one per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is pinned here; the random seeds are fixed so each check is
deterministic.
"""

import contextlib
import json
import os
import resource
import time
from pathlib import Path

import numpy as np
import pytest

from elgeo.axioms import Form
from elgeo.cli import main as cli_main
from elgeo.closure import compute_closure
from elgeo.evaluation import aggregate, evaluate, naive_fit, rank_axiom
from elgeo.reasoner import saturate
from elgeo.sampling import NegativeSampler, SamplerConfig
from elgeo.toygen import basic_kb, hierarchy_kb, scale_kb, skew_kb
from elgeo.training import TrainConfig, train

from oracles import (
    brute_aggregate, brute_rank, gradcheck_max_error, random_kb,
    rescan_closure, rescan_saturate,
)


@contextlib.contextmanager
def criterion(name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name} ({time.time() - t0:.1f}s)")
        raise
    print(f"[PASS] {name} ({time.time() - t0:.1f}s)")


def test_01_gradient_correctness():
    with criterion("01 gradient correctness: 12 terms x 2 activations x 2 reg modes, "
                   "100 draws, fd h=1e-6, rel err < 1e-4, < 30 s"):
        t0 = time.time()
        worst = gradcheck_max_error(draws=100, dim=8, seed=2024, h=1e-6)
        elapsed = time.time() - t0
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_closure_oracle_equivalence():
    with criterion("02 closure oracle equivalence: 50 random KBs, exact per-form "
                   "set equality + one-pass fixpoint, < 60 s"):
        t0 = time.time()
        rng = np.random.default_rng(9001)
        from elgeo.axioms import rows_of
        from elgeo.dataset import build_kb
        for _ in range(50):
            kb = random_kb(rng, n_classes=int(rng.integers(4, 31)), n_relations=2,
                           n_axioms=int(rng.integers(5, 61)))
            sub = saturate(kb)
            dc = compute_closure(kb, sub)
            oracle = rescan_closure(kb, rescan_saturate(kb))
            for form, expected in oracle.items():
                assert dc.sets[form] == expected, form.value
            expanded = rows_of((f, args) for f in dc.sets for args in dc.sets[f])
            dc2 = compute_closure(build_kb(kb.sig, expanded), sub)
            for form in dc.sets:
                assert dc2.sets[form] == dc.sets[form], f"second pass grew {form.value}"
        assert time.time() - t0 < 60.0


def test_03_reasoner_soundness():
    with criterion("03 reasoner soundness: 50 random KBs vs rescan oracle, "
                   "reflexivity/TOP/transitivity on every output"):
        rng = np.random.default_rng(777)
        for _ in range(50):
            kb = random_kb(rng, n_classes=int(rng.integers(3, 9)), n_relations=2,
                           n_axioms=int(rng.integers(4, 25)))
            closure = saturate(kb)
            oracle = rescan_saturate(kb)
            n = kb.sig.n_classes
            for c in range(n):
                assert closure.subsumers[c] == oracle[c]
                assert c in closure.subsumers[c]
                assert 0 in closure.subsumers[c]          # TOP everywhere
            for c in range(n):
                for d in closure.subsumers[c]:
                    assert closure.subsumers[d] <= closure.subsumers[c]


def test_04_faithfulness_at_desk_scale():
    with criterion("04 faithfulness: bundled 20-class KB, relu/strict, margin 0.1, "
                   "dim 10, lr 0.01, 2000 steps -> pos loss < 1e-2, slack >= -1e-3"):
        kb = basic_kb()
        active_forms = sum(1 for f in kb.axioms if kb.axioms[f]
                           and f not in (Form.RI0, Form.RI1))
        steps_per_epoch = active_forms          # every form fits in one batch
        epochs = 2000 // steps_per_epoch
        cfg = TrainConfig(epochs=epochs, batch_size=32768, lr=0.01, margin=0.1,
                          dim=10, reg_mode="strict", activation="relu",
                          neg_forms=(), seed=42)
        model, report = train(kb, cfg)
        assert report.stop_epoch * steps_per_epoch <= 2000
        final = report.epochs[-1]["total"]
        assert final < 1e-2, f"positive loss {final}"
        assert min(_containment_slacks(model, kb)) >= -1e-3
        # a faithful model ranks every train-entailed test probe first
        rep = evaluate(model, kb)
        assert all(rec.rank == 1 for rec in rep.records)


def _containment_slacks(model, kb):
    """Per-axiom slack of the geometric predicate each form asserts."""
    la = np.linalg
    g = model.margin
    C, R, V = model.centers, model.radii, model.rel_vectors
    slacks = []
    for form, axioms in kb.axioms.items():
        for ax in axioms:
            a = ax.args
            if form is Form.GCI0:
                arg = la.norm(C[a[0]] - C[a[1]]) + R[a[0]] - R[a[1]] - g
            elif form is Form.GCI1:
                arg = max(la.norm(C[a[0]] - C[a[1]]) - R[a[0]] - R[a[1]] - g,
                          la.norm(C[a[0]] - C[a[2]]) + R[a[0]] - R[a[2]] - g,
                          la.norm(C[a[1]] - C[a[2]]) + R[a[1]] - R[a[2]] - g,
                          min(R[a[0]], R[a[1]]) - R[a[2]] - g)
            elif form is Form.GCI2:
                arg = la.norm(C[a[0]] + V[a[1]] - C[a[2]]) + R[a[0]] - R[a[2]] - g
            elif form is Form.GCI3:
                arg = la.norm(C[a[1]] - V[a[0]] - C[a[2]]) - R[a[1]] - R[a[2]] - g
            elif form is Form.GCI0_BOT:
                arg = R[a[0]]
            elif form is Form.GCI1_BOT:
                arg = R[a[0]] + R[a[1]] - la.norm(C[a[0]] - C[a[1]]) + g
            elif form is Form.GCI3_BOT:
                arg = R[a[1]]
            else:
                continue
            slacks.append(float(-arg))
    return slacks


def test_05_filtration_contract():
    with criterion("05 filtration: 1e5 filtered negatives contain zero closure "
                   "members; entailed_ratio 1.0 -> 100% members"):
        kb = hierarchy_kb(seed=0)
        dc = compute_closure(kb, saturate(kb))
        from elgeo.axioms import AxiomRows
        rows = np.array([ax.args for ax in kb.train_gci2], dtype=np.int64)
        rows = np.tile(rows, (100_000 // len(rows) + 1, 1))[:100_000]
        sampler = NegativeSampler(kb, SamplerConfig(filter_with_closure=True, seed=5), dc)
        out, keep = sampler.corrupt_ids(Form.GCI2, rows)
        assert keep.sum() > 90_000            # pool is large: few drops
        train = {ax.args for ax in kb.train_gci2}
        for row in out[keep]:
            args = tuple(int(x) for x in row)
            assert not dc.contains(AxiomRows(Form.GCI2, [args]))[0]
            assert args not in train
        biased = NegativeSampler(kb, SamplerConfig(entailed_ratio=1.0, seed=6), dc)
        out2, keep2 = biased.corrupt_ids(Form.GCI2, rows)
        assert keep2.all()
        for row in out2:
            assert dc.contains(AxiomRows(Form.GCI2, [row]))[0]


def test_06_metric_oracle():
    with criterion("06 metric oracle: 200 random score tables, 12 aggregates vs "
                   "brute force, AUC < 1e-9, ranks exact, FMR <= MR"):
        from elgeo.axioms import Axiom, Signature

        class TableScorer:
            def __init__(self, table):
                self.table = table

            def score_tails(self, c, r, tails):
                return np.array([self.table[int(t)] for t in tails])

        rng = np.random.default_rng(31337)
        for _ in range(200):
            n_axioms = int(rng.integers(1, 11))
            n_cands = int(rng.integers(2, 13))
            sig = Signature()
            heads = [sig.intern_class(f"H{i}") for i in range(3)]
            tails = [sig.intern_class(f"T{i}") for i in range(n_cands)]
            sig.intern_relation("r")
            records, triples = [], []
            for _ in range(n_axioms):
                head = heads[int(rng.integers(3))]
                scores = np.round(rng.random(n_cands), 1)
                true_idx = int(rng.integers(n_cands))
                removed = {tails[i] for i in range(n_cands)
                           if rng.random() < 0.3 and i != true_idx}
                scorer = TableScorer(dict(zip(tails, scores)))
                ax = Axiom(Form.GCI2, (head, 0, tails[true_idx]))
                rec = rank_axiom(scorer, ax, tails, {(head, 0, t) for t in removed})
                keep = [i for i in range(n_cands) if tails[i] not in removed]
                raw = brute_rank(list(scores), true_idx)
                frank = brute_rank([scores[i] for i in keep], keep.index(true_idx))
                assert rec.rank == raw and rec.frank == frank
                assert rec.frank <= rec.rank
                records.append(rec)
                triples.append((head, raw, frank))
            got = aggregate(records).metrics()
            expected = brute_aggregate(triples, n_cands)
            for key, val in expected.items():
                if "auc" in key:
                    assert abs(got[key] - val) < 1e-9, key
                else:
                    assert got[key] == pytest.approx(val), key


def test_07_filtering_direction():
    with criterion("07 direction: closure-filtered negatives beat unfiltered on "
                   "macro FMR in >= 7/10 synthetic seeds, < 10 min"):
        t0 = time.time()
        wins = 0
        for seed in range(10):
            kb = hierarchy_kb(seed=seed)
            dc = compute_closure(kb, saturate(kb))
            fmr = {}
            for filtered in (False, True):
                cfg = TrainConfig(epochs=150, batch_size=32768, lr=0.01,
                                  margin=0.1, dim=16, reg_mode="strict",
                                  activation="relu", neg_forms=("gci2",),
                                  filter_negatives=filtered, seed=42)
                model, _ = train(kb, cfg, dc)
                fmr[filtered] = evaluate(model, kb, pool="tails").macro_fmr
            wins += fmr[True] <= fmr[False]
        assert wins >= 7, f"filtered won only {wins}/10"
        assert time.time() - t0 < 600.0


def test_08_naive_frequency_shortcut():
    with criterion("08 naive baseline: tail-frequency skew gives macro FAUC "
                   ">= 0.5 + 0.2"):
        kb = skew_kb(seed=3)
        rel = kb.test[0].args[1]
        train = kb.train_gci2.ids
        nm = naive_fit(train[train[:, 1] == rel], rel, kb.pool("tails"))
        rep = evaluate(nm, kb, pool="tails")
        assert rep.macro_fauc - 0.5 >= 0.2, f"macro FAUC {rep.macro_fauc:.3f}"


def test_09_cmd_train_determinism(tmp_path):
    with criterion("09 determinism: cmd_train twice with one seed -> bit-identical "
                   "checkpoint and report"):
        toy = str(tmp_path / "toy")
        assert cli_main(["gen-toy", toy, "--preset", "basic"]) == 0
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            args = ["train", toy, out, "--preset", "neg-filter",
                    "--set", "train.epochs=6", "--set", "train.dim=6"]
            assert cli_main(args) == 0
            outs.append(out)
        ck = [Path(o, "checkpoint.bin").read_bytes() for o in outs]
        assert ck[0] == ck[1]
        rep = [Path(o, "report.jsonl").read_text() for o in outs]
        assert rep[0] == rep[1]
        summaries = [json.loads(Path(o, "summary.json").read_text()) for o in outs]
        for s in summaries:
            s.pop("checkpoint")   # differs by the output directory itself
        assert summaries[0] == summaries[1]


def test_10_full_scale_capability():
    with criterion("10 capability: one epoch over 300k relation axioms at batch "
                   "32768, dim 50, < 4 GB"):
        kb = scale_kb(n_classes=3000, n_edges=300_000, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=32768, lr=0.01, margin=0.1,
                          dim=50, reg_mode="relaxed", activation="relu",
                          neg_forms=("gci2",), seed=1)
        model, report = train(kb, cfg)
        assert model.all_finite()
        assert len(report.epochs) == 1
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 ** 2
        assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
