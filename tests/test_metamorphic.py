"""Metamorphic properties: results that must not change when the input is
reordered, renamed or written out and read back.

None of them names a representation, so they hold for any rewrite of the
closure, the file formats or the ranking that computes the same thing.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from elgeo.axioms import (
    GCI_FORMS, Axiom, AxiomRows, Form, Signature, format_row, parse_normalized,
    serialize_normalized,
)
from elgeo.closure import compute_closure, dump_closure, load_closure_dump
from elgeo.dataset import build_kb, load_dataset, save_dataset
from elgeo.evaluation import TIE_WEIGHT, aggregate, rank_axiom
from elgeo.reasoner import saturate

from oracles import as_rows, random_kb

SEEDS = st.integers(0, 2 ** 32 - 1)


def small_kb(seed):
    rng = np.random.default_rng(seed)
    kb = random_kb(rng, n_classes=int(rng.integers(3, 10)), n_relations=2,
                   n_axioms=int(rng.integers(3, 25)))
    return kb, rng


def closure_of(kb):
    return compute_closure(kb, saturate(kb))


def read_files(path, suffix=""):
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(suffix):
            with open(os.path.join(path, name), "rb") as f:
                out[name] = f.read()
    return out


@given(seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_closure_ignores_line_order_and_name_ids(seed):
    kb, rng = small_kb(seed)
    lines = serialize_normalized(as_rows([ax for rows in kb.axioms.values() for ax in rows]),
                                 kb.sig).splitlines()
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    sig = Signature()   # every name gets a fresh id, in a random order; TOP and BOT keep 0 and 1
    for i in rng.permutation(np.arange(2, kb.sig.n_classes)):
        sig.intern_class(kb.sig.class_name(int(i)))
    for i in rng.permutation(kb.sig.n_relations):
        sig.intern_relation(kb.sig.relation_name(int(i)))
    rows, _ = parse_normalized("\n".join(shuffled), sig)
    other = build_kb(sig, rows)
    dc, dc2 = closure_of(kb), closure_of(other)

    for form in GCI_FORMS:
        assert {format_row(form, args, kb.sig) for args in dc.sets[form]} == \
            {format_row(form, args, sig) for args in dc2.sets[form]}, form
    to_other = [sig.class_id(kb.sig.class_name(c)) for c in range(kb.sig.n_classes)]
    for c in range(kb.sig.n_classes):
        for d in range(kb.sig.n_classes):
            assert dc.contains(AxiomRows(Form.GCI1_BOT, [(c, d)]))[0] == \
                dc2.contains(AxiomRows(Form.GCI1_BOT, [(to_other[c], to_other[d])]))[0]


@given(seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_closure_dump_of_a_loaded_dump_is_byte_identical(seed):
    kb, _ = small_kb(seed)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        dump_closure(closure_of(kb), first)
        dump_closure(load_closure_dump(first, kb), second)
        assert read_files(first, ".tsv") == read_files(second, ".tsv")


@given(seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_saved_dataset_is_a_fixpoint_of_load_and_save(seed):
    kb, rng = small_kb(seed)
    # move some GCI2 axioms to held-out splits and name a pool, so every file is written
    train = [ax for rows in kb.axioms.values() for ax in rows]
    gci2 = [i for i, ax in enumerate(train) if ax.form is Form.GCI2]
    held = {i: ("valid", "test")[int(rng.integers(2))]
            for i in gci2[:int(rng.integers(len(gci2) + 1))]}
    pool = [int(c) for c in rng.permutation(np.arange(2, kb.sig.n_classes))[:3]]
    kb = build_kb(kb.sig, as_rows([ax for i, ax in enumerate(train) if i not in held]),
                  as_rows([train[i] for i, s in held.items() if s == "valid"]),
                  as_rows([train[i] for i, s in held.items() if s == "test"]), {"probe": pool})
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        save_dataset(first, kb)
        save_dataset(second, load_dataset(first))
        assert read_files(first) == read_files(second)


class TableScorer:
    """Scores from a table keyed by tail id; head and relation are ignored."""

    def __init__(self, table):
        self.table = table

    def score_tails(self, c, r, tails):
        return self.table[np.asarray(tails)]


@given(seed=SEEDS, tie_mode=st.sampled_from(sorted(TIE_WEIGHT)))
@settings(max_examples=60, deadline=None)
def test_ranks_ignore_candidate_order(seed, tie_mode):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    # few distinct scores, so most candidates tie with some other
    scorer = TableScorer(rng.integers(-3, 3, size=n + 2).astype(float))
    pool = np.arange(2, n + 2)
    records, shuffled = [], []
    for _ in range(int(rng.integers(1, 8))):
        c, d = (int(x) for x in rng.choice(pool, size=2))
        ax = Axiom(Form.GCI2, (c, 0, d))
        filter_set = {(c, 0, int(t)) for t in rng.choice(pool, size=n // 2)}
        rec = rank_axiom(scorer, ax, pool, filter_set, tie_mode)
        again = rank_axiom(scorer, ax, rng.permutation(pool), filter_set, tie_mode)
        assert (again.rank, again.frank, again.n_fcand) == (rec.rank, rec.frank, rec.n_fcand)
        records.append(rec)
        shuffled.append(again)
    # the aggregates do not depend on the order of the test split either
    rep = aggregate(records, tie_mode)
    again = aggregate([shuffled[i] for i in rng.permutation(len(shuffled))], tie_mode)
    assert (again.metrics(), again.roc) == (rep.metrics(), rep.roc)
