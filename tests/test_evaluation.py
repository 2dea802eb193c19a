import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo import evaluation
from elgeo.axioms import BOT, Axiom, Form, Signature, pack_keys, parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.evaluation import (
    EvaluationError, NaiveModel, RankRecord, _rank_rows, aggregate, emit_roc, evaluate,
    naive_fit, rank_axiom, trapezoid,
)
from elgeo.geometry import CHUNK, EmbeddingModel
from elgeo.reasoner import saturate
from elgeo.toygen import basic_kb

from oracles import (
    as_rows, brute_aggregate, brute_rank, brute_trapezoid_auc, decode_all_closure_positives,
    random_kb,
)


class FixedScorer:
    """Score table keyed by tail id; head/relation ignored."""

    def __init__(self, table):
        self.table = table

    def score_tails(self, c, r, tails):
        return np.array([self.table[int(t)] for t in tails])


def one_curve_auc(ranks, n):
    """The area of one curve: ``trapezoid`` with every rank in group 0."""
    return float(trapezoid(ranks, np.zeros(len(ranks), dtype=np.int64), n)[0][0])


def raw_rank(scores, index, tie_mode="optimistic"):
    """Raw rank of candidate ``index`` among tails scored by ``scores``, via rank_axiom."""
    tails = list(range(2, 2 + len(scores)))    # ids past TOP and BOT
    ax = Axiom(Form.GCI2, (0, 0, tails[index]))
    return rank_axiom(FixedScorer(dict(zip(tails, scores))), ax, tails, None, tie_mode).rank


class TestRankRule:
    def test_strict_maximum(self):
        scores = np.array([0.9, 0.5, 0.5, 0.2])
        assert raw_rank(scores, 0) == 1

    def test_tie_conventions(self):
        scores = np.array([0.5, 0.5, 0.5, 0.9])
        assert raw_rank(scores, 0, "optimistic") == 2
        assert raw_rank(scores, 0, "average") == 3

    def test_massive_tie_optimistic_rank_one(self):
        scores = np.zeros(2000)
        assert raw_rank(scores, 7, "optimistic") == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            raw_rank(np.zeros(3), 0, "pessimistic")


class TestRankAxiom:
    def make(self):
        sig = Signature()
        for n in "ABCDE":
            sig.intern_class(n)
        sig.intern_relation("r")
        ax = Axiom(Form.GCI2, (sig.class_id("A"), 0, sig.class_id("C")))
        cands = [sig.class_id(n) for n in "BCDE"]
        return sig, ax, cands

    def test_raw_and_filtered(self):
        sig, ax, cands = self.make()
        scorer = FixedScorer({sig.class_id("B"): 0.9, sig.class_id("C"): 0.5,
                              sig.class_id("D"): 0.7, sig.class_id("E"): 0.1})
        filter_set = {(sig.class_id("A"), 0, sig.class_id("B"))}
        rec = rank_axiom(scorer, ax, cands, filter_set)
        assert rec.rank == 3
        assert rec.frank == 2          # B filtered out
        assert rec.n_cand == 4 and rec.n_fcand == 3
        assert rec.frank <= rec.rank

    def test_true_tail_never_filtered(self):
        sig, ax, cands = self.make()
        scorer = FixedScorer({c: 0.5 for c in cands})
        filter_set = {(sig.class_id("A"), 0, sig.class_id("C"))}
        rec = rank_axiom(scorer, ax, cands, filter_set)
        assert rec.n_fcand == 4

    def test_both_ranks_match_brute_in_each_tie_mode(self):
        rng = np.random.default_rng(53)
        tails = list(range(2, 14))
        for _ in range(100):
            scores = np.round(rng.random(len(tails)), 1)   # coarse values force ties
            idx = int(rng.integers(len(tails)))
            dropped = {i for i in range(len(tails)) if rng.random() < 0.4}
            fset = {(0, 0, tails[i]) for i in dropped}
            keep = [i for i in range(len(tails)) if i == idx or i not in dropped]
            ax = Axiom(Form.GCI2, (0, 0, tails[idx]))
            for mode in ("optimistic", "average"):
                rec = rank_axiom(FixedScorer(dict(zip(tails, scores))), ax, tails, fset, mode)
                assert rec.rank == brute_rank(list(scores), idx, mode)
                assert rec.frank == brute_rank([scores[i] for i in keep], keep.index(idx), mode)
                assert rec.n_fcand == len(keep)

    def test_missing_true_tail(self):
        sig, ax, cands = self.make()
        scorer = FixedScorer({c: 0.0 for c in cands})
        with pytest.raises(EvaluationError, match="true tail"):
            rank_axiom(scorer, ax, cands[:1], None)


class HeadTailScorer:
    """Score table keyed by (head, tail); relation ignored.  Takes ids that
    broadcast together, as ``EmbeddingModel.score_tails`` does."""

    def __init__(self, table):
        self.table = table

    def score_tails(self, c, r, tails):
        return self.table[c, tails]


MODES = ("optimistic", "average")


class TestBlockRanking:
    def kb(self, rng, n_pool, heads, train_share):
        """A KB over pool "cands" with one test axiom per head and train GCI2
        axioms on about ``train_share`` of each test query's other tails."""
        sig = Signature()
        ids = [sig.intern_class(f"C{i}") for i in range(n_pool + 3)]
        for name in ("r", "s"):
            sig.intern_relation(name)
        pool = ids[:n_pool]
        test = [Axiom(Form.GCI2, (h, int(rng.integers(2)), pool[int(rng.integers(n_pool))]))
                for h in heads]
        held_out = {ax.args for ax in test}
        train = {Axiom(Form.GCI2, (ax.args[0], ax.args[1], t)) for ax in test for t in pool
                 if (ax.args[0], ax.args[1], t) not in held_out and rng.random() < train_share}
        return build_kb(sig, as_rows(sorted(train, key=lambda ax: ax.args)),
                        test=as_rows(test), pools={"cands": pool})

    def test_records_match_rank_axiom_and_brute_across_blocks(self):
        from elgeo.evaluation import BLOCK
        rng = np.random.default_rng(59)
        n_pool = BLOCK // 3 + 1    # two queries a block, and the pool divides no block
        heads = [2 + i % 3 for i in range(7)]   # seven queries span four blocks
        for share in (0.0, 0.3):   # filter off, then on
            kb = self.kb(rng, n_pool, heads, share)
            pool = kb.pool("cands")
            # few distinct scores, so most candidates tie with some other
            scorer = HeadTailScorer(rng.integers(0, 5, size=(5, kb.sig.n_classes)) / 4.0)
            fset = {ax.args for ax in kb.train_gci2}
            for mode in MODES:
                rep = evaluate(scorer, kb, pool="cands", tie_mode=mode)
                assert len(rep.records) == len(heads)
                for ax, rec in zip(kb.test, rep.records):
                    one = rank_axiom(scorer, ax, pool, fset, mode)
                    assert vars(rec) == vars(one)
                    c, r, d = ax.args
                    scores = scorer.table[c, pool].tolist()
                    idx = pool.index(d)
                    keep = [i for i, t in enumerate(pool) if t == d or (c, r, t) not in fset]
                    assert rec.rank == brute_rank(scores, idx, mode)
                    assert rec.frank == brute_rank([scores[i] for i in keep],
                                                   keep.index(idx), mode)
                    assert rec.n_cand == n_pool and rec.n_fcand == len(keep)

    def test_duplicate_true_tail_kept_and_true_axiom_never_filtered(self):
        pool = [2, 3, 4, 3, 5]
        scores = [0.5, 0.5, 0.9, 0.5, 0.1]
        scorer = FixedScorer(dict(zip(pool, scores)))
        ax = Axiom(Form.GCI2, (6, 0, 3))
        for mode in MODES:
            rec = rank_axiom(scorer, ax, pool, {(6, 0, 3), (6, 0, 2)}, mode)
            assert rec.n_cand == 5 and rec.n_fcand == 4   # 2 dropped, both copies of 3 kept
            assert rec.rank == brute_rank(scores, 1, mode)
            assert rec.frank == brute_rank([0.5, 0.9, 0.5, 0.1], 0, mode)

    def test_missing_tail_in_a_later_block(self):
        rng = np.random.default_rng(61)
        n_pool = evaluation.BLOCK // 2 + 1   # one query a block
        kb = self.kb(rng, n_pool, [2, 3, 4, 5], 0.0)
        kb.pools["cands"] = [t for t in kb.pools["cands"] if t != kb.test[2].args[2]]
        scorer = HeadTailScorer(np.zeros((6, kb.sig.n_classes)))
        with pytest.raises(EvaluationError,
                           match="^true tail not among candidates for head id 4$"):
            evaluate(scorer, kb, pool="cands")

    def test_score_tails_per_row_ids_match_scalar_calls(self):
        sig = Signature()
        for i in range(40):
            sig.intern_class(f"C{i}")
        for name in ("r", "s", "t"):
            sig.intern_relation(name)
        rng = np.random.default_rng(67)
        model = EmbeddingModel.create(sig, dim=5)
        model.params[:] = rng.normal(size=model.params.shape)
        tails = rng.integers(2, 40, size=CHUNK - 3)   # queries straddle chunk boundaries
        heads, rels = rng.integers(0, 40, size=5), rng.integers(0, 3, size=5)
        per_query = np.concatenate([model.score_tails(int(c), int(r), tails)
                                    for c, r in zip(heads, rels)])
        n = len(tails)
        block = model.score_tails(np.repeat(heads, n), np.repeat(rels, n),
                                  np.tile(tails, len(heads)))
        assert np.array_equal(block, per_query)


    def test_one_score_tails_call_per_block(self, monkeypatch):
        calls = []

        class CountingScorer(HeadTailScorer):
            def score_tails(self, c, r, tails):
                calls.append((np.shape(c), np.shape(r), np.shape(tails)))
                return super().score_tails(c, r, tails)

        monkeypatch.setattr(evaluation, "BLOCK", 10)   # a pool of 4: two queries a block
        rows = np.array([(2 + i, 0, 5 + i % 4) for i in range(7)])
        scorer = CountingScorer(np.random.default_rng(3).random((9, 9)))
        records = _rank_rows(scorer, rows, [5, 6, 7, 8], np.zeros(0, dtype=np.int64), (9, 1),
                             "optimistic")
        assert len(records) == 7
        assert calls == [((2, 1), (2, 1), (4,))] * 3 + [((1, 1), (1, 1), (4,))]


class TestFilterRange:
    """Filtered ranks from each query's run of train keys, against brute force.  The
    key space is 12 classes by 3 relations, so class 11 and relation 2 are its edges."""

    DIMS = (12, 3)

    def check(self, queries, pool, train, mode):
        scorer = HeadTailScorer(np.random.default_rng(len(train)).integers(0, 4, (12, 12)) / 2.0)
        keys = np.sort(pack_keys(Form.GCI2, np.array(train, dtype=np.int64).reshape(-1, 3).T,
                                 *self.DIMS))
        records = _rank_rows(scorer, np.array(queries), pool, keys, self.DIMS, mode)
        train = set(train)
        for (c, r, d), rec in zip(queries, records):
            scores = scorer.table[c, pool].tolist()
            idx = pool.index(d)
            keep = [i for i, t in enumerate(pool) if t == d or (c, r, t) not in train]
            assert rec.rank == brute_rank(scores, idx, mode)
            assert rec.frank == brute_rank([scores[i] for i in keep], keep.index(idx), mode)
            assert (rec.n_cand, rec.n_fcand) == (len(pool), len(keep))
        return [rec.n_cand - rec.n_fcand for rec in records]

    @pytest.mark.parametrize("mode", MODES)
    def test_keys_next_to_a_run_are_not_filtered(self, mode):
        pool = list(range(12))
        queries = [(5, 1, 4), (6, 0, 2), (0, 0, 3), (11, 2, 7)]
        train = [(5, 2, 0), (5, 0, 11), (6, 1, 0), (4, 1, 11),   # around (5, 1, *)
                 (5, 1, 0), (5, 1, 11), (5, 1, 8),               # inside (5, 1, *)
                 (5, 2, 11),                                     # just before (6, 0, *)
                 (0, 0, 0), (0, 0, 11), (0, 1, 0),               # the first run and its next
                 (11, 2, 0), (11, 2, 11), (11, 1, 11), (10, 2, 11)]   # the last run
        assert self.check(queries, pool, train, mode) == [3, 0, 2, 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_a_train_tail_outside_the_pool_drops_nothing(self, mode):
        pool = [2, 3, 4, 5, 6, 7, 8]
        assert self.check([(5, 1, 4)], pool, [(5, 1, 10), (5, 1, 0), (5, 1, 3)], mode) == [1]

    @pytest.mark.parametrize("mode", MODES)
    def test_a_true_tail_that_is_a_train_tail_is_kept(self, mode):
        pool = [2, 3, 4, 5, 6, 7, 8]
        train = [(5, 1, 4), (5, 1, 6)]
        assert self.check([(5, 1, 4), (5, 1, 6), (5, 1, 7)], pool, train, mode) == [1, 1, 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_every_copy_of_a_train_tail_in_the_pool_is_dropped(self, mode):
        pool = [2, 3, 2, 4, 3]
        assert self.check([(5, 1, 4), (5, 1, 3)], pool, [(5, 1, 2), (5, 1, 3)], mode) == [4, 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_an_empty_train_split_filters_nothing(self, mode):
        assert self.check([(5, 1, 4), (0, 2, 11)], list(range(12)), [], mode) == [0, 0]
        sig = Signature()
        a, b, c = (sig.intern_class(name) for name in "ABC")
        sig.intern_relation("r")
        kb = build_kb(sig, as_rows([Axiom(Form.GCI0, (a, b))]),
                      test=as_rows([Axiom(Form.GCI2, (a, 0, c)), Axiom(Form.GCI2, (b, 0, a))]))
        assert len(kb.train_gci2) == 0
        scorer = HeadTailScorer(np.random.default_rng(1).random((5, 5)))
        rep = evaluate(scorer, kb, tie_mode=mode)
        assert [(r.rank, r.n_fcand) for r in rep.records] == \
            [(r.frank, r.n_cand) for r in rep.records]


def planted_model(activation):
    """A model that plants ties and near-ties against ``score_bounds``.  Classes 2-9
    share one radius and a center near 1e3 up to 1e-7, and relation 0 is nearly 0, so
    x_c + v_0 - x_t is tiny next to ||x_c + v_0|| and the expanded square misorders
    them.  10-12 copy 13 (exact ties), 14 is 13 one ulp away (a near tie), and 20-25
    have radius 10, so relu scores each -0.0 from any small head (its flat region)."""
    rng = np.random.default_rng(71)
    sig = Signature()
    for i in range(38):
        sig.intern_class(f"k{i}")
    for name in ("r", "s"):
        sig.intern_relation(name)
    m = EmbeddingModel.create(sig, dim=6, margin=0.1, activation=activation, leaky_slope=0.1)
    m.params[:] = rng.normal(scale=0.5, size=m.params.shape)
    m.centers[2:10] = rng.normal(scale=1e3, size=6) + rng.normal(scale=1e-7, size=(8, 6))
    m.radii[2:10] = -0.2
    m.rel_vectors[0] = rng.normal(scale=1e-9, size=6)
    m.centers[10:13], m.radii[10:13] = m.centers[13], m.radii[13]
    m.centers[14], m.radii[14] = m.centers[13], m.radii[13]
    m.centers[14, 0] = np.nextafter(m.centers[13, 0], np.inf)
    m.radii[20:26] = 10.0
    return m


class TestCertifiedRanking:
    """Ranks from ``score_bounds`` plus rescoring equal brute force on ``score_tails``'
    own scores, on planted cancellations, exact ties and near ties."""

    # cancellations, then true tails with exact copies or a near copy, then true tails
    # in relu's flat region, then plain queries
    QUERIES = [(2, 0, 5), (3, 0, 7), (4, 0, 2), (9, 0, 9), (15, 1, 13), (16, 0, 10),
               (17, 1, 14), (18, 1, 20), (19, 0, 25), (26, 1, 22), (27, 0, 30), (28, 1, 31),
               (29, 0, 12)]
    POOL = np.array([*range(2, 40), 13, 5, 20, 20, 7])   # repeated ids, true tails among them
    TRAIN = [(2, 0, 3), (15, 1, 10), (18, 1, 21), (27, 0, 13)]

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    @pytest.mark.parametrize("mode", MODES)
    def test_planted_ties_rank_as_brute_force_does(self, activation, mode, monkeypatch):
        m = planted_model(activation)
        pool, dims = self.POOL, (m.n_classes, m.n_relations)
        monkeypatch.setattr(evaluation, "BLOCK", 2 * len(pool) + 1)   # two queries a block
        keys = np.sort(pack_keys(Form.GCI2, np.array(self.TRAIN).T, *dims))
        records = _rank_rows(m, np.array(self.QUERIES), pool, keys, dims, mode)
        train = set(self.TRAIN)
        for (c, r, d), rec in zip(self.QUERIES, records):
            scores = m.score_tails(c, r, pool).tolist()
            idx = pool.tolist().index(d)
            keep = [i for i, t in enumerate(pool) if t == d or (c, r, t) not in train]
            assert rec.rank == brute_rank(scores, idx, mode)
            assert rec.frank == brute_rank([scores[i] for i in keep], keep.index(idx), mode)
            assert (rec.n_cand, rec.n_fcand) == (len(pool), len(keep))

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_the_planted_cases_defeat_the_approximation(self, activation):
        """Ranking from the approximate scores alone would go wrong: some candidate sits
        on the other side of its true tail, and some tie exactly."""
        m = planted_model(activation)
        rows, pool = np.array(self.QUERIES), self.POOL
        scores, err = m.score_bounds(pool)(rows[:, 0], rows[:, 1])
        pinned = m.score_tails(rows[:, :1], rows[:, 1:2], pool)
        at = np.arange(len(rows)), (pool == rows[:, 2:]).argmax(axis=1)
        side = np.sign(pinned - pinned[at][:, None])
        assert (np.sign(scores - scores[at][:, None]) != side).any()
        assert ((side == 0) & (pool != rows[:, 2:])).sum() >= 4
        if activation == "relu":
            flat = (err == 0.0) & (pinned == 0.0)
            assert flat[at].sum() == 3 and flat.sum() > 3 * 6

    def test_memory_stays_within_a_multiple_of_a_block(self):
        """Peak traced memory stays under 8 blocks of float64s (about 5 at this change)
        whether 40 queries or 400 are ranked against a pool of 4,096: one (400, 4,096)
        array alone would take 25."""
        from elgeo.evaluation import BLOCK
        rng = np.random.default_rng(73)
        sig = Signature()
        for i in range(4096):
            sig.intern_class(f"k{i}")
        for name in ("r", "s", "t"):
            sig.intern_relation(name)
        m = EmbeddingModel.create(sig, dim=16, activation="leaky_relu")
        pool, dims = np.arange(2, 4098), (m.n_classes, m.n_relations)
        assert 400 * len(pool) > 3 * 8 * BLOCK
        for q in (40, 400):
            rows = np.stack([rng.choice(pool, q), rng.integers(3, size=q), rng.choice(pool, q)],
                            axis=1)
            tracemalloc.start()
            try:
                records = _rank_rows(m, rows, pool, np.zeros(0, dtype=np.int64), dims, "average")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(records) == q
            assert peak < 8 * BLOCK * 8


class TestAggregate:
    def test_macro_mean(self):
        recs = [RankRecord(5, 0, 1, rank=1, frank=1, n_cand=4, n_fcand=4),
                RankRecord(5, 0, 2, rank=3, frank=3, n_cand=4, n_fcand=4)]
        rep = aggregate(recs)
        assert rep.macro_mr == pytest.approx(2.0)

    def test_empty_records_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate([])


def random_records(rng, n_axioms, n_cands):
    """Random score tables -> records, plus (head, rank, frank) for the oracle."""
    records = []
    triples = []
    sig = Signature()
    heads = [sig.intern_class(f"H{i}") for i in range(3)]
    tails = [sig.intern_class(f"T{i}") for i in range(n_cands)]
    sig.intern_relation("r")
    for _ in range(n_axioms):
        head = heads[int(rng.integers(len(heads)))]
        scores = np.round(rng.random(n_cands), 1)   # coarse values force ties
        true_idx = int(rng.integers(n_cands))
        filtered = {tails[i] for i in range(n_cands)
                    if rng.random() < 0.3 and i != true_idx}
        scorer = FixedScorer(dict(zip(tails, scores)))
        ax = Axiom(Form.GCI2, (head, 0, tails[true_idx]))
        fset = {(head, 0, t) for t in filtered}
        rec = rank_axiom(scorer, ax, tails, fset)
        records.append(rec)
        # oracle recomputation from the raw table by brute loops
        raw = brute_rank(list(scores), true_idx)
        keep = [i for i in range(n_cands) if tails[i] not in filtered]
        fidx = keep.index(true_idx)
        frank = brute_rank([scores[i] for i in keep], fidx)
        triples.append((head, raw, frank))
        assert rec.rank == raw and rec.frank == frank
    return records, triples


class TestMetricOracle:
    def test_aggregates_match_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n_axioms = int(rng.integers(1, 11))
            n_cands = int(rng.integers(2, 13))
            records, triples = random_records(rng, n_axioms, n_cands)
            rep = aggregate(records)
            expected = brute_aggregate(triples, n_cands)
            got = rep.metrics()
            for key, val in expected.items():
                if "auc" in key:
                    assert abs(got[key] - val) < 1e-9, key
                else:
                    assert got[key] == pytest.approx(val), key
            for rec in records:
                assert rec.frank <= rec.rank

    def test_trapezoid_matches_brute(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            ranks = rng.integers(1, n + 1, size=int(rng.integers(1, 20)))
            mine = one_curve_auc(ranks, n)
            brute = brute_trapezoid_auc(ranks.tolist(), n)
            assert abs(mine - brute) < 1e-12

    def test_hits_equals_rank_cdf(self):
        rng = np.random.default_rng(47)
        ranks = rng.integers(1, 300, size=500)
        recs = [RankRecord(0, 0, 0, rank=int(r), frank=int(r), n_cand=300,
                           n_fcand=300) for r in ranks]
        rep = aggregate(recs)
        assert rep.hits10 == pytest.approx((ranks <= 10).mean())
        assert rep.hits100 == pytest.approx((ranks <= 100).mean())


def per_head_loop(ranks, heads, n):
    """Micro MR and micro AUC as a loop over head classes, one NumPy call per head."""
    groups = [np.flatnonzero(heads == h) for h in np.unique(heads)]
    return (float(np.mean([ranks[g].mean() for g in groups])),
            float(np.mean([one_curve_auc(ranks[g], n) for g in groups])))


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_micro_aggregates_match_per_head_loop(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 60)), int(rng.integers(1, 80))
    heads = rng.integers(0, int(rng.integers(1, 12)), size=k)
    ranks = rng.integers(2, 2 * n + 1, size=k) / 2.0   # half ranks, as ties average
    franks = np.minimum(ranks, rng.integers(2, 2 * n + 1, size=k) / 2.0)
    rep = aggregate([RankRecord(int(h), 0, 0, rank=float(a), frank=float(b), n_cand=n,
                                n_fcand=n) for h, a, b in zip(heads, ranks, franks)])
    assert (rep.micro_mr, rep.micro_auc) == per_head_loop(ranks, heads, n)
    assert (rep.micro_fmr, rep.micro_fauc) == per_head_loop(franks, heads, n)


class TestEvaluate:
    def kb(self):
        text = ("GCI2\tA\tr\tB\nGCI2\tA\tr\tC\nGCI0\tB\tBp\n"
                "GCI0\tX1\tX1\nGCI0\tX2\tX2\n")
        rows, sig = parse_normalized(text)
        test = [Axiom(Form.GCI2, (sig.class_id("A"), 0, sig.class_id("Bp"))),
                Axiom(Form.GCI2, (sig.class_id("A"), 0, sig.class_id("X1")))]
        return build_kb(sig, rows, test=as_rows(test))

    def test_split_entailed_vs_novel_curves(self):
        kb = self.kb()
        dc = compute_closure(kb, saturate(kb))
        scorer = FixedScorer({c: 0.1 * c for c in range(kb.sig.n_classes)})
        rep = evaluate(scorer, kb, dc)
        flags = [r.entailed for r in rep.records]
        assert flags == [True, False]
        assert "entailed" in rep.roc and "novel" in rep.roc

    def test_bot_head_is_entailed(self):
        # BOT is below every class, so BOT subclass-of some r.X holds for every X
        rows, sig = parse_normalized("GCI2\tA\tr\tB\nGCI0\tX1\tX1\n")
        kb = build_kb(sig, rows, test=as_rows([Axiom(Form.GCI2, (BOT, 0, sig.class_id("X1")))]))
        dc = compute_closure(kb, saturate(kb))
        scorer = FixedScorer({c: 0.1 * c for c in range(kb.sig.n_classes)})
        assert [r.entailed for r in evaluate(scorer, kb, dc).records] == [True]

    def test_closure_positives_added(self):
        kb = self.kb()
        dc = compute_closure(kb, saturate(kb))
        scorer = FixedScorer({c: 0.1 * c for c in range(kb.sig.n_classes)})
        rep = evaluate(scorer, kb, dc, closure_positives=True)
        assert all(r.source == "closure" and r.entailed for r in rep.closure_records)
        skip = {ax.args for ax in kb.train_gci2} | {ax.args for ax in kb.test}
        for rec in rep.closure_records:
            assert (rec.head, rec.rel, rec.tail) not in skip

    def test_closure_positives_without_a_closure_are_refused(self):
        kb = self.kb()
        scorer = FixedScorer({c: 0.1 * c for c in range(kb.sig.n_classes)})
        with pytest.raises(EvaluationError, match="closure positives need a deductive closure"):
            evaluate(scorer, kb, closure_positives=True)

    def test_closure_positives_skip_every_split(self):
        kb = basic_kb()
        dc = compute_closure(kb, saturate(kb))
        scorer = FixedScorer({c: 0.1 * c for c in range(kb.sig.n_classes)})
        splits = {ax.args for ax in [*kb.train_gci2, *kb.valid, *kb.test]}
        for split in ("test", "valid"):
            rep = evaluate(scorer, kb, dc, closure_positives=True, split=split)
            assert rep.closure_records
            assert not splits & {(r.head, r.rel, r.tail) for r in rep.closure_records}

    def test_closure_positives_match_decoding_every_key(self):
        # head pools shuffled, with repeats and with heads that head no GCI2 key
        rng = np.random.default_rng(89)
        seen = Counter()
        for i in range(40):
            base = random_kb(rng, n_classes=int(rng.integers(4, 15)), n_relations=2,
                             n_axioms=int(rng.integers(10, 41)))
            train = [ax for form in base.axioms for ax in base.axioms[form]]
            classes, asserted = range(2, base.sig.n_classes), {ax.args for ax in train}
            test = {(int(rng.choice(classes)), int(rng.integers(2)), int(rng.choice(classes)))
                    for _ in range(4)} - asserted
            if not test:
                continue
            tails = sorted({d for _, _, d in test} | set(rng.choice(classes, 3).tolist()))
            kb = build_kb(base.sig, as_rows(train),
                          test=as_rows(Axiom(Form.GCI2, args) for args in sorted(test)),
                          pools={"tails": tails})
            dc = compute_closure(kb, saturate(kb))
            keyed = set(dc.ids(Form.GCI2, dc.keys[Form.GCI2])[:, 0].tolist())
            heads = rng.choice(range(base.sig.n_classes), size=int(rng.integers(1, 12)))
            kb.pools["heads"] = [int(h) for h in heads if h != BOT]
            if not kb.pools["heads"]:
                continue
            seen["repeated head"] += len(kb.pools["heads"]) > len(set(kb.pools["heads"]))
            seen["unkeyed head"] += bool(set(kb.pools["heads"]) - keyed)
            scorer = FixedScorer({c: 0.1 * c for c in range(kb.sig.n_classes)})
            for pool, head_pool in (("tails", "heads"), ("tails", None), (None, "heads")):
                rep = evaluate(scorer, kb, dc, pool=pool, head_pool=head_pool,
                               closure_positives=True)
                expected = decode_all_closure_positives(
                    dc, kb, kb.test, kb.pool(head_pool or pool), kb.pool(pool))
                assert [(r.head, r.rel, r.tail) for r in rep.closure_records] == expected, i
                seen["closure record"] += len(expected)
        assert min(seen.values()) > 0 and len(seen) == 3, seen

    def test_record_wise_fmr_bound(self):
        kb = self.kb()
        scorer = FixedScorer({c: float(c % 3) for c in range(kb.sig.n_classes)})
        rep = evaluate(scorer, kb)
        for rec in rep.records:
            assert rec.frank <= rec.rank

    def test_empty_test_split(self):
        rows, sig = parse_normalized("GCI2\tA\tr\tB\n")
        kb = build_kb(sig, rows)
        with pytest.raises(EvaluationError, match="test split is empty"):
            evaluate(FixedScorer({}), kb)


def ids(*axioms):
    """GCI2 axioms as the (k, 3) id array naive_fit takes."""
    return np.array([ax.args for ax in axioms], dtype=np.int64).reshape(-1, 3)


class TestNaive:
    def sig(self):
        sig = Signature()
        pools = {"h": [sig.intern_class(n) for n in ("A", "B")],
                 "t": [sig.intern_class(n) for n in ("X", "Y", "Z")]}
        sig.intern_relation("r")
        return sig, pools

    def test_fit_single_pair(self):
        sig, pools = self.sig()
        ax = Axiom(Form.GCI2, (sig.class_id("A"), 0, sig.class_id("X")))
        nm = naive_fit(ids(ax), 0, pools["t"])
        assert nm.pair_count == 1
        assert nm.score_tails(sig.class_id("A"), 0, [sig.class_id("X")])[0] == 1.0
        assert nm.score_tails(sig.class_id("A"), 0, [sig.class_id("Y")])[0] == 0.0

    def test_symmetric_mirrors(self):
        sig = Signature()
        pool = [sig.intern_class(n) for n in ("P1", "P2", "P3")]
        sig.intern_relation("r")
        ax = Axiom(Form.GCI2, (pool[0], 0, pool[1]))
        nm = naive_fit(ids(ax), 0, pool, symmetric=True)
        assert nm.pair_count == 2
        assert nm.score_tails(pool[2], 0, [pool[0]])[0] == pytest.approx(0.5)
        assert nm.score_tails(pool[2], 0, [pool[1]])[0] == pytest.approx(0.5)

    def test_empty_train_scores_zero(self):
        sig, pools = self.sig()
        nm = naive_fit(ids(), 0, pools["t"])
        assert nm.score_tails(pools["h"][0], 0, [pools["t"][0]])[0] == 0.0

    def test_column_sums_normalized(self):
        sig, pools = self.sig()
        axs = [Axiom(Form.GCI2, (pools["h"][0], 0, pools["t"][0])),
               Axiom(Form.GCI2, (pools["h"][1], 0, pools["t"][0])),
               Axiom(Form.GCI2, (pools["h"][0], 0, pools["t"][1]))]
        nm = naive_fit(ids(*axs), 0, pools["t"])
        # column sum 2 over 3 total entries
        assert nm.score_tails(pools["h"][1], 0, [pools["t"][0]])[0] == pytest.approx(2 / 3)
        total = sum(nm.score_tails(pools["h"][0], 0, [t])[0] for t in pools["t"])
        assert total == pytest.approx(1.0)

    def test_head_invariance(self):
        sig, pools = self.sig()
        axs = [Axiom(Form.GCI2, (pools["h"][0], 0, pools["t"][0]))]
        nm = naive_fit(ids(*axs), 0, pools["t"])
        for t in pools["t"]:
            assert nm.score_tails(pools["h"][0], 0, [t])[0] == \
                nm.score_tails(pools["h"][1], 0, [t])[0]

    def test_scores_match_dict_formula(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            col_sums = {int(t): int(rng.integers(1, 9))
                        for t in rng.choice(40, size=int(rng.integers(0, 12)), replace=False)}
            pair_count = sum(col_sums.values())
            counts = np.zeros(max(col_sums, default=-1) + 1, dtype=np.int64)
            counts[list(col_sums)] = list(col_sums.values())
            nm = NaiveModel(counts, pair_count)
            tails = rng.integers(-3, 60, size=100)   # ids outside every table too
            expected = np.array([col_sums.get(int(t), 0) / pair_count if pair_count else 0.0
                                 for t in tails])
            assert np.array_equal(nm.score_tails(0, 0, tails), expected)

    def test_tail_outside_pool(self):
        sig, pools = self.sig()
        stray = sig.intern_class("W")
        ax = Axiom(Form.GCI2, (pools["h"][0], 0, stray))
        with pytest.raises(EvaluationError, match="outside the tail pool"):
            naive_fit(ids(ax), 0, pools["t"])

    def test_wrong_relation(self):
        sig, pools = self.sig()
        sig.intern_relation("s")
        ax = Axiom(Form.GCI2, (pools["h"][0], 1, pools["t"][0]))
        with pytest.raises(EvaluationError, match="does not match"):
            naive_fit(ids(ax), 0, pools["t"])


class TestEmitRoc:
    def test_header_and_rows(self, tmp_path):
        recs = [RankRecord(0, 0, 1, rank=1, frank=1, n_cand=4, n_fcand=4),
                RankRecord(0, 0, 2, rank=2, frank=2, n_cand=4, n_fcand=4),
                RankRecord(0, 0, 3, rank=4, frank=3, n_cand=4, n_fcand=4)]
        rep = aggregate(recs)
        out = tmp_path / "roc.csv"
        emit_roc(rep, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "curve_name,fpr,tpr"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"raw", "filtered"}
        # points ordered by fpr within each curve
        for name in names:
            xs = [float(l.split(",")[1]) for l in lines[1:] if l.startswith(name)]
            assert xs == sorted(xs)

    def test_split_curves_present(self, tmp_path):
        recs = [RankRecord(0, 0, 1, rank=1, frank=1, n_cand=4, n_fcand=4,
                           entailed=True),
                RankRecord(0, 0, 2, rank=2, frank=2, n_cand=4, n_fcand=4,
                           entailed=False)]
        rep = aggregate(recs)
        out = tmp_path / "roc.csv"
        emit_roc(rep, str(out))
        names = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert names == {"raw", "filtered", "entailed", "novel"}

    def test_empty_report_header_only(self, tmp_path):
        rep = aggregate([RankRecord(0, 0, 1, rank=1, frank=1, n_cand=2, n_fcand=2)])
        rep.roc = {}
        out = tmp_path / "roc.csv"
        emit_roc(rep, str(out))
        assert out.read_text().strip() == "curve_name,fpr,tpr"
