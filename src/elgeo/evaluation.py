"""Ranking evaluation: hits@k, macro/micro mean rank and AUC, filtered variants.

Every test axiom's true tail is ranked among the candidate tails by one
rule: 1, plus 1 for each candidate scoring higher, plus 1/2 for each other
candidate scoring the same in ``average`` tie mode (``optimistic``, the
default, adds nothing for ties).  The raw rank counts every candidate, the
filtered rank only those not asserted in the train split (the true tail is
never removed).  Aggregate AUCs integrate, with the trapezoid rule, the
curve x = rank_value/N, y = fraction of axioms ranked at or below that
value, built over the distinct observed ranks; micro variants average the
per-head-class aggregates.  Because the grid of that curve is the set of
observed rank values, filtered AUC can land slightly under raw AUC even
though per-record filtered ranks never exceed raw ranks; per-record AUCs
(over the common raw candidate count) never cross.

The naive baseline scores a tail by its train-set frequency alone,
optionally symmetrized, and plugs into the same ranking pipeline.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .axioms import Axiom, Form, pack_keys
from .closure import DeductiveClosure
from .dataset import KnowledgeBase
from .geometry import CHUNK


class EvaluationError(Exception):
    pass


@dataclass
class RankRecord:
    head: int
    rel: int
    tail: int
    rank: float
    frank: float
    n_cand: int
    n_fcand: int
    source: str = "test"          # test | closure
    entailed: bool | None = None

    @property
    def auc(self) -> float:
        """Per-record AUC over the raw candidate count."""
        return (self.n_cand - self.rank) / (self.n_cand - 1) if self.n_cand > 1 else 1.0

    @property
    def fauc(self) -> float:
        """Per-record filtered AUC over the same raw candidate count."""
        return (self.n_cand - self.frank) / (self.n_cand - 1) if self.n_cand > 1 else 1.0


# weight of each other candidate whose score equals the true tail's
TIE_WEIGHT = {"optimistic": 0.0, "average": 0.5}

# Rows (queries x candidates) per score_tails call: bounds the blocks whatever the pool size.
BLOCK = 16 * CHUNK


def _gci2_rows(axioms: list[Axiom]) -> np.ndarray:
    return np.fromiter(chain.from_iterable(ax.args for ax in axioms), np.int64,
                       3 * len(axioms)).reshape(-1, 3)


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in ``sorted_keys``, by binary search."""
    if not len(sorted_keys):
        return np.zeros(keys.shape, dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def _rank_rows(scorer, rows: np.ndarray, candidates, train_keys: np.ndarray, dims,
               tie_mode: str) -> list[RankRecord]:
    """Rank the tail of each (head, rel, tail) row among the candidates, one
    score_tails call per block of queries, with one head and relation id per
    candidate row.  The filtered rank leaves out each candidate whose key is in
    the sorted ``train_keys`` (``pack_keys`` over ``dims``), unless it equals
    the true tail."""
    pool = np.asarray(candidates, dtype=np.int64)
    n = len(pool)
    step = max(1, BLOCK // max(n, 1))
    records = []
    for block in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
        c, r, d = block.T
        true = pool == d[:, None]
        missing = ~true.any(axis=1)
        if missing.any():
            raise EvaluationError(
                f"true tail not among candidates for head id {c[missing.argmax()]}")
        if tie_mode not in TIE_WEIGHT:
            raise ValueError(f"unknown tie mode: {tie_mode!r}")
        tie = TIE_WEIGHT[tie_mode]
        cols = (np.repeat(c, n), np.repeat(r, n), np.tile(pool, len(d)))
        scores = np.reshape(scorer.score_tails(*cols), true.shape)
        s = scores[np.arange(len(d)), true.argmax(axis=1), None]
        # each candidate's share of the rank; the true tail's own tie is taken back
        ahead = (scores > s) + tie * (scores == s)
        keep = true | ~_member(train_keys, pack_keys(Form.GCI2, cols, *dims)).reshape(true.shape)
        ranks = 1 - tie + np.stack([ahead.sum(axis=1), (ahead * keep).sum(axis=1)], axis=1)
        records += [RankRecord(*row, *rank, n, n_f) for row, rank, n_f in
                    zip(block.tolist(), ranks.tolist(), keep.sum(axis=1).tolist())]
    return records


def rank_axiom(scorer, ax: Axiom, candidates, filter_set=None,
               tie_mode: str = "optimistic") -> RankRecord:
    """Rank one GCI2 axiom's true tail against the candidate tails.

    ``scorer`` provides score_tails(head, rel, tails).  ``filter_set`` holds
    (head, rel, tail) triples to drop from the candidate list (train axioms);
    the true tail itself is never dropped.
    """
    rows = np.array([ax.args, *(filter_set or ())], dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    dims = (int(max(rows[:, ::2].max(), candidates.max(initial=0))) + 1,
            int(rows[:, 1].max()) + 1)
    keys = np.sort(pack_keys(Form.GCI2, rows[1:].T, *dims))
    return _rank_rows(scorer, rows[:1], candidates, keys, dims, tie_mode)[0]


def trapezoid_auc(ranks, n: int) -> tuple[float, list[tuple[float, float]]]:
    """AUC over the distinct-rank curve; returns (area, curve points)."""
    if not len(ranks):
        return float("nan"), []
    xs, counts = np.unique(ranks, return_counts=True)
    px = np.append(xs / n, 1.0)
    py = np.append(np.cumsum(counts) / len(ranks), 1.0)
    return float(np.trapezoid(py, px)), list(zip(px.tolist(), py.tolist()))


@dataclass
class RankingReport:
    records: list[RankRecord] = field(default_factory=list)
    closure_records: list[RankRecord] = field(default_factory=list)
    tie_mode: str = "optimistic"
    hits10: float = 0.0
    hits100: float = 0.0
    fhits10: float = 0.0
    fhits100: float = 0.0
    macro_mr: float = 0.0
    micro_mr: float = 0.0
    macro_fmr: float = 0.0
    micro_fmr: float = 0.0
    macro_auc: float = 0.0
    micro_auc: float = 0.0
    macro_fauc: float = 0.0
    micro_fauc: float = 0.0
    roc: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def metrics(self) -> dict[str, float]:
        return {
            "hits@10": self.hits10, "hits@100": self.hits100,
            "fhits@10": self.fhits10, "fhits@100": self.fhits100,
            "macro_mr": self.macro_mr, "micro_mr": self.micro_mr,
            "macro_fmr": self.macro_fmr, "micro_fmr": self.micro_fmr,
            "macro_auc": self.macro_auc, "micro_auc": self.micro_auc,
            "macro_fauc": self.macro_fauc, "micro_fauc": self.micro_fauc,
        }

    def to_json(self, sig=None) -> str:
        doc = {
            "tie_mode": self.tie_mode,
            "aggregates": self.metrics(),
            "records": [
                {
                    "head": r.head, "rel": r.rel, "tail": r.tail,
                    "rank": r.rank, "frank": r.frank,
                    "n_cand": r.n_cand, "n_fcand": r.n_fcand,
                    "source": r.source, "entailed": r.entailed,
                }
                for r in self.records + self.closure_records
            ],
            "roc": {name: [[x, y] for x, y in pts] for name, pts in self.roc.items()},
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _summarize(ranks: np.ndarray, heads: np.ndarray, n: int) -> tuple:
    """hits@10, hits@100, macro MR, micro MR, macro AUC, micro AUC and the curve
    of one rank column; micro values average over the head classes in id order.
    Each head's AUC sums ``trapezoid_auc``'s terms for its ranks, bit for bit."""
    auc, curve = trapezoid_auc(ranks, n)
    o = np.lexsort((ranks, heads))
    h, x = heads[o], ranks[o]
    starts = np.flatnonzero(np.append(True, h[1:] != h[:-1]))
    size = np.diff(np.append(starts, len(x)))
    # curve points: each head's distinct ranks, with the share ranked at or below, then (1, 1)
    last = np.flatnonzero(np.append((x[1:] != x[:-1]) | (h[1:] != h[:-1]), True))
    head = np.searchsorted(starts, last, side="right") - 1
    px, py = x[last] / n, (last + 1 - starts[head]) / size[head]
    end = np.append(head[1:] != head[:-1], True)
    nx, ny = (np.where(end, 1.0, np.roll(v, -1)) for v in (px, py))
    terms = (nx - px) * (ny + py) / 2.0
    bounds = np.append(np.searchsorted(last, starts), len(last))
    head_auc = terms[bounds[:-1]]
    for i in np.flatnonzero(np.diff(bounds) > 1):   # np.add.reduce, as np.trapezoid sums
        head_auc[i] = np.add.reduce(terms[bounds[i]:bounds[i + 1]])
    # ranks are multiples of 1/2, so every summation order gives the same sums
    return (float((ranks <= 10).mean()), float((ranks <= 100).mean()), float(ranks.mean()),
            float(np.mean(np.add.reduceat(x, starts) / size)), auc, float(np.mean(head_auc)),
            curve)


def aggregate(records: list[RankRecord], tie_mode: str = "optimistic",
              closure_records: list[RankRecord] | None = None) -> RankingReport:
    """Fold rank records into the aggregate report (test records only)."""
    if not records:
        raise EvaluationError("no rank records to aggregate")
    rep = RankingReport(list(records), list(closure_records or []), tie_mode)
    n = max(r.n_cand for r in records)
    heads = np.array([r.head for r in records])
    (rep.hits10, rep.hits100, rep.macro_mr, rep.micro_mr, rep.macro_auc, rep.micro_auc,
     rep.roc["raw"]) = _summarize(np.array([r.rank for r in records]), heads, n)
    (rep.fhits10, rep.fhits100, rep.macro_fmr, rep.micro_fmr, rep.macro_fauc, rep.micro_fauc,
     rep.roc["filtered"]) = _summarize(np.array([r.frank for r in records]), heads, n)

    novel = [r for r in records if r.entailed is not None and not r.entailed]
    for name, recs in (("entailed", [r for r in records if r.entailed] + rep.closure_records),
                       ("novel", novel)):
        if recs:
            rep.roc[name] = trapezoid_auc(np.array([r.frank for r in recs]), n)[1]
    return rep


def evaluate(scorer, kb: KnowledgeBase, dc: DeductiveClosure | None = None,
             pool: str | None = None, head_pool: str | None = None,
             tie_mode: str = "optimistic", closure_positives: bool = False,
             split: str = "test") -> RankingReport:
    """Rank every axiom of a split over a tail pool; closure-aware when dc given.

    With ``dc`` each test record carries an entailed/novel flag.  With
    ``closure_positives`` the entailed GCI2 axioms inside the pools, minus
    every axiom of the train, valid and test splits, are ranked as extra
    positives and feed the entailed curve.
    """
    axioms = {"test": kb.test, "valid": kb.valid}[split]
    if not axioms:
        raise EvaluationError(f"{split} split is empty")
    candidates = kb.pool(pool)
    if not candidates:
        raise EvaluationError("empty candidate pool")
    dims = (kb.sig.n_classes, kb.sig.n_relations)
    train_keys = pack_keys(Form.GCI2, _gci2_rows(kb.train_gci2).T, *dims)
    train_keys.sort()
    records = _rank_rows(scorer, _gci2_rows(axioms), candidates, train_keys, dims, tie_mode)
    if dc is not None:
        for rec, ax in zip(records, axioms):
            rec.entailed = dc.contains(ax)

    closure_records = []
    if closure_positives:
        if dc is None:
            raise EvaluationError("closure positives need a deductive closure")
        heads = set(kb.pool(head_pool) if head_pool else candidates)
        tails = set(candidates)
        rels = {ax.args[1] for ax in axioms}
        extras = np.array(sorted(
            args for args in dc.sets[Form.GCI2]
            if args[0] in heads and args[1] in rels and args[2] in tails),
            dtype=np.int64).reshape(-1, 3)
        skip = np.sort(np.concatenate(
            [train_keys, pack_keys(Form.GCI2, _gci2_rows(kb.valid + kb.test).T, *dims)]))
        extras = extras[~_member(skip, pack_keys(Form.GCI2, extras.T, *dims))]
        closure_records = [replace(rec, source="closure", entailed=True) for rec in
                           _rank_rows(scorer, extras, candidates, train_keys, dims, tie_mode)]
    return aggregate(records, tie_mode, closure_records)


# --- naive frequency baseline -------------------------------------------------

@dataclass
class NaiveModel:
    """Head-independent scorer: tail frequency among the train pairs."""

    relation: int
    tail_pool: tuple[int, ...]
    pair_count: int
    col_sums: dict[int, int]
    symmetric: bool = False

    def __post_init__(self):   # col_sums as a dense array over class ids
        self.counts = np.zeros(max(self.col_sums, default=-1) + 1)
        self.counts[list(self.col_sums)] = list(self.col_sums.values())

    def score_tails(self, c, r, tails) -> np.ndarray:
        tails = np.asarray(tails, dtype=np.int64)
        if self.pair_count == 0:
            return np.zeros(len(tails))
        known = (tails >= 0) & (tails < len(self.counts))
        return np.where(known, self.counts.take(tails, mode="clip"), 0.0) / self.pair_count


def naive_fit(axioms: list[Axiom], relation: int, head_pool, tail_pool,
              symmetric: bool = False) -> NaiveModel:
    """Build the 0/1 pair matrix of one relation's train axioms."""
    heads = set(int(h) for h in head_pool)
    tails = set(int(t) for t in tail_pool)
    pairs: set[tuple[int, int]] = set()
    for ax in axioms:
        if ax.form is not Form.GCI2:
            raise EvaluationError("naive model fits GCI2 axioms only")
        c, r, d = ax.args
        if r != relation:
            raise EvaluationError(f"axiom relation {r} does not match {relation}")
        if d not in tails:
            raise EvaluationError(f"axiom tail id {d} outside the tail pool")
        pairs.add((c, d))
        if symmetric:
            if c not in tails:
                raise EvaluationError(
                    f"symmetric mirroring needs head id {c} inside the tail pool")
            pairs.add((d, c))
    return NaiveModel(relation=relation, tail_pool=tuple(int(t) for t in tail_pool),
                      pair_count=len(pairs), col_sums=dict(Counter(t for _, t in pairs)),
                      symmetric=symmetric)


def emit_roc(report: RankingReport, path: str):
    """CSV export of the report's curves: curve_name, fpr, tpr."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["curve_name", "fpr", "tpr"])
        for name in sorted(report.roc):
            for x, y in report.roc[name]:
                writer.writerow([name, f"{x:.10g}", f"{y:.10g}"])
