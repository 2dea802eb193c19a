"""Ranking evaluation: hits@k, macro/micro mean rank and AUC, filtered variants.

Every test axiom's candidate tails are scored, the true tail's rank is taken
(optimistic tie handling by default; ``average`` adds half the tie count),
and a filtered rank is computed after removing candidates asserted in the
train split (never the true tail).  Aggregate AUCs integrate, with the
trapezoid rule, the curve x = rank_value/N, y = fraction of axioms ranked at
or below that value, built over the distinct observed ranks; micro variants
average the per-head-class aggregates.  Because the grid of that curve is
the set of observed rank values, filtered AUC can land slightly under raw
AUC even though per-record filtered ranks never exceed raw ranks; per-record
AUCs (over the common raw candidate count) never cross.

The naive baseline scores a tail by its train-set frequency alone,
optionally symmetrized, and plugs into the same ranking pipeline.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .axioms import Axiom, Form
from .closure import DeductiveClosure
from .dataset import KnowledgeBase


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


def rank_of(scores: np.ndarray, index: int, tie_mode: str = "optimistic") -> float:
    """Rank of scores[index] among scores, higher score = better rank."""
    s = scores[index]
    greater = int((scores > s).sum())
    if tie_mode == "optimistic":
        return float(1 + greater)
    if tie_mode == "average":
        ties = int((scores == s).sum()) - 1
        return 1 + greater + ties / 2.0
    raise ValueError(f"unknown tie mode: {tie_mode!r}")


def rank_axiom(scorer, ax: Axiom, candidates, filter_set=None,
               tie_mode: str = "optimistic") -> RankRecord:
    """Rank one GCI2 axiom's true tail against the candidate tails.

    ``scorer`` provides score_tails(head, rel, tails).  ``filter_set`` holds
    (head, rel, tail) triples to drop from the candidate list (train axioms);
    the true tail itself is never dropped.
    """
    c, r, d = ax.args
    candidates = np.asarray(candidates, dtype=np.int64)
    where = np.flatnonzero(candidates == d)
    if len(where) == 0:
        raise EvaluationError(f"true tail not among candidates for head id {c}")
    idx = int(where[0])
    scores = scorer.score_tails(c, r, candidates)
    raw = rank_of(scores, idx, tie_mode)
    if filter_set:
        keep = np.array([t == d or (c, r, t) not in filter_set
                         for t in candidates.tolist()], dtype=bool)
        fscores = scores[keep]
        fidx = int(keep[:idx].sum())   # true tail's position among kept candidates
        frank = rank_of(fscores, fidx, tie_mode)
        n_f = int(keep.sum())
    else:
        frank, n_f = raw, len(candidates)
    return RankRecord(head=c, rel=r, tail=d, rank=raw, frank=frank,
                      n_cand=len(candidates), n_fcand=n_f)


def trapezoid_auc(ranks, n: int) -> tuple[float, list[tuple[float, float]]]:
    """AUC over the distinct-rank curve; returns (area, curve points)."""
    if not len(ranks):
        return float("nan"), []
    hist = Counter(ranks)
    xs = sorted(hist)
    total = len(ranks)
    points = []
    cum = 0
    for x in xs:
        cum += hist[x]
        points.append((x / n, cum / total))
    points.append((1.0, 1.0))
    px = np.array([p[0] for p in points])
    py = np.array([p[1] for p in points])
    return float(np.trapezoid(py, px)), points


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


def aggregate(records: list[RankRecord], tie_mode: str = "optimistic",
              closure_records: list[RankRecord] | None = None) -> RankingReport:
    """Fold rank records into the aggregate report (test records only)."""
    if not records:
        raise EvaluationError("no rank records to aggregate")
    closure_records = closure_records or []
    rep = RankingReport(records=list(records), closure_records=list(closure_records),
                        tie_mode=tie_mode)
    ranks = np.array([r.rank for r in records])
    franks = np.array([r.frank for r in records])
    n = max(r.n_cand for r in records)
    rep.hits10 = float((ranks <= 10).mean())
    rep.hits100 = float((ranks <= 100).mean())
    rep.fhits10 = float((franks <= 10).mean())
    rep.fhits100 = float((franks <= 100).mean())
    rep.macro_mr = float(ranks.mean())
    rep.macro_fmr = float(franks.mean())
    rep.macro_auc, roc_raw = trapezoid_auc(ranks, n)
    rep.macro_fauc, roc_filt = trapezoid_auc(franks, n)
    rep.roc["raw"] = roc_raw
    rep.roc["filtered"] = roc_filt

    by_head: dict[int, list[RankRecord]] = defaultdict(list)
    for r in records:
        by_head[r.head].append(r)
    head_mr, head_fmr, head_auc, head_fauc = [], [], [], []
    for head in sorted(by_head):
        rs = by_head[head]
        hr = np.array([r.rank for r in rs])
        hf = np.array([r.frank for r in rs])
        head_mr.append(hr.mean())
        head_fmr.append(hf.mean())
        head_auc.append(trapezoid_auc(hr, n)[0])
        head_fauc.append(trapezoid_auc(hf, n)[0])
    rep.micro_mr = float(np.mean(head_mr))
    rep.micro_fmr = float(np.mean(head_fmr))
    rep.micro_auc = float(np.mean(head_auc))
    rep.micro_fauc = float(np.mean(head_fauc))

    flagged = [r for r in records if r.entailed is not None]
    if flagged or closure_records:
        entailed = [r for r in records if r.entailed] + [r for r in closure_records]
        novel = [r for r in flagged if not r.entailed]
        if entailed:
            rep.roc["entailed"] = trapezoid_auc(
                np.array([r.frank for r in entailed]), n)[1]
        if novel:
            rep.roc["novel"] = trapezoid_auc(
                np.array([r.frank for r in novel]), n)[1]
    return rep


def evaluate(scorer, kb: KnowledgeBase, dc: DeductiveClosure | None = None,
             pool: str | None = None, head_pool: str | None = None,
             tie_mode: str = "optimistic", closure_positives: bool = False,
             split: str = "test") -> RankingReport:
    """Rank every axiom of a split over a tail pool; closure-aware when dc given.

    With ``dc`` each test record carries an entailed/novel flag.  With
    ``closure_positives`` the entailed GCI2 axioms inside the pools (minus
    all splits) are ranked as extra positives and feed the entailed curve.
    """
    axioms = {"test": kb.test, "valid": kb.valid}[split]
    if not axioms:
        raise EvaluationError(f"{split} split is empty")
    candidates = kb.pool(pool)
    if not candidates:
        raise EvaluationError("empty candidate pool")
    filter_set = {ax.args for ax in kb.train_gci2}
    records = []
    for ax in axioms:
        rec = rank_axiom(scorer, ax, candidates, filter_set, tie_mode)
        if dc is not None:
            rec.entailed = dc.contains(ax)
        records.append(rec)

    closure_records = []
    if closure_positives:
        if dc is None:
            raise EvaluationError("closure positives need a deductive closure")
        heads = set(kb.pool(head_pool) if head_pool else candidates)
        tails = set(candidates)
        rels = {ax.args[1] for ax in axioms}
        skip = {ax.args for ax in kb.train_gci2} | {ax.args for ax in kb.test}
        extras = sorted(
            args for args in dc.sets[Form.GCI2]
            if args not in skip and args[0] in heads and args[1] in rels and args[2] in tails)
        for args in extras:
            rec = rank_axiom(scorer, Axiom(Form.GCI2, args), candidates, filter_set, tie_mode)
            rec.source = "closure"
            rec.entailed = True
            closure_records.append(rec)
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

    def score_tails(self, c: int, r: int, tails) -> np.ndarray:
        tails = np.asarray(tails, dtype=np.int64)
        if self.pair_count == 0:
            return np.zeros(len(tails))
        return np.array([self.col_sums.get(int(t), 0) / self.pair_count for t in tails])


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
    col_sums: dict[int, int] = defaultdict(int)
    for _, t in pairs:
        col_sums[t] += 1
    return NaiveModel(relation=relation, tail_pool=tuple(int(t) for t in tail_pool),
                      pair_count=len(pairs), col_sums=dict(col_sums),
                      symmetric=symmetric)


def emit_roc(report: RankingReport, path: str):
    """CSV export of the report's curves: curve_name, fpr, tpr."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["curve_name", "fpr", "tpr"])
        for name in sorted(report.roc):
            for x, y in report.roc[name]:
                writer.writerow([name, f"{x:.10g}", f"{y:.10g}"])
