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
though per-record filtered ranks never exceed raw ranks.

The naive baseline scores a tail by its train-set frequency alone,
optionally symmetrized, and plugs into the same ranking pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .axioms import Axiom, Form, key_member, pack_keys
from .closure import DeductiveClosure
from .dataset import KnowledgeBase
from .geometry import CHUNK
from .manifest import write_atomic


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


# weight of each other candidate whose score equals the true tail's
TIE_WEIGHT = {"optimistic": 0.0, "average": 0.5}

# Entries (queries x candidates) scored per block: bounds the blocks whatever the pool size.
BLOCK = 64 * CHUNK


def _runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges ``lo[i]:hi[i]``, end to end, and the i of each."""
    i = np.repeat(np.arange(len(lo)), hi - lo)
    return i, np.arange(len(i)) + (lo - np.cumsum(hi - lo) + (hi - lo))[i]


def _exact_bounds(scorer, pool):
    """``score_bounds`` for a scorer that has none: its own scores, with err 0."""
    def bounds(c, r):
        scores = scorer.score_tails(c[:, None], r[:, None], pool)
        scores = np.broadcast_to(scores, (len(c), len(pool)))
        return scores, np.zeros(scores.shape)
    return bounds


def _rescore(scorer, c, r, pool, scores, err, at):
    """Overwrite the scores at flat indices ``at`` whose err is not 0 with
    ``score_tails``' own, in one call, and set their err to 0."""
    at = at[err.take(at) != 0.0]
    if len(at):
        qi, ci = np.divmod(at, len(pool))
        np.put(scores, at, scorer.score_tails(c[qi], r[qi], pool[ci]))
        np.put(err, at, 0.0)


def _rank_rows(scorer, rows: np.ndarray, candidates, train_keys: np.ndarray, dims,
               tie_mode: str) -> list[RankRecord]:
    """Rank the tail of each (head, rel, tail) row among the candidates, a block of
    queries at a time.  The scorer's ``score_bounds(pool)`` (``_exact_bounds`` if it
    has none) gives each block's scores and a bound ``err`` on how far each lies from
    ``score_tails``' own, 0 where it is that score.  The true tails are rescored
    exactly, then so is every candidate whose gap to its true tail is not above its
    err: a rank reads only whether a candidate scores above, at or below its true
    tail, and every other candidate is on the side its approximate score shows, never
    at it.  So every rank is the one ``score_tails`` scores alone would give.
    The filtered rank leaves out the candidates in the query's run of sorted
    ``train_keys`` (``pack_keys`` over ``dims``) but never the true tail."""
    if tie_mode not in TIE_WEIGHT:
        raise ValueError(f"unknown tie mode: {tie_mode!r}")
    pool = np.asarray(candidates, dtype=np.int64)
    step = max(1, BLOCK // max(len(pool), 1))
    bounds = (scorer.score_bounds(pool) if hasattr(scorer, "score_bounds")
              else _exact_bounds(scorer, pool))
    order = np.argsort(pool)
    return [rec for lo in range(0, len(rows), step)
            for rec in _rank_block(scorer, bounds, rows[lo:lo + step], pool, order, train_keys,
                                   dims, TIE_WEIGHT[tie_mode])]


def _rank_block(scorer, bounds, block, pool, order, train_keys, dims, tie) -> list[RankRecord]:
    """``_rank_rows`` for one block of rows; its (q, n) arrays go when it returns."""
    c, r, d = block.T
    true = pool == d[:, None]
    missing = ~true.any(axis=1)
    if missing.any():
        raise EvaluationError(f"true tail not among candidates for head id {c[missing.argmax()]}")
    scores, err = bounds(c, r)
    _rescore(scorer, c, r, pool, scores, err, np.flatnonzero(true))
    s = scores[np.arange(len(d)), true.argmax(axis=1), None]
    gap = np.subtract(scores, s)
    _rescore(scorer, c, r, pool, scores, err, np.flatnonzero(~(np.abs(gap, out=gap) > err)))
    above, level = scores > s, scores == s
    start = pack_keys(Form.GCI2, (c, r, np.zeros_like(c)), *dims)
    query, at = _runs(*np.searchsorted(train_keys, [start, start + dims[0]]))
    tails = train_keys[at] - start[query]
    hit, at = _runs(*np.searchsorted(pool[order], [tails, tails + 1]))
    keep = np.ones_like(true)
    keep[query[hit], order[at]] = true[query[hit], order[at]]   # the true tail stays
    # 1, plus each candidate above, plus tie per candidate level with the true tail, whose
    # own tie is taken back; counts, so any summation order gives these bits
    ranks = 1 - tie + np.stack([above.sum(axis=1) + tie * level.sum(axis=1),
                                (above & keep).sum(axis=1) + tie * (level & keep).sum(axis=1)],
                               axis=1)
    return [RankRecord(*row, *rank, len(pool), n_f) for row, rank, n_f in
            zip(block.tolist(), ranks.tolist(), keep.sum(axis=1).tolist())]


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

    def to_dict(self) -> dict:
        """The report document: tie mode, aggregates, every record and the curves."""
        return {
            "tie_mode": self.tie_mode,
            "aggregates": self.metrics(),
            "records": [vars(r) for r in self.records + self.closure_records],
            "roc": {name: [[x, y] for x, y in pts] for name, pts in self.roc.items()},
        }


def trapezoid(ranks: np.ndarray, groups: np.ndarray, n: int) -> tuple:
    """The trapezoid rule over every group's curve in one pass.  A group's curve
    has one point per distinct rank, x = rank/n and y = the share of the group's
    ranks at or below it, then ends at (1, 1).  Groups are the ids 0, 1, ...,
    each with at least one rank.  Returns each group's area, every curve's points
    but the last as arrays ``px`` and ``py``, and the bounds of group i's points,
    ``bounds[i]:bounds[i + 1]``."""
    o = np.lexsort((ranks, groups))
    g, x = groups[o], ranks[o]
    starts = np.flatnonzero(np.append(True, g[1:] != g[:-1]))
    size = np.diff(np.append(starts, len(x)))
    last = np.flatnonzero(np.append((x[1:] != x[:-1]) | (g[1:] != g[:-1]), True))
    group = np.searchsorted(starts, last, side="right") - 1
    px, py = x[last] / n, (last + 1 - starts[group]) / size[group]
    end = np.append(group[1:] != group[:-1], True)
    nx, ny = (np.where(end, 1.0, np.roll(v, -1)) for v in (px, py))
    terms = (nx - px) * (ny + py) / 2.0
    bounds = np.append(np.searchsorted(last, starts), len(last))
    area = terms[bounds[:-1]]
    for i in np.flatnonzero(np.diff(bounds) > 1):   # the pairwise sum of a lone curve
        area[i] = np.add.reduce(terms[bounds[i]:bounds[i + 1]])
    return area, px, py, bounds


def aggregate(records: list[RankRecord], tie_mode: str = "optimistic",
              closure_records: list[RankRecord] | None = None) -> RankingReport:
    """Fold rank records into the aggregate report (test records only).  Micro
    values average over the head classes in id order."""
    if not records:
        raise EvaluationError("no rank records to aggregate")
    rep = RankingReport(list(records), list(closure_records or []), tie_mode)
    n = max(r.n_cand for r in records)
    head = np.unique([r.head for r in records], return_inverse=True)[1]
    size = np.bincount(head)
    rank, frank = np.array([r.rank for r in records]), np.array([r.frank for r in records])
    rep.hits10, rep.hits100, rep.fhits10, rep.fhits100 = (
        float((x <= k).mean()) for x in (rank, frank) for k in (10, 100))
    rep.macro_mr, rep.macro_fmr = float(rank.mean()), float(frank.mean())
    # ranks are multiples of 1/2, so every summation order gives the same sums
    rep.micro_mr, rep.micro_fmr = (
        float(np.mean(np.bincount(head, x) / size)) for x in (rank, frank))

    # one trapezoid pass: each head class's raw then filtered curve, then the named curves
    curves = {"raw": rank, "filtered": frank,
              "entailed": np.array([r.frank for r in records if r.entailed]
                                   + [r.frank for r in rep.closure_records]),
              "novel": np.array([r.frank for r in records
                                 if r.entailed is not None and not r.entailed])}
    curves = {name: x for name, x in curves.items() if len(x)}
    h = len(size)
    area, px, py, bounds = trapezoid(
        np.concatenate([rank, frank, *curves.values()]),
        np.concatenate([head, h + head] + [np.full(len(x), 2 * h + i)
                                           for i, x in enumerate(curves.values())]), n)
    rep.micro_auc, rep.micro_fauc = float(np.mean(area[:h])), float(np.mean(area[h:2 * h]))
    rep.macro_auc, rep.macro_fauc = float(area[2 * h]), float(area[2 * h + 1])
    for i, name in enumerate(curves, start=2 * h):
        lo, hi = bounds[i], bounds[i + 1]
        rep.roc[name] = [*zip(px[lo:hi].tolist(), py[lo:hi].tolist()), (1.0, 1.0)]
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
    heads = kb.pool(head_pool) if head_pool else candidates
    dims = (kb.sig.n_classes, kb.sig.n_relations)
    train_keys = np.sort(pack_keys(Form.GCI2, kb.train_gci2.ids.T, *dims))
    records = _rank_rows(scorer, axioms.ids, candidates, train_keys, dims, tie_mode)
    if dc is not None:
        for rec, entailed in zip(records, dc.contains(axioms).tolist()):
            rec.entailed = entailed

    closure_records = []
    if closure_positives:
        if dc is None:
            raise EvaluationError("closure positives need a deductive closure")
        extras = dc.ids(Form.GCI2, dc.keys[Form.GCI2])
        extras = extras[np.isin(extras[:, 0], heads) & np.isin(extras[:, 1], axioms.ids[:, 1])
                        & np.isin(extras[:, 2], candidates)]
        held_out = np.concatenate([kb.valid.ids, kb.test.ids])
        skip = np.sort(np.concatenate([train_keys, pack_keys(Form.GCI2, held_out.T, *dims)]))
        extras = extras[~key_member(skip, pack_keys(Form.GCI2, extras.T, *dims))]
        closure_records = [replace(rec, source="closure", entailed=True) for rec in
                           _rank_rows(scorer, extras, candidates, train_keys, dims, tie_mode)]
    return aggregate(records, tie_mode, closure_records)


# --- naive frequency baseline -------------------------------------------------

@dataclass
class NaiveModel:
    """Head-independent scorer: tail frequency among the train pairs."""

    counts: np.ndarray   # distinct train pairs ending in each class id
    pair_count: int

    def score_tails(self, c, r, tails) -> np.ndarray:
        tails = np.asarray(tails, dtype=np.int64)
        if self.pair_count == 0:
            return np.zeros(len(tails))
        known = (tails >= 0) & (tails < len(self.counts))
        return np.where(known, self.counts.take(tails, mode="clip"), 0.0) / self.pair_count


def naive_fit(rows: np.ndarray, relation: int, tail_pool,
              symmetric: bool = False) -> NaiveModel:
    """Count the distinct (head, tail) pairs of one relation's train axioms, given
    as one (k, 3) array of GCI2 id rows, with their mirror images when
    ``symmetric``, and how many end in each tail.  The first bad row is reported
    by its first failed check."""
    c, r, d = rows.T
    tails = np.asarray(tail_pool, dtype=np.int64)
    bad = np.stack([r != relation, ~np.isin(d, tails), symmetric & ~np.isin(c, tails)])
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        raise EvaluationError((
            f"axiom relation {r[i]} does not match {relation}",
            f"axiom tail id {d[i]} outside the tail pool",
            f"symmetric mirroring needs head id {c[i]} inside the tail pool",
        )[int(bad[:, i].argmax())])
    pairs = np.stack([c, d], axis=1)
    if symmetric:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    pairs = np.unique(pairs, axis=0)
    return NaiveModel(np.bincount(pairs[:, 1]), len(pairs))


def emit_roc(report: RankingReport, path: str):
    """CSV export of the report's curves: curve_name, fpr, tpr, with CSV's CRLF
    line ends.  No field needs quoting."""
    write_atomic(path, ["curve_name,fpr,tpr\r\n"] + [
        f"{name},{x:.10g},{y:.10g}\r\n" for name in sorted(report.roc)
        for x, y in report.roc[name]])
