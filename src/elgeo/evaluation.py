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

from dataclasses import dataclass, field, fields

import numpy as np

from .axioms import Axiom, Form, key_member, pack_keys, runs
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
    """Rank the tail of each (head, rel, tail) row among the candidates.  The scorer's
    ``score_bounds(pool)`` (``_exact_bounds`` if it has none) scores each block of
    ``BLOCK // n`` distinct (head, rel) pairs in one call, with a bound ``err`` on each
    entry's distance from ``score_tails``' own: a candidate whose gap to the true tail is
    above both errs added is on the side it shows, so every rank is ``score_tails``' own.
    A pair's lone row goes to ``_rank_block``, rows that share a pair to ``_rank_shared``,
    in separate blocks: the cost scales with the distinct pairs.  The filtered rank drops
    the pair's run of sorted ``train_keys`` (``pack_keys`` over ``dims``) but the true tail."""
    if tie_mode not in TIE_WEIGHT:
        raise ValueError(f"unknown tie mode: {tie_mode!r}")
    c, r, d = rows.T
    for ids, size, what in ((c, dims[0], "head"), (r, dims[1], "relation")):
        bad = (ids < 0) | (ids >= size)   # so that no two pairs share a key below
        if bad.any():
            raise EvaluationError(f"{what} id {ids[bad.argmax()]} outside the signature")
    pool = np.asarray(candidates, dtype=np.int64)
    order = np.argsort(pool, kind="stable")   # class k's positions: order[first[k]:first[k + 1]]
    first = np.searchsorted(pool[order], np.arange(dims[0] + 1))
    missing = first.take(d, mode="clip") == first.take(d + 1, mode="clip")   # any id
    if missing.any():
        raise EvaluationError(f"true tail not among candidates for head id {c[missing.argmax()]}")
    bounds = (scorer.score_bounds(pool) if hasattr(scorer, "score_bounds")
              else _exact_bounds(scorer, pool))
    args = scorer, pool, order, first, train_keys, dims, TIE_WEIGHT[tie_mode]
    pair, k = np.unique(c * dims[1] + r, return_inverse=True, return_counts=True)[1:]
    shared, step = k[pair] > 1, max(1, BLOCK // max(len(pool), 1))
    at = np.lexsort((pair, shared))   # the lone rows, then each shared pair's rows together
    block = (np.cumsum(np.diff(pair[at], prepend=-1) != 0) - 1) // step + shared[at] * len(rows)
    records = [rec for b in np.split(at, np.flatnonzero(np.diff(block)) + 1) if len(b)
               for rec in (_rank_shared(bounds, rows[b], step, args) if shared[b[0]] else
                           _rank_block(rows[b], *bounds(c[b], r[b]), *args))]
    return [records[i] for i in np.argsort(at).tolist()]


def _train_tails(c, r, keep, train_keys, dims, order, first):
    """The (row, pool position) pairs of the rows' train tails but ``keep``, each once."""
    start = pack_keys(Form.GCI2, (c, r, np.zeros_like(c)), *dims)
    row, at = runs(*np.searchsorted(train_keys, [start, start + dims[0]]))
    tails = train_keys[at] - start[row]
    new = (tails != keep[row]) & ((at == 0) | (train_keys[at] != train_keys[at - 1]))
    hit, at = runs(first[tails[new]], first[tails[new] + 1])
    return row[new][hit], order[at]


def _rank_block(block, scores, err, scorer, pool, order, first, train_keys, dims,
                tie) -> list[RankRecord]:
    """``_rank_rows`` for rows against their (q, n) ``scores`` and ``err``, in about 20
    passes; its (q, n) arrays go when it returns."""
    c, r, d = block.T
    q, n = len(block), len(pool)
    true = (np.arange(q), order[first[d]])   # each true tail's first copy
    # a candidate whose gap to its true tail is above both errs is on the side it shows
    gap = np.subtract(scores, scores[true][:, None])
    gap = np.subtract(np.abs(gap, out=gap), err[true][:, None], out=gap)
    _rescore(scorer, c, r, pool, scores, err, np.flatnonzero(~(gap > err)))
    s = scores[true]
    query, at = _train_tails(c, r, d, train_keys, dims, order, first)   # the dropped pairs
    dropped = np.bincount(query, minlength=q)
    # 1, plus each candidate above, plus tie per candidate level with the true tail, whose
    # own tie is taken back; the filtered counts less those at the dropped positions.
    # Counts, so any order gives these bits.
    raw = frank = 1 - tie
    for w, side in ((1, np.greater), (tie, np.equal)):
        if w:
            count = np.count_nonzero(side(scores, s[:, None]), axis=1)
            raw = raw + w * count
            frank = frank + w * (count - np.bincount(query, side(scores[query, at], s[query]), q))
    return [RankRecord(*row, rank, f, n, n - k) for row, rank, f, k in
            zip(block.tolist(), raw.tolist(), frank.tolist(), dropped.tolist())]


def _bisect(a, lo, hi, x):
    """``lo + np.searchsorted(a[lo:hi], x, "right")`` for every element at once."""
    while (lo < hi).any():
        mid = (lo + hi) // 2
        up = (lo < hi) & (a.take(mid, mode="clip") <= x)
        lo, hi = np.where(up, mid + 1, lo), np.where(up, hi, np.minimum(hi, mid))
    return lo


def _rank_shared(bounds, block, step, args) -> list[RankRecord]:
    """``_rank_rows`` for rows grouped by the pairs they share.  Each pair's row is scored
    once and sorted, and binary search finds each true tail's band: the entries within
    its err plus the row's largest err.  A band that holds the true tail's copies alone
    certifies every other entry, so its edges give the counts; any other row goes to
    ``_rank_block`` with its pair's scores."""
    _, pool, order, first, train_keys, dims, tie = args
    c, r, d = block.T
    new = np.append(True, (c[1:] != c[:-1]) | (r[1:] != r[:-1]))
    pair, n, pc, pr = np.cumsum(new) - 1, len(pool), c[new], r[new]
    scores, err = bounds(pc, pr)
    t, copies = order[first[d]], first[d + 1] - first[d]
    w = np.nextafter(err[pair, t] + err.max(axis=1)[pair], np.inf)   # NaN: an empty band
    out = [[-np.inf], [np.inf]]   # the band is (lo, hi]: each edge rounded out, then a step
    edge = np.nextafter(np.nextafter(scores[pair, t] + np.multiply.outer([-1, 1], w), out), out)
    lo, hi = _bisect(np.sort(scores, axis=1).ravel(), np.tile(pair * n, 2),
                     np.tile(pair * n + n, 2), edge.ravel()).reshape(2, -1) - pair * n
    query, at = _train_tails(pc, pr, np.full(len(pc), -1), train_keys, dims, order, first)
    seg = np.searchsorted(query, np.arange(len(pc) + 1))
    drop = scores[query, at][np.lexsort((scores[query, at], query))]
    above = seg[pair + 1] - _bisect(drop, seg[pair], seg[pair + 1], edge[1])
    dropped = seg[pair + 1] - seg[pair] - copies * key_member(   # never the true tail
        train_keys, pack_keys(Form.GCI2, (c, r, d), *dims))
    raw = 1 - tie + (n - hi) + tie * copies
    records = [RankRecord(*row, rank, f, n, n - k) for row, rank, f, k in
               zip(block.tolist(), raw.tolist(), (raw - above).tolist(), dropped.tolist())]
    slow = np.flatnonzero(hi - lo != copies)
    for i in range(0, len(slow), step):
        at = slow[i:i + step]
        for j, rec in zip(at.tolist(), _rank_block(block[at], scores[pair[at]], err[pair[at]],
                                                   *args)):
            records[j] = rec
    return records


def rank_axiom(scorer, ax: Axiom, candidates, filter_set=None,
               tie_mode: str = "optimistic") -> RankRecord:
    """Rank one GCI2 axiom's true tail against the candidate tails.  ``scorer`` provides
    score_tails(head, rel, tails); ``filter_set`` holds the (head, rel, tail) triples to drop
    from the candidates (train axioms), never the true tail."""
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
        """The aggregates, hits10 through micro_fauc, named as reports name them."""
        return {f.name.replace("hits", "hits@"): getattr(self, f.name) for f in fields(self)[3:-1]}

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
    ``bounds[i]:bounds[i + 1]``.  The groups with k points are summed as the rows of
    one (groups, k) array, which gives each the bits of its own ``np.add.reduce``."""
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
    width = np.diff(bounds)
    area = np.empty(len(width))
    for k in np.unique(width):   # each row's sum of a (groups, k) array, as a lone curve's
        at = np.flatnonzero(width == k)
        area[at] = np.add.reduce(terms[bounds[at, None] + np.arange(k)], axis=1)
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
        # a GCI2 key's leading digit is its head, so each head's keys are one run
        keys, span = dc.keys[Form.GCI2], dc.dims[0] * dc.dims[1]
        start = np.unique(heads) * span
        ids = dc.ids(Form.GCI2, keys[runs(*np.searchsorted(keys, [start, start + span]))[1]])
        extras = ids[np.isin(ids[:, 1], axioms.ids[:, 1]) & np.isin(ids[:, 2], candidates)]
        held_out = np.concatenate([kb.valid.ids, kb.test.ids])
        skip = np.sort(np.concatenate([train_keys, pack_keys(Form.GCI2, held_out.T, *dims)]))
        extras = extras[~key_member(skip, pack_keys(Form.GCI2, extras.T, *dims))]
        closure_records = _rank_rows(scorer, extras, candidates, train_keys, dims, tie_mode)
        for rec in closure_records:
            rec.source, rec.entailed = "closure", True
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
