"""Correctness checks, made apart from the program, after the timed rounds.

Each check returns a list of failure messages (empty when it passes).  They
compare the program's outputs with the generator's ground truth, with the
brute-force oracles in ``tests/oracles.py``, or with a plain numpy
recomputation; none compares against a stored copy of earlier output.

    ranking    raw and filtered ranks of a sample of queries, recomputed from
               the checkpoint arrays with -act(|c + r - d| - r_c - r_d - margin)
    training   the weighted loss falls from the first epoch to the last
    closure    (hierarchy_filtered) the GCI2 closure and every entailed flag
               equal the edges entailed by the generator's chains
    sampling   (hierarchy_filtered) no kept filtered negative is asserted or
               entailed by the generator's chains
    reasoner   (ontology_mixed) asserted GCI0s hold, subsumption is
               transitive on a sample, subsumers stay in the generator's
               branch, no class but BOT is unsatisfiable; and on a reduced
               instance of the generator, saturation and closure equal the
               brute-force oracles

Determinism (a byte-identical checkpoint from every round) is checked by
``metrics.summarize`` from the checkpoint digests the rounds report.
"""

from __future__ import annotations

import json
import os
import struct
import sys

import numpy as np
from elgeo.axioms import BOT, TOP, Form, parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.normalize import normalize
from elgeo.reasoner import saturate
from elgeo.sampling import NegativeSampler, SamplerConfig
from elgeo.sexpr import parse_general

import gen

RANK_SAMPLE = 40
TRANSITIVITY_SAMPLE = 300
SCORE_TOL = 1e-9   # score differences below this count as possible ties


def read_checkpoint(path: str):
    """(header, centers, radii, rel_vectors, class names, relation names)."""
    with open(path, "rb") as f:
        blob = f.read()
    off = len(b"ELGEO\x00")
    if blob[:off] != b"ELGEO\x00":
        raise ValueError(f"{path}: bad checkpoint magic")
    (hlen,) = struct.unpack_from("<Q", blob, off)
    header = json.loads(blob[off + 8:off + 8 + hlen])
    off += 8 + hlen
    nc, nr, dim = header["n_classes"], header["n_relations"], header["dim"]
    arrays = []
    for count in (nc * dim, nc, nr * dim):
        arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=off))
        off += 8 * count
    (tlen,) = struct.unpack_from("<Q", blob, off)
    tables = json.loads(blob[off + 8:off + 8 + tlen])
    centers = arrays[0].reshape(nc, dim)
    rels = arrays[2].reshape(nr, dim)
    return header, centers, arrays[1], rels, tables["classes"], tables["relations"]


def _rank_bounds(scores: np.ndarray, true_score: float) -> tuple[int, int]:
    """Smallest and largest optimistic rank the true tail can have, ties within SCORE_TOL."""
    return (1 + int((scores > true_score + SCORE_TOL).sum()),
            int((scores > true_score - SCORE_TOL).sum()))


def check_ranking(ckpt: str, candidates: list[str], train_pairs: set[tuple[str, str, str]],
                  records, seed: int) -> list[str]:
    """Recompute raw and filtered ranks of a sample of (head, rel, tail, rank, frank) names."""
    header, cen, rad, rel, classes, relations = read_checkpoint(ckpt)
    cid = {name: i for i, name in enumerate(classes)}
    rid = {name: i for i, name in enumerate(relations)}
    cand = np.array([cid[t] for t in candidates])
    gamma = header["margin"]
    slope = header["leaky_slope"] if header["activation"] == "leaky_relu" else 0.0
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(records), size=min(RANK_SAMPLE, len(records)), replace=False)
    failures = []
    for i in sorted(pick.tolist()):
        head, r, tail, rank, frank = records[i]
        c, d = cid[head], cid[tail]
        arg = (np.linalg.norm(cen[c] + rel[rid[r]] - cen[cand], axis=1)
               - rad[c] - rad[cand] - gamma)
        scores = -np.where(arg > 0.0, arg, slope * arg)
        true_score = scores[int(np.flatnonzero(cand == d)[0])]
        lo, hi = _rank_bounds(scores, true_score)
        kept = np.array([t == tail or (head, r, t) not in train_pairs for t in candidates])
        flo, fhi = _rank_bounds(scores[kept], true_score)
        if not (lo <= rank <= hi and flo <= frank <= fhi):
            failures.append(f"ranking: {head} {r} {tail} ranked {rank}/{frank}, "
                            f"recomputed {lo}..{hi}/{flo}..{fhi}")
    return failures


def check_training(report) -> list[str]:
    first, last = report.epochs[0]["total"], report.epochs[-1]["total"]
    if len(report.epochs) < 2 or not last < first:
        return [f"training: weighted loss did not fall ({first} -> {last}) "
                f"over {len(report.epochs)} epochs"]
    return []


def _names(kb, args, rel_slot):
    sig = kb.sig
    return tuple(sig.relation_name(a) if j == rel_slot else sig.class_name(a)
                 for j, a in enumerate(args))


def check_closure(kb, dc, report, truth) -> list[str]:
    entailed = gen.hierarchy_edges(truth["n_chains"], truth["depth"], truth["edges"])
    got = {(h, t) for h, _, t in (_names(kb, args, 1) for args in dc.sets[Form.GCI2])}
    failures = []
    if got != entailed:
        failures.append(f"closure: GCI2 set differs from the chains' entailed edges "
                        f"({len(got - entailed)} extra, {len(entailed - got)} missing)")
    for rec in report.records:
        pair = (kb.sig.class_name(rec.head), kb.sig.class_name(rec.tail))
        if rec.entailed != (pair in entailed):
            failures.append(f"closure: entailed flag {rec.entailed} for {pair}")
    probe = set(truth["probe"])
    for rec in report.closure_records:
        pair = (kb.sig.class_name(rec.head), kb.sig.class_name(rec.tail))
        if pair not in entailed or pair[0] not in probe:
            failures.append(f"closure: closure positive {pair} is not an entailed probe edge")
    return failures


def _chain_pos(name: str):
    """(chain, level) of a chain class T<c>_<k>, else None."""
    if not name.startswith("T"):
        return None
    c, _, k = name[1:].partition("_")
    return int(c), int(k)


def check_sampling(kb, dc, cfg, truth) -> list[str]:
    entailed = gen.hierarchy_edges(truth["n_chains"], truth["depth"], truth["edges"])
    sampler = NegativeSampler(kb, SamplerConfig(
        filter_with_closure=True, max_resample_attempts=cfg.max_resample_attempts,
        seed=cfg.seed), dc)
    failures = []
    for form in (Form.GCI0, Form.GCI2):
        rows = np.array([ax.args for ax in kb.axioms[form]], dtype=np.int64)
        out, keep = sampler.corrupt_ids(form, rows)
        bad = 0
        for args in out[keep].tolist():
            if form is Form.GCI2:
                h, _, t = _names(kb, args, 1)
                bad += (h, t) in entailed
            else:
                sub, sup = (kb.sig.class_name(a) for a in args)
                lo, hi = _chain_pos(sub), _chain_pos(sup)
                bad += sup == "TOP" or sub == sup or (
                    lo is not None and hi is not None and lo[0] == hi[0] and hi[1] >= lo[1])
        if bad:
            failures.append(f"sampling: {bad} kept {form.value} negatives are entailed")
    return failures


def check_reasoner(kb, dc, truth) -> list[str]:
    sub, sig = dc.sub, kb.sig
    failures = []
    missing = sum(ax.args[1] not in sub.subsumers[ax.args[0]] for ax in kb.axioms[Form.GCI0])
    if missing:
        failures.append(f"reasoner: {missing} asserted GCI0 axioms do not hold")
    rng = np.random.default_rng(0)
    for c in rng.choice(sig.n_classes, size=min(TRANSITIVITY_SAMPLE, sig.n_classes),
                        replace=False).tolist():
        if any(not sub.subsumers[d] <= sub.subsumers[c] for d in sub.subsumers[c]):
            failures.append(f"reasoner: subsumers of {sig.class_name(c)} not transitive")
    if sub.unsat != {BOT}:
        failures.append(f"reasoner: unsatisfiable classes {sorted(sub.unsat - {BOT})[:5]}")
    branch, parent = truth["branch"], truth["parent"]
    for name, b in branch.items():
        c = sig.class_id(name)
        ups = {sig.class_name(d) for d in sub.subsumers[c] if d != TOP}
        if any(branch.get(d, b) != b for d in ups):
            failures.append(f"reasoner: {name} has a subsumer outside branch {b}")
        p = parent.get(name)
        while p is not None:
            if p not in ups:
                failures.append(f"reasoner: {name} is not under its tree ancestor {p}")
            p = parent.get(p)
    return failures


# a reduced instance small enough for the brute-force oracles
REDUCED = dict(n_branches=3, fanout=(2, 2, 2), n_exist=30, n_left=10, n_conj=10,
               n_equiv=6, n_disjoint=6, n_never=2, n_complex=6, n_valid=4, n_test=4)


def check_reduced_oracles(seed: int, root: str) -> list[str]:
    sys.path.insert(0, os.path.join(root, "tests"))
    from oracles import rescan_closure, rescan_saturate

    files, _ = gen.generate("ontology_mixed", seed, **REDUCED)
    axioms, sig = normalize(parse_general(files["ontology.sexp"]))
    splits = [parse_normalized(files[f"{name}.tsv"], sig)[0] for name in ("valid", "test")]
    kb = build_kb(sig, axioms, *splits)
    sub = saturate(kb)
    oracle_s = rescan_saturate(kb)
    failures = [f"reasoner oracle: subsumers of {sig.class_name(c)} differ"
                for c in range(sig.n_classes) if sub.subsumers[c] != oracle_s[c]]
    dc = compute_closure(kb, sub)
    for form, expected in rescan_closure(kb, oracle_s).items():
        if dc.sets[form] != expected:
            failures.append(f"closure oracle: {form.value} set differs")
    return failures


def run(workload: str, root: str, data_dir: str, ckpt: str, cfg, seed: int, pool,
        kb, dc, report, rep) -> list[str]:
    """Every check that applies to the workload, on the last round's outputs.

    ``pool`` names the evaluation's candidate pool (None for every class).
    """
    with open(os.path.join(data_dir, "truth.json"), encoding="utf-8") as f:
        truth = json.load(f)
    candidates = [kb.sig.class_name(c) for c in kb.pool(pool)]
    train_pairs = {_names(kb, ax.args, 1) for ax in kb.axioms[Form.GCI2]}
    records = [(*_names(kb, (r.head, r.rel, r.tail), 1), r.rank, r.frank)
               for r in rep.records + rep.closure_records]
    failures = check_ranking(ckpt, candidates, train_pairs, records, seed)
    failures += check_training(report)
    if workload == "hierarchy_filtered":
        failures += check_closure(kb, dc, rep, truth)
        failures += check_sampling(kb, dc, cfg, truth)
    if workload == "ontology_mixed":
        failures += check_reasoner(kb, dc, truth)
        failures += check_reduced_oracles(seed, root)
    return failures
