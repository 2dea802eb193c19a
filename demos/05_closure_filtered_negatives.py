"""Walkthrough: why corrupted negatives should be filtered through the closure.

The synthetic hierarchy implants chains of tail classes, so each asserted
relation edge entails the edge to every ancestor tail.  Unfiltered corruption
keeps drawing those entailed tails as "negatives" and pushes true axioms
away; filtering them out improves the filtered mean rank of the held-out
entailed test edges.
"""

from elgeo.axioms import AxiomRows, Form
from elgeo.closure import compute_closure
from elgeo.evaluation import evaluate
from elgeo.reasoner import saturate
from elgeo.sampling import NegativeSampler, SamplerConfig
from elgeo.toygen import hierarchy_kb
from elgeo.training import TrainConfig, train

kb = hierarchy_kb(seed=1)
dc = compute_closure(kb, saturate(kb))
print("entailed relation axioms:", dc.derived_counts()["GCI2"],
      "of", len(kb.pool('tails')) * len(kb.train_gci2), "possible corruptions")

# how often does blind corruption hit an entailed axiom?
import numpy as np
rows = np.array([ax.args for ax in kb.train_gci2] * 500, dtype=np.int64)
blind = NegativeSampler(kb, SamplerConfig(seed=0), dc)
out, keep = blind.corrupt_ids(Form.GCI2, rows)
hits = int(dc.contains(AxiomRows(Form.GCI2, out)).sum())
print(f"blind corruption draws an entailed axiom {hits / len(out):.1%} of the time")

for filtered in (False, True):
    cfg = TrainConfig(epochs=150, lr=0.01, margin=0.1, dim=16,
                      reg_mode="strict", activation="relu",
                      neg_forms=("gci2",), filter_negatives=filtered, seed=42)
    model, report = train(kb, cfg, dc)
    rep = evaluate(model, kb, pool="tails")
    label = "filtered " if filtered else "unfiltered"
    print(f"{label} negatives -> macro FMR {rep.macro_fmr:6.2f}, "
          f"FHits@10 {rep.fhits10:.2f}, drops {report.sampler['dropped']}")
