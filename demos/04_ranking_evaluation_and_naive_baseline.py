"""Walkthrough: ranking metrics, filtered variants, and the frequency shortcut.

Every test axiom's true tail is ranked against a candidate pool; filtered
variants remove train-asserted tails first.  A head-independent baseline that
scores tails purely by train-set frequency looks deceptively strong whenever
the tail distribution is skewed, which is exactly what the skewed generator
produces.
"""

import os
import tempfile

from elgeo.evaluation import emit_roc, evaluate, naive_fit
from elgeo.toygen import skew_kb
from elgeo.training import TrainConfig, train

kb = skew_kb(seed=3)
print("train size:", len(kb.train_gci2), "test size:", len(kb.test),
      "tail pool:", len(kb.pool("tails")))

rel = kb.test[0].args[1]
edges = kb.train_gci2.ids   # (k, 3) id rows: head, relation, tail
naive = naive_fit(edges[edges[:, 1] == rel], rel, kb.pool("tails"))
naive_report = evaluate(naive, kb, pool="tails")
print("\nnaive baseline:")
for key, val in sorted(naive_report.metrics().items()):
    print(f"  {key:12s} {val:8.4f}")

cfg = TrainConfig(epochs=120, lr=0.01, margin=0.1, dim=16, reg_mode="relaxed",
                  activation="leaky_relu", neg_forms=("gci2",), seed=42)
model, _ = train(kb, cfg)
trained_report = evaluate(model, kb, pool="tails")
print("\ntrained embedding:")
for key, val in sorted(trained_report.metrics().items()):
    print(f"  {key:12s} {val:8.4f}")

roc_path = os.path.join(tempfile.mkdtemp(prefix="elgeo-demo-"), "naive_roc.csv")
emit_roc(naive_report, roc_path)
print(f"\nROC points written to {roc_path}")
print("note the high naive AUC: tail frequency alone explains most of it")
