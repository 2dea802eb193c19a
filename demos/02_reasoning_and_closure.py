"""Walkthrough: saturation and the per-form deductive closure.

The reasoner saturates the KB into every derivable named-concept
subsumption.  The closure then rewrites each asserted axiom along the
hierarchy, giving per-form entailed-axiom sets, each a sorted array of packed
keys with membership by binary search, which later power negative filtering and
closure-aware evaluation.
"""

from elgeo.axioms import AxiomRows, Form, parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.reasoner import saturate

TRAIN = """GCI0\tkinase\tenzyme
GCI0\tenzyme\tprotein
GCI2\tkinase\tbinds\tatp
GCI0\tatp\tnucleotide
GCI1\tenzyme\tmembrane_bound\treceptor
GCI1_BOT\tnucleotide\tprotein
"""

rows, sig = parse_normalized(TRAIN)
kb = build_kb(sig, rows)
sub = saturate(kb)

kinase = sig.class_id("kinase")
protein = sig.class_id("protein")
print("kinase is a protein:", protein in sub.subsumers[kinase])

dc = compute_closure(kb, sub)
print("derived counts per form:", dc.derived_counts())

binds = sig.relation_id("binds")
# membership is asked of a batch of id rows at once
probes = AxiomRows(Form.GCI2, [(kinase, binds, sig.class_id("nucleotide")),
                               (protein, binds, sig.class_id("atp"))])
entailed = int(dc.contains(probes).sum())
print("entailed probes:", entailed, "novel probes:", len(probes) - entailed)

# disjointness propagates down the hierarchy at query time
clash = AxiomRows(Form.GCI1_BOT, [(sig.class_id("atp"), sig.class_id("kinase"))])
print("atp and kinase disjoint (derived):", bool(dc.contains(clash)[0]))
