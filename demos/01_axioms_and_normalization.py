"""Walkthrough: the axiom formats and the normalizer.

General class axioms arrive as s-expressions; the normalizer rewrites them
into the nine normal forms, inventing _N classes for complex subexpressions.
The normalizer, the line-format parser and the toy generators all give the
same id rows: one int64 array per normal form, plus each row's form in order.
Normalized axioms serialize to a TAB-separated line format and round-trip.
"""

from elgeo.axioms import parse_normalized, serialize_normalized
from elgeo.normalize import normalize
from elgeo.sexpr import parse_general

GENERAL = """
(subclassof protein (and molecule (some has_part amino_acid)))
(subclassof (some regulates (and cell_division checkpoint)) regulator)
(equivalent enzyme catalyst)
(subclassof (and kinase phosphatase) bot)
(subrole regulates interacts_with)
"""

general_axioms = parse_general(GENERAL)
print(f"parsed {len(general_axioms)} general axioms")

normalized, sig = normalize(general_axioms)
doc = serialize_normalized(normalized, sig)
print("\nnormal forms:")
print(doc)
for form, ids in normalized.ids.items():
    if len(ids):
        print(f"{form.value:8s} id rows {ids.tolist()}")

reparsed, _ = parse_normalized(doc, sig)
assert list(reparsed.in_order()) == list(normalized.in_order())
print("round-trip through the line format is exact")

fresh = [name for name in sig.class_names if name.startswith("_N")]
print(f"fresh classes introduced: {fresh}")
