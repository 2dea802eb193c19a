import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo.axioms import Axiom, parse_normalized, serialize_normalized
from elgeo.dataset import build_kb
from elgeo.normalize import normalize
from elgeo.reasoner import saturate
from elgeo.sexpr import (
    BOT_CONCEPT, TOP_CONCEPT, atom, conj, equivalent, parse_general, some,
    subclassof,
)

from oracles import as_axioms, is_subsumed


def norm_text(text):
    rows, sig = normalize(parse_general(text))
    return serialize_normalized(rows, sig).splitlines()


class TestRules:
    def test_conjunction_on_right_splits(self):
        assert norm_text("(subclassof A (and B (some r C)))") == \
            ["GCI0\tA\tB", "GCI2\tA\tr\tC"]

    def test_complex_filler_extraction(self):
        assert norm_text("(subclassof (some r (and B C)) D)") == \
            ["GCI1\tB\tC\t_N1", "GCI3\tr\t_N1\tD"]

    def test_left_associative_binarization(self):
        assert norm_text("(subclassof (and A B C) D)") == \
            ["GCI1\tA\tB\t_N1", "GCI1\t_N1\tC\tD"]

    def test_complex_in_complex_middle_name(self):
        assert norm_text("(subclassof (some r B) (some s C))") == \
            ["GCI3\tr\tB\t_N1", "GCI2\t_N1\ts\tC"]

    def test_equivalent_emits_both_directions(self):
        assert norm_text("(equivalent A B)") == ["GCI0\tA\tB", "GCI0\tB\tA"]

    def test_complex_filler_on_right(self):
        assert norm_text("(subclassof A (some r (and B C)))") == \
            ["GCI0\t_N1\tB", "GCI0\t_N1\tC", "GCI2\tA\tr\t_N1"]

    def test_bot_left_tautology_dropped(self):
        assert norm_text("(subclassof bot A)") == []
        assert norm_text("(subclassof (and A bot) B)") == []

    def test_bot_right_canonicalized(self):
        assert norm_text("(subclassof (and A B) bot)") == ["GCI1_BOT\tA\tB"]
        assert norm_text("(subclassof (some r A) bot)") == ["GCI3_BOT\tr\tA"]

    def test_top_kept_as_slot(self):
        assert norm_text("(subclassof A top)") == ["GCI0\tA\tTOP"]

    def test_role_axioms_pass_through(self):
        assert norm_text("(subrole r s)") == ["RI0\tr\ts"]
        assert norm_text("(rolechain r1 r2 s)") == ["RI1\tr1\tr2\ts"]

    def test_reserved_input_identifier_rejected(self):
        with pytest.raises(ValueError, match="reserved prefix"):
            normalize([subclassof(atom("_N7"), atom("B"))])


# each normal form written as a general axiom maps back to exactly itself
NORMAL_TEXTS = [
    ("(subclassof A B)", "GCI0\tA\tB"),
    ("(subclassof (and A B) C)", "GCI1\tA\tB\tC"),
    ("(subclassof A (some r B))", "GCI2\tA\tr\tB"),
    ("(subclassof (some r A) B)", "GCI3\tr\tA\tB"),
    ("(subclassof A bot)", "GCI0_BOT\tA"),
    ("(subclassof (and A B) bot)", "GCI1_BOT\tA\tB"),
    ("(subclassof (some r A) bot)", "GCI3_BOT\tr\tA"),
]


@pytest.mark.parametrize("text,expected", NORMAL_TEXTS)
def test_idempotent_on_normal_input(text, expected):
    rows, sig = normalize(parse_general(text))
    assert serialize_normalized(rows, sig).splitlines() == [expected]
    assert not any(sig.class_name(i).startswith("_N") for i in range(sig.n_classes))


_atomics = st.sampled_from([atom("A"), atom("B"), atom("C"), TOP_CONCEPT, BOT_CONCEPT])


def _concepts(depth):
    if depth == 0:
        return _atomics
    sub = _concepts(depth - 1)
    return st.one_of(
        _atomics,
        st.builds(lambda f: some("r", f), sub),
        st.lists(sub, min_size=2, max_size=3).map(conj),
    )


@given(st.lists(
    st.builds(subclassof, _concepts(2), _concepts(2))
    | st.builds(equivalent, _concepts(1), _concepts(1)),
    min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_output_is_normal_and_fresh_names_bounded(general):
    rows, sig = normalize(general)
    for ax in as_axioms(rows):   # Axiom() rejects a wrong arity or a BOT consequent
        assert isinstance(ax, Axiom)

    def complex_nodes(c):
        # each non-atomic occurrence may earn one fresh name; a k-way
        # conjunction binarizes into k-1 binary occurrences
        if c.kind in ("atom", "top", "bot"):
            return 0
        weight = len(c.parts) - 1 if c.kind == "and" else 1
        return weight + sum(complex_nodes(p) for p in c.parts)

    bound = 0
    for g in general:
        directions = 2 if g.kind == "equivalent" else 1
        bound += directions * (complex_nodes(g.left) + complex_nodes(g.right))
    fresh = [sig.class_name(i) for i in range(sig.n_classes)
             if sig.class_name(i).startswith("_N")]
    assert len(fresh) <= bound


def test_conservative_extension_spot_check():
    # the machine-normalized KB and an equivalent hand-normalized KB derive
    # the same subsumptions over the shared input-signature classes
    text = """
    (subclassof A (and B (some r C)))
    (subclassof (some r C) D)
    (subclassof (and B D) E)
    """
    machine, sig_m = normalize(parse_general(text))
    hand = """GCI0\tA\tB
GCI2\tA\tr\tC
GCI3\tr\tC\tD
GCI1\tB\tD\tE
"""
    hand_rows, sig_h = parse_normalized(hand)
    closure_m = saturate(build_kb(sig_m, machine))
    closure_h = saturate(build_kb(sig_h, hand_rows))
    shared = ["A", "B", "C", "D", "E"]
    for c in shared:
        for d in shared:
            lhs = is_subsumed(closure_m, sig_m.class_id(c), sig_m.class_id(d))
            rhs = is_subsumed(closure_h, sig_h.class_id(c), sig_h.class_id(d))
            assert lhs == rhs, (c, d)
