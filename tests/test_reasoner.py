import numpy as np
import pytest

from elgeo.axioms import BOT, TOP, Form, Signature, parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.reasoner import SubsumptionClosure, dump_subsumptions, saturate

from oracles import as_rows, is_subsumed, random_kb, rescan_closure, rescan_saturate


def kb_from(text):
    rows, sig = parse_normalized(text)
    return build_kb(sig, rows)


def derives(kb, c, d):
    sig = kb.sig
    return is_subsumed(saturate(kb), sig.class_id(c), sig.class_id(d))


class TestRules:
    def test_chain_transitivity(self):
        kb = kb_from("GCI0\tA\tB\nGCI0\tB\tC\n")
        assert derives(kb, "A", "C")

    def test_conjunction_rule(self):
        kb = kb_from("GCI0\tA\tB\nGCI0\tA\tC\nGCI1\tB\tC\tD\n")
        assert derives(kb, "A", "D")

    def test_existential_chain(self):
        kb = kb_from("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI3\tr\tBp\tC\n")
        assert derives(kb, "A", "C")

    def test_no_inverse(self):
        kb = kb_from("GCI0\tA\tB\n")
        assert not derives(kb, "B", "A")

    def test_reflexive_and_top(self):
        kb = kb_from("GCI0\tA\tB\n")
        assert derives(kb, "A", "A")
        assert derives(kb, "A", "TOP")

    def test_bottom_propagates_through_edges(self):
        kb = kb_from("GCI2\tA\tr\tB\nGCI0_BOT\tB\n")
        closure = saturate(kb)
        assert kb.sig.class_id("A") in closure.unsat

    def test_disjointness_fires(self):
        kb = kb_from("GCI0\tA\tB\nGCI0\tA\tC\nGCI1_BOT\tB\tC\n")
        closure = saturate(kb)
        assert kb.sig.class_id("A") in closure.unsat

    def test_unsat_subsumes_everything(self):
        kb = kb_from("GCI0_BOT\tA\nGCI0\tB\tC\n")
        closure = saturate(kb)
        sig = kb.sig
        for name in ("B", "C", "TOP", "BOT"):
            assert is_subsumed(closure, sig.class_id("A"), sig.class_id(name))

    def test_role_inclusions_ignored(self):
        kb = kb_from("RI0\tr\ts\nGCI2\tA\tr\tB\nGCI3\ts\tB\tC\n")
        assert not derives(kb, "A", "C")

    def test_top_axioms_apply_to_all(self):
        kb = kb_from("GCI0\tTOP\tD\nGCI0\tA\tB\n")
        assert derives(kb, "A", "D")
        assert derives(kb, "B", "D")


class TestInvariants:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            kb = random_kb(rng, n_classes=int(rng.integers(3, 9)),
                           n_relations=2, n_axioms=int(rng.integers(5, 25)))
            closure = saturate(kb)
            oracle = rescan_saturate(kb)
            for c in range(kb.sig.n_classes):
                assert closure.subsumers[c] == oracle[c], c

    def test_oracle_equivalence_at_scale(self):
        """Enough classes, relations and axioms that each relation's filler map holds
        several classes and edges meet them from both sides; the closure built on the
        result must equal the one built on the oracle's."""
        rng = np.random.default_rng(19)
        forms, unsat, derived = set(), 0, 0
        for _ in range(25):
            kb = random_kb(rng, n_classes=int(rng.integers(20, 41)),
                           n_relations=int(rng.integers(3, 6)),
                           n_axioms=int(rng.integers(60, 151)))
            closure = saturate(kb)
            oracle = rescan_saturate(kb)
            n = kb.sig.n_classes
            assert closure.subsumers == [oracle[c] for c in range(n)]
            assert closure.unsat == {c for c in range(n) if BOT in oracle[c]}
            dc = compute_closure(kb, closure)
            for form, expected in rescan_closure(kb, oracle).items():
                assert dc.sets[form] == expected, form.value
            forms |= {form for form in Form if len(kb.axioms[form])}
            unsat += len(closure.unsat) - 1
            derived += sum(map(len, closure.subsumers)) - 2 * n
        assert {Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3, Form.GCI0_BOT, Form.GCI1_BOT,
                Form.GCI3_BOT} <= forms
        assert unsat > 0 and derived > 0

    def test_reflexivity_top_transitivity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            kb = random_kb(rng, n_classes=6, n_axioms=15)
            closure = saturate(kb)
            n = kb.sig.n_classes
            for c in range(n):
                assert c in closure.subsumers[c]
                assert TOP in closure.subsumers[c]
                assert (c in closure.unsat) == (BOT in closure.subsumers[c])
            for c in range(n):
                for d in closure.subsumers[c]:
                    for e in closure.subsumers[d]:
                        assert e in closure.subsumers[c]

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            kb_small = random_kb(rng, n_classes=6, n_axioms=8)
            extra = random_kb(rng, n_classes=6, n_axioms=6)
            small_axioms = [ax for rows in kb_small.axioms.values() for ax in rows]
            merged_axioms = small_axioms + [
                ax for rows in extra.axioms.values() for ax in rows
                if ax not in set(small_axioms)]
            kb_big = build_kb(kb_small.sig, as_rows(merged_axioms))
            small = saturate(kb_small)
            big = saturate(kb_big)
            for c in range(kb_small.sig.n_classes):
                assert small.subsumers[c] <= big.subsumers[c]

    def test_unknown_id_errors(self):
        kb = kb_from("GCI0\tA\tB\n")
        closure = saturate(kb)
        with pytest.raises(KeyError):
            is_subsumed(closure, 99, 0)


def test_dump_contains_all_pairs():
    kb = kb_from("GCI0\tA\tB\nGCI0\tB\tC\n")
    closure = saturate(kb)
    lines = dump_subsumptions(closure).splitlines()
    assert "GCI0\tA\tC" in lines
    assert "GCI0\tA\tTOP" in lines
    assert len(lines) == sum(1 for _ in closure.pairs())


def test_pairs_come_in_id_order_whatever_the_set_history():
    sig = Signature()
    for i in range(40):
        sig.intern_class(f"K{i}")
    subsumers = [{c, TOP} for c in range(sig.n_classes)]
    subsumers[5] = set()
    for d in (37, 5, 2, TOP):   # 37 lands in the slot 5 would take, so the set iterates 37 first
        subsumers[5].add(d)
    assert list(subsumers[5]) != sorted(subsumers[5])
    closure = SubsumptionClosure(sig=sig, subsumers=subsumers, unsat={BOT})
    pairs = list(closure.pairs())
    assert pairs == sorted(pairs)
    assert [d for c, d in pairs if c == 5] == [TOP, 2, 5, 37]
    assert [d for c, d in pairs if c == BOT] == list(range(sig.n_classes))
