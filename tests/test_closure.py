from itertools import product

import numpy as np
import pytest

from elgeo.axioms import ARITY, BOT, GCI_FORMS, RELATION_SLOTS, Axiom, Form, parse_normalized
from elgeo.closure import (
    ClosureBudgetError, UnsupportedFormError, compute_closure, dump_closure,
    load_closure_dump, split_entailed,
)
from elgeo.dataset import build_kb
from elgeo.reasoner import saturate

from oracles import random_kb, rescan_closure, rescan_contains, rescan_saturate


def make(text):
    axioms, sig = parse_normalized(text)
    kb = build_kb(sig, axioms)
    sub = saturate(kb)
    return kb, sub, compute_closure(kb, sub)


class TestRules:
    def test_gci2_joint_rewrites(self):
        kb, sub, dc = make("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI0\tAp\tA\n")
        sig = kb.sig
        r = sig.relation_id("r")
        for c, d in [("A", "Bp"), ("Ap", "B"), ("A", "B"), ("Ap", "Bp")]:
            ax = Axiom(Form.GCI2, (sig.class_id(c), r, sig.class_id(d)))
            assert dc.contains(ax), (c, d)
        assert not dc.contains(Axiom(Form.GCI2, (sig.class_id("B"), r, sig.class_id("A"))))

    def test_gci1_first_slot_rule(self):
        kb, sub, dc = make("GCI1\tC\tD\tE\nGCI0\tCp\tC\n")
        sig = kb.sig
        ids = tuple(sig.class_id(n) for n in ("Cp", "D", "E"))
        assert dc.contains(Axiom(Form.GCI1, ids))

    def test_gci1_commutative_lookup(self):
        kb, sub, dc = make("GCI1\tC\tD\tE\n")
        sig = kb.sig
        swapped = (sig.class_id("D"), sig.class_id("C"), sig.class_id("E"))
        assert dc.contains(Axiom(Form.GCI1, swapped))

    def test_gci1_strict_mode_disables_commutativity(self):
        axioms, sig = parse_normalized("GCI1\tC\tD\tE\n")
        kb = build_kb(sig, axioms)
        dc = compute_closure(kb, saturate(kb), strict_printed_rules=True)
        swapped = (sig.class_id("D"), sig.class_id("C"), sig.class_id("E"))
        assert not dc.contains(Axiom(Form.GCI1, swapped))
        assert dc.contains(Axiom(Form.GCI1, (sig.class_id("C"), sig.class_id("D"),
                                             sig.class_id("E"))))

    def test_gci1_bot_query_time_propagation(self):
        kb, sub, dc = make("GCI1_BOT\tC\tD\nGCI0\tCp\tC\nGCI0\tDp\tD\n")
        sig = kb.sig
        down = (sig.class_id("Cp"), sig.class_id("Dp"))
        assert dc.contains(Axiom(Form.GCI1_BOT, down))
        assert dc.contains(Axiom(Form.GCI1_BOT, (down[1], down[0])))
        # strict mode: only the stored tuple
        dc2 = compute_closure(kb, sub, strict_printed_rules=True)
        assert not dc2.contains(Axiom(Form.GCI1_BOT, down))

    def test_empty_kb_reflexive_only(self):
        axioms, sig = parse_normalized("")
        sig.intern_class("A")
        kb = build_kb(sig, axioms)
        dc = compute_closure(kb, saturate(kb))
        a = sig.class_id("A")
        assert dc.contains(Axiom(Form.GCI0, (a, a)))
        assert dc.contains(Axiom(Form.GCI0, (a, 0)))
        for form in (Form.GCI1, Form.GCI2, Form.GCI3, Form.GCI0_BOT,
                     Form.GCI1_BOT, Form.GCI3_BOT):
            assert not dc.sets[form]

    def test_reflexive_membership(self):
        kb, sub, dc = make("GCI0\tA\tB\n")
        a = kb.sig.class_id("A")
        assert dc.contains(Axiom(Form.GCI0, (a, a)))

    def test_ri_forms_unsupported(self):
        kb, sub, dc = make("GCI0\tA\tB\n")
        r = kb.sig.intern_relation("r")
        s = kb.sig.intern_relation("s")
        with pytest.raises(UnsupportedFormError):
            dc.contains(Axiom(Form.RI0, (r, s)))


class TestProperties:
    def test_oracle_equivalence_50_random_kbs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            kb = random_kb(rng, n_classes=int(rng.integers(4, 31)), n_relations=2,
                           n_axioms=int(rng.integers(5, 61)))
            sub = saturate(kb)
            dc = compute_closure(kb, sub)
            oracle = rescan_closure(kb, rescan_saturate(kb))
            for form, expected in oracle.items():
                assert dc.sets[form] == expected, form.value

    def test_second_pass_is_fixpoint(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            kb = random_kb(rng, n_classes=8, n_axioms=20)
            sub = saturate(kb)
            dc = compute_closure(kb, sub)
            expanded = [Axiom(form, args) for form in dc.sets for args in dc.sets[form]]
            kb2 = build_kb(kb.sig, expanded)
            dc2 = compute_closure(kb2, sub)
            for form in dc.sets:
                assert dc2.sets[form] == dc.sets[form], form.value

    def test_superset_of_asserted_and_sub(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            kb = random_kb(rng, n_classes=8, n_axioms=20)
            sub = saturate(kb)
            dc = compute_closure(kb, sub)
            for form, axioms in kb.axioms.items():
                if form in dc.sets:
                    for ax in axioms:
                        assert dc.contains(ax)
                        assert dc.provenance(ax) == "asserted"
            for pair in sub.pairs():
                if pair[0] == BOT:
                    continue   # tautology rows stay implicit (query-time true)
                if pair[1] == BOT:
                    assert (pair[0],) in dc.sets[Form.GCI0_BOT]
                else:
                    assert pair in dc.sets[Form.GCI0]

    def test_budget_abort(self):
        text = "\n".join(f"GCI0\tA{i}\tA{i+1}" for i in range(10))
        axioms, sig = parse_normalized(text)
        kb = build_kb(sig, axioms)
        sub = saturate(kb)
        with pytest.raises(ClosureBudgetError, match="closure.max_derived"):
            compute_closure(kb, sub, max_derived=10)

    def test_budget_boundary_is_the_stored_row_count(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            kb = random_kb(rng, n_classes=10, n_axioms=30)
            sub = saturate(kb)
            total = sum(len(s) for s in compute_closure(kb, sub).sets.values())
            compute_closure(kb, sub, max_derived=total)
            with pytest.raises(ClosureBudgetError):
                compute_closure(kb, sub, max_derived=total - 1)

    def test_computed_and_loaded_membership_match_the_reference(self, tmp_path):
        # every id tuple of every form, on KBs with unsatisfiable classes and
        # disjointness axioms among them, with and without strict rules
        rng = np.random.default_rng(37)
        for i in range(30):
            kb = random_kb(rng, n_classes=int(rng.integers(4, 15)), n_relations=2,
                           n_axioms=int(rng.integers(5, 41)))
            sub, S = saturate(kb), rescan_saturate(kb)
            classes, rels = range(kb.sig.n_classes), range(kb.sig.n_relations)
            for strict in (False, True):
                dc = compute_closure(kb, sub, strict_printed_rules=strict)
                path = str(tmp_path / f"{i}-{strict}")
                dump_closure(dc, path)
                loaded = load_closure_dump(path, kb.sig)
                reference = rescan_contains(kb, S, strict)
                for form in GCI_FORMS:
                    rel_slots = RELATION_SLOTS.get(form, ())
                    for args in product(*(rels if j in rel_slots else classes
                                          for j in range(ARITY[form]))):
                        try:
                            ax = Axiom(form, args)
                        except ValueError:
                            continue   # BOT right-hand side: only the bottom form holds it
                        expected = reference(form, args)
                        where = (i, strict, form.value, args)
                        assert dc.contains(ax) == expected, where
                        assert loaded.contains(ax) == expected, where


class TestSplitEntailed:
    def test_partition(self):
        kb, sub, dc = make("GCI2\tA\tr\tB\nGCI0\tB\tBp\n")
        sig = kb.sig
        r = sig.relation_id("r")
        entailed_ax = Axiom(Form.GCI2, (sig.class_id("A"), r, sig.class_id("Bp")))
        novel_ax = Axiom(Form.GCI2, (sig.class_id("B"), r, sig.class_id("A")))
        entailed, novel = split_entailed(dc, [entailed_ax, novel_ax])
        assert entailed == [entailed_ax]
        assert novel == [novel_ax]

    def test_empty(self):
        kb, sub, dc = make("GCI0\tA\tB\n")
        assert split_entailed(dc, []) == ([], [])

    def test_all_asserted(self):
        kb, sub, dc = make("GCI2\tA\tr\tB\nGCI1\tA\tB\tC\n")
        axioms = kb.axioms[Form.GCI2] + kb.axioms[Form.GCI1]
        entailed, novel = split_entailed(dc, axioms)
        assert entailed == axioms and novel == []


def test_dump_and_reload(tmp_path):
    kb, sub, dc = make("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI1_BOT\tA\tB\n")
    dump_closure(dc, str(tmp_path))
    loaded = load_closure_dump(str(tmp_path), kb.sig)
    for form in dc.sets:
        assert loaded.sets[form] == dc.sets[form]
        assert loaded.asserted[form] == (dc.asserted[form] & dc.sets[form])
    sig = kb.sig
    ax = Axiom(Form.GCI2, (sig.class_id("A"), sig.relation_id("r"), sig.class_id("Bp")))
    assert loaded.contains(ax)


@pytest.mark.parametrize("stats", ["{", "[]", '{"derived": {}}',
                                   '{"strict_printed_rules": "yes"}'])
def test_malformed_closure_stats_raise_value_error(tmp_path, stats):
    kb, sub, dc = make("GCI1\tA\tB\tC\n")
    dump_closure(dc, str(tmp_path))
    (tmp_path / "closure_stats.json").write_text(stats)
    with pytest.raises(ValueError, match="closure_stats.json"):
        load_closure_dump(str(tmp_path), kb.sig)


def test_dump_without_closure_stats_raises_value_error(tmp_path):
    kb, sub, dc = make("GCI1\tA\tB\tC\n")
    dump_closure(dc, str(tmp_path))
    (tmp_path / "closure_stats.json").unlink()
    with pytest.raises(ValueError, match="closure_stats.json: missing"):
        load_closure_dump(str(tmp_path), kb.sig)


def test_dump_load_looks_names_up_without_interning(tmp_path):
    kb, sub, dc = make("GCI2\tA\tr\tB\nGCI0\tB\tBp\n")
    dump_closure(dc, str(tmp_path))
    _, no_bp = parse_normalized("GCI2\tA\tr\tB\n")
    with pytest.raises(ValueError, match=r"closure_gci0\.tsv:\d+: unknown class: 'Bp'"):
        load_closure_dump(str(tmp_path), no_bp)
    assert no_bp.class_names == ("TOP", "BOT", "A", "B")
    _, no_r = parse_normalized("GCI2\tA\ts\tB\nGCI0\tB\tBp\n")
    with pytest.raises(ValueError, match=r"closure_gci2\.tsv:\d+: unknown relation: 'r'"):
        load_closure_dump(str(tmp_path), no_r)
    assert no_r.relation_names == ("s",)
