import json
import os
import re
import tempfile
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo.axioms import (
    ARITY, BOT, GCI_FORMS, LAYOUT, Axiom, Form, parse_normalized, rows_of,
)
from elgeo.closure import (
    ClosureBudgetError, UnsupportedFormError, compute_closure, dump_closure,
    load_closure_dump,
)
from elgeo.dataset import build_kb
from elgeo.reasoner import saturate

from oracles import random_kb, rescan_closure, rescan_contains, rescan_saturate, split_entailed


def make(text):
    rows, sig = parse_normalized(text)
    kb = build_kb(sig, rows)
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

    def test_gci1_bot_query_time_propagation(self):
        kb, sub, dc = make("GCI1_BOT\tC\tD\nGCI0\tCp\tC\nGCI0\tDp\tD\n")
        sig = kb.sig
        down = (sig.class_id("Cp"), sig.class_id("Dp"))
        assert dc.contains(Axiom(Form.GCI1_BOT, down))
        assert dc.contains(Axiom(Form.GCI1_BOT, (down[1], down[0])))

    def test_empty_kb_reflexive_only(self):
        rows, sig = parse_normalized("")
        sig.intern_class("A")
        kb = build_kb(sig, rows)
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
            expanded = rows_of((form, args) for form in dc.sets for args in dc.sets[form])
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
                        assert ax.args in dc.asserted[form]
            for pair in sub.pairs():
                if pair[0] == BOT:
                    continue   # tautology rows stay implicit (query-time true)
                if pair[1] == BOT:
                    assert (pair[0],) in dc.sets[Form.GCI0_BOT]
                else:
                    assert pair in dc.sets[Form.GCI0]

    def test_budget_abort(self):
        text = "\n".join(f"GCI0\tA{i}\tA{i+1}" for i in range(10))
        rows, sig = parse_normalized(text)
        kb = build_kb(sig, rows)
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
        # disjointness axioms among them
        rng = np.random.default_rng(37)
        for i in range(30):
            kb = random_kb(rng, n_classes=int(rng.integers(4, 15)), n_relations=2,
                           n_axioms=int(rng.integers(5, 41)))
            sub, S = saturate(kb), rescan_saturate(kb)
            classes, rels = range(kb.sig.n_classes), range(kb.sig.n_relations)
            dc = compute_closure(kb, sub)
            path = str(tmp_path / str(i))
            dump_closure(dc, path)
            loaded = load_closure_dump(path, kb.sig)
            reference = rescan_contains(kb, S)
            for form in GCI_FORMS:
                rel_slots = [k for k, kind in enumerate(LAYOUT[form]) if kind == "r"]
                for args in product(*(rels if j in rel_slots else classes
                                      for j in range(ARITY[form]))):
                    try:
                        ax = Axiom(form, args)
                    except ValueError:
                        continue   # BOT right-hand side: only the bottom form holds it
                    expected = reference(form, args)
                    where = (i, form.value, args)
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
        axioms = [*kb.axioms[Form.GCI2], *kb.axioms[Form.GCI1]]
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


# the stats file is deleted, or holds what the loader used to reject
@pytest.mark.parametrize("damage", ["delete", "{", "[]", '{"derived": {}}',
                                    '{"strict_printed_rules": "yes"}'])
def test_dump_stats_file_is_not_read_back(tmp_path, damage):
    kb, sub, dc = make("GCI1\tA\tB\tC\nGCI1_BOT\tA\tD\nGCI0\tAp\tA\n")
    dump_closure(dc, str(tmp_path))
    stats = json.loads((tmp_path / "closure_stats.json").read_text())
    assert stats == {"derived": dc.derived_counts()}
    if damage == "delete":
        (tmp_path / "closure_stats.json").unlink()
    else:
        (tmp_path / "closure_stats.json").write_text(damage)
    loaded = load_closure_dump(str(tmp_path), kb.sig)
    n = kb.sig.n_classes
    queries = [Axiom(Form.GCI1, args) for args in product(range(2, n), repeat=3)]
    queries += [Axiom(Form.GCI1_BOT, args) for args in product(range(2, n), repeat=2)]
    for ax in queries:
        assert loaded.contains(ax) == dc.contains(ax), ax


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


def test_dump_with_crlf_line_endings_loads(tmp_path):
    kb, sub, dc = make("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI1_BOT\tA\tB\n")
    dump_closure(dc, str(tmp_path))
    for tsv in tmp_path.glob("*.tsv"):
        tsv.write_bytes(tsv.read_bytes().replace(b"\n", b"\r\n"))
    loaded = load_closure_dump(str(tmp_path), kb.sig)
    assert loaded.sets == dc.sets and loaded.asserted == dc.asserted


def _damage(fields: list[str], how: str) -> list[str]:
    """One closure dump line's fields, damaged in the named way."""
    if how == "unknown name":
        return fields[:1] + ["NotInTheSignature"] + fields[2:]
    if how == "missing field":
        return fields[:-1]
    if how == "wrong form tag":
        return [next(f.value for f in GCI_FORMS if f.value != fields[0])] + fields[1:]
    return fields[:-1] + ["bogus"]


@given(seed=st.integers(0, 2 ** 32 - 1),
       how=st.sampled_from(["unknown name", "missing field", "wrong form tag",
                            "bad provenance", "none"]),
       pick=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_damaged_dump_names_file_and_line(seed, how, pick):
    rng = np.random.default_rng(seed)
    kb = random_kb(rng, n_classes=int(rng.integers(3, 9)), n_relations=2,
                   n_axioms=int(rng.integers(3, 16)))
    dc = compute_closure(kb, saturate(kb))
    sizes = (kb.sig.n_classes, kb.sig.n_relations)
    with tempfile.TemporaryDirectory() as path:
        dump_closure(dc, path)
        if how == "none":
            loaded = load_closure_dump(path, kb.sig)
            assert loaded.sets == dc.sets and loaded.asserted == dc.asserted
            return
        tsvs = sorted(name for name in os.listdir(path)
                      if name.endswith(".tsv") and os.path.getsize(os.path.join(path, name)))
        name = tsvs[pick % len(tsvs)]
        with open(os.path.join(path, name), encoding="utf-8") as f:
            lines = f.read().splitlines()
        line = pick // len(tsvs) % len(lines)
        lines[line] = "\t".join(_damage(lines[line].split("\t"), how))
        with open(os.path.join(path, name), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{name}:{line + 1}: ")):
            load_closure_dump(path, kb.sig)
    assert (kb.sig.n_classes, kb.sig.n_relations) == sizes
