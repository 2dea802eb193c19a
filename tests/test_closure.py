import json
import os
import re
import tempfile
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo.axioms import (
    ARITY, BOT, CONSEQUENT_SLOT, GCI_FORMS, LAYOUT, Axiom, AxiomRows, Form, pack_keys,
    parse_normalized, per_slot, rows_of,
)
from elgeo.closure import (
    ClosureBudgetError, UnsupportedFormError, _product, compute_closure, dump_closure,
    load_closure_dump,
)
from elgeo.dataset import build_kb
from elgeo.reasoner import saturate
from elgeo.toygen import hierarchy_kb

from oracles import (
    LEFT_SLOTS, random_kb, rescan_closure, rescan_contains, rescan_saturate, split_entailed,
)


def same_keys(a, b) -> bool:
    """Whether two closures hold the same entailed and asserted keys of every form."""
    return all(np.array_equal(a.keys[form], b.keys[form])
               and np.array_equal(a.asserted_keys[form], b.asserted_keys[form])
               for form in GCI_FORMS)


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
                    assert np.array_equal(dc.ids(form, dc.asserted_keys[form]),
                                          np.unique(axioms.ids, axis=0).reshape(-1, ARITY[form]))
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

    def test_an_over_budget_closure_stops_before_the_forms_after(self, monkeypatch):
        # the GCI0 chain alone stores more rows than the budget of 10: the GCI2 row,
        # expanded after it, is never packed
        text = "\n".join(f"GCI0\tA{i}\tA{i+1}" for i in range(10)) + "\nGCI2\tA0\tr\tA9"
        rows, sig = parse_normalized(text)
        kb = build_kb(sig, rows)
        sub = saturate(kb)
        packed = []

        def spy(form, *args):
            packed.append(form)
            return pack_keys(form, *args)

        monkeypatch.setattr("elgeo.closure.pack_keys", spy)
        compute_closure(kb, sub)
        assert Form.GCI2 in packed
        packed.clear()
        with pytest.raises(ClosureBudgetError):
            compute_closure(kb, sub, max_derived=10)
        assert packed == [Form.GCI0]

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

    def test_batched_membership_matches_the_reference(self, tmp_path):
        # the KBs above, each form's every id row in one contains call
        rng = np.random.default_rng(37)
        seen = {"BOT head": 0, "unsatisfiable class": 0, "GCI1_BOT propagation": 0}
        for i in range(30):
            kb = random_kb(rng, n_classes=int(rng.integers(4, 15)), n_relations=2,
                           n_axioms=int(rng.integers(5, 41)))
            S = rescan_saturate(kb)
            dc = compute_closure(kb, saturate(kb))
            path = str(tmp_path / str(i))
            dump_closure(dc, path)
            loaded = load_closure_dump(path, kb.sig)
            reference, strict = rescan_contains(kb, S), rescan_contains(kb, S, strict=True)
            classes, rels = range(kb.sig.n_classes), range(kb.sig.n_relations)
            for form in GCI_FORMS:
                rows = np.array(list(product(*per_slot(form, classes, rels))),
                                dtype=np.int64).reshape(-1, ARITY[form])
                if form in CONSEQUENT_SLOT:   # only the bottom form holds a BOT consequent
                    rows = rows[rows[:, CONSEQUENT_SLOT[form]] != BOT]
                expected = np.array([reference(form, args) for args in map(tuple, rows.tolist())],
                                    dtype=bool)
                for closure in (dc, loaded):
                    got = closure.contains(AxiomRows(form, rows))
                    assert got.dtype == bool and np.array_equal(got, expected), (i, form.value)
                    # the sampler's filter relies on every asserted axiom being a member
                    assert closure.contains(kb.axioms[form]).all(), (i, form.value)
                if form is Form.GCI0:
                    seen["BOT head"] += int(expected[rows[:, 0] == BOT].sum())
                if form is Form.GCI1_BOT:
                    seen["GCI1_BOT propagation"] += sum(
                        hit and not strict(form, args)
                        for args, hit in zip(map(tuple, rows.tolist()), expected))
            seen["unsatisfiable class"] += sum(BOT in S[c] for c in classes if c != BOT)
        assert all(seen.values()), seen


def test_product_repeats_each_row_per_member_with_the_last_slot_fastest():
    # groups 0: [7, 8], 1: [], 2: [4, 5, 6]
    groups = (np.array([0, 2, 2, 5]), np.array([7, 8, 4, 5, 6]))
    tag, c, d = np.array([10, 11, 12, 13]), np.array([0, 1, 2, 2]), np.array([2, 0, 0, 0])
    members = [groups[1][groups[0][g]:groups[0][g + 1]].tolist() for g in range(3)]
    expected = [(t, x, y) for t, g, h in zip(tag.tolist(), c.tolist(), d.tolist())
                for x in members[g] for y in members[h]]
    assert list(zip(*(a.tolist() for a in _product(tag, (groups, c), (groups, d))))) == expected
    assert [a.tolist() for a in _product(tag, c)] == [tag.tolist(), c.tolist()]


def test_bot_left_of_the_inclusion_is_entailed_in_every_form(tmp_path):
    # no row below is stored: BOT in any antecedent slot makes each a tautology
    kb, sub, dc = make("GCI0\tA\tB\nGCI2\tA\tr\tB\n")
    dump_closure(dc, str(tmp_path))
    loaded = load_closure_dump(str(tmp_path), kb.sig)
    a, b = kb.sig.class_id("A"), kb.sig.class_id("B")
    for form in GCI_FORMS:
        for slot in LEFT_SLOTS[form]:
            rows = np.array([per_slot(form, c, 0) for c in (a, b)])
            rows[:, slot] = BOT
            for closure in (dc, loaded):
                assert closure.contains(AxiomRows(form, rows)).all(), (form.value, slot)
                assert closure.contains(Axiom(form, tuple(rows[0].tolist()))), (form.value, slot)


def chain_kb(length: int, heads: int):
    """Two GCI0 chains A0 < A1 < ... and B0 < B1 < ..., each ``length`` long, and GCI2
    rows A(length - 1 - i) r Bj for every i < ``heads`` and every j.  Row i, j expands
    to (length - i) * (length - j + 1) rows, TOP counted; all share length * (length + 1)
    keys."""
    text = [f"GCI0\t{x}{i}\t{x}{i + 1}" for x in "AB" for i in range(length - 1)]
    text += [f"GCI2\tA{length - 1 - i}\tr\tB{j}" for i in range(heads) for j in range(length)]
    rows, sig = parse_normalized("\n".join(text))
    return build_kb(sig, rows)


def closure_kbs():
    """The 30 random KBs of the membership tests, a hierarchy, and one GCI2 row that
    expands to 30 rows on its own."""
    rng = np.random.default_rng(37)
    kbs = [random_kb(rng, n_classes=int(rng.integers(4, 15)), n_relations=2,
                     n_axioms=int(rng.integers(5, 41))) for _ in range(30)]
    return kbs + [hierarchy_kb(density=0.5, seed=3), chain_kb(5, 1)]


class TestBlocks:
    """The block size bounds memory alone: every key, count and dump byte stays."""

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_changes_no_key(self, monkeypatch, block):
        kbs = closure_kbs()
        subs = [saturate(kb) for kb in kbs]
        expected = [compute_closure(kb, sub) for kb, sub in zip(kbs, subs)]
        # the last KB's one GCI2 row expands past either block
        assert len(expected[-1].keys[Form.GCI2]) == 30 > block
        monkeypatch.setattr("elgeo.closure.BLOCK", block)
        for kb, sub, want in zip(kbs, subs, expected):
            got = compute_closure(kb, sub)
            assert same_keys(got, want)
            assert got.stats == want.stats

    def test_dump_bytes_do_not_depend_on_the_block(self, monkeypatch, tmp_path):
        kbs = closure_kbs()[-3:]
        dcs = [compute_closure(kb, saturate(kb)) for kb in kbs]
        assert max(len(k) for dc in dcs for k in dc.keys.values()) > 7

        def dumped(name):
            out = {}
            for i, dc in enumerate(dcs):
                dump_closure(dc, str(tmp_path / name / str(i)))
                out |= {(i, f.name): f.read_bytes() for f in (tmp_path / name / str(i)).iterdir()}
            return out

        expected = dumped("default")
        for block in (1, 7):
            monkeypatch.setattr("elgeo.closure.BLOCK", block)
            assert dumped(str(block)) == expected, block

    def test_memory_stays_near_the_keys_and_a_few_blocks(self, monkeypatch):
        """The traced peak stays under 8 times the returned key bytes plus 16 blocks of
        int64s on 1,024 GCI2 rows that expand to over 72 blocks of 4,096, all but 1,056 of
        them repeats.  A block's product, packing and sort take a few block-sized arrays,
        and a merge at most twice the keys; expanding every row at once takes 14.4 MB."""
        block = 1 << 12
        monkeypatch.setattr("elgeo.closure.BLOCK", block)
        kb = chain_kb(32, 32)
        sub = saturate(kb)
        below = Counter(d for c, s in enumerate(sub.subsumers) if c != BOT for d in s)
        rows = sum(below[c] * len(set(sub.subsumers[d]) - {BOT})
                   for c, _, d in kb.axioms[Form.GCI2].ids.tolist())
        assert rows >= 16 * block
        tracemalloc.start()
        try:
            dc = compute_closure(kb, sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dc.keys[Form.GCI2]) == 32 * 33
        assert peak < 8 * sum(k.nbytes for k in dc.keys.values()) + 16 * 8 * block


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
        assert np.array_equal(loaded.asserted_keys[form],
                              np.intersect1d(dc.asserted_keys[form], dc.keys[form]))
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
    assert same_keys(loaded, dc)


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
            assert same_keys(loaded, dc)
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
