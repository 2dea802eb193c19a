"""The columnar loader against the per-line reference, the KB's row views, the
cross-split checks, pools and atomic dataset writes."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo import dataset
from elgeo.axioms import ARITY, GCI_FORMS, Axiom, Form, ParseError, Signature
from elgeo.closure import compute_closure, dump_closure, load_closure_dump
from elgeo.dataset import DatasetError, build_kb, load_dataset, save_dataset
from elgeo.reasoner import saturate
from elgeo.toygen import basic_kb, hierarchy_kb
from oracles import as_rows, parse_axioms, reference_parse_normalized, reference_split_error

# identifiers with spaces, '#', non-ASCII characters, the reserved names, and
# arbitrary short text (possibly ending in '\r')
NAMES = st.one_of(
    st.sampled_from(["A", "B", "C", "r", "s", "a b", "x#y", "#h", "é", "名前", " ",
                     "TOP", "BOT"]),
    st.text(st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)),
            min_size=1, max_size=3))
TAGS = [form.value for form in Form]
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r\r\n"])


@st.composite
def axiom_lines(draw, tags=TAGS, names=NAMES, malformed=True):
    """One axiom line; with ``malformed`` sometimes a bad tag, field count or an
    empty identifier."""
    tag = draw(st.sampled_from(tags))
    fields = [draw(names) for _ in range(ARITY[Form(tag)])]
    kind = draw(st.integers(0, 29)) if malformed else -1
    if kind == 0:
        tag = draw(st.sampled_from(["GCI9", "gci0", "", " GCI0", "GCI0 "]))
    elif kind == 1:
        fields = fields[1:] if draw(st.booleans()) else fields + ["A"]
    elif kind == 2:
        fields[draw(st.integers(0, len(fields) - 1))] = ""
    return "\t".join([tag] + fields)


@st.composite
def documents(draw, lines=axiom_lines()):
    """A normalized-axiom document with comments, blank and whitespace-only lines."""
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        line = draw(st.one_of(
            lines, lines, lines, lines,
            st.sampled_from(["", "   ", " \t ", "\r", "# a comment", "#GCI0\tA\tB"])))
        parts.append(line + draw(ENDINGS))
    doc = "".join(parts)
    return doc[:-1] if parts and draw(st.booleans()) else doc


def _outcome(parse, text, sig):
    try:
        axioms, sig = parse(text, sig)
        result = ("ok", axioms)
    except ParseError as exc:
        result = ("error", str(exc), exc.line, exc.reason)
    return result, sig.class_names, sig.relation_names


def _presig(names):
    sig = Signature()
    for name in names:
        sig.intern_class(name)
        sig.intern_relation(name)
    return sig


@settings(max_examples=300, deadline=None)
@given(documents(), st.lists(st.sampled_from(["B", "é", "r", "z"]), max_size=3))
def test_parse_matches_the_per_line_reference(text, known):
    """Axioms in file order, both interning orders, and every ParseError."""
    assert _outcome(parse_axioms, text, _presig(known)) == \
        _outcome(reference_parse_normalized, text, _presig(known))


def test_bot_consequents_rewrite_like_the_reference():
    text = "GCI0\tA\tBOT\nGCI1\tA\tB\tBOT\nGCI2\tA\tr\tBOT\nGCI3\tr\tA\tBOT\nGCI2\tBOT\tr\tA\n"
    axioms, sig = parse_axioms(text, None)
    assert [ax.form for ax in axioms] == [Form.GCI0_BOT, Form.GCI1_BOT, Form.GCI0_BOT,
                                          Form.GCI3_BOT, Form.GCI2]
    assert _outcome(parse_axioms, text, Signature()) == \
        _outcome(reference_parse_normalized, text, Signature())


FEW = st.sampled_from(["A", "B", "é"])
GCI2_LINES = axiom_lines(tags=["GCI2"], names=FEW, malformed=False)
TRAIN_LINES = st.one_of(GCI2_LINES, axiom_lines(names=FEW, malformed=False),
                        axiom_lines(malformed=False))
# GCI2, and one line in 15 of another form
HELD_LINES = st.integers(0, 14).flatmap(
    lambda k: GCI2_LINES if k else axiom_lines(names=FEW, malformed=False))


@settings(max_examples=100, deadline=None)
@given(documents(TRAIN_LINES), documents(HELD_LINES), documents(HELD_LINES))
def test_load_dataset_matches_build_kb_on_reference_lists(train, valid, test):
    """Per-form arrays and names of a loaded directory equal build_kb's on the
    reference's Axiom lists of the files' text; an error is the reference's."""
    with tempfile.TemporaryDirectory() as tmp:
        texts = {}
        for name, text in (("train", train), ("valid", valid), ("test", test)):
            path = os.path.join(tmp, f"{name}.tsv")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            with open(path, encoding="utf-8", newline="") as f:   # the bytes as stored
                texts[name] = f.read()
        sig = Signature()
        try:
            lists = {name: reference_parse_normalized(text, sig)[0]
                     for name, text in texts.items()}
            expected = reference_split_error(sig, lists["train"], lists["valid"], lists["test"])
        except ParseError as exc:
            lists, expected = None, str(exc)
        if expected is not None:
            with pytest.raises((ParseError, DatasetError)) as err:
                load_dataset(tmp)
            assert str(err.value) == expected
            if lists is not None:
                with pytest.raises(DatasetError) as err:
                    build_kb(sig, *(as_rows(lists[n]) for n in ("train", "valid", "test")))
                assert str(err.value) == expected
            return
        kb = load_dataset(tmp)
    ref = build_kb(sig, *(as_rows(lists[n]) for n in ("train", "valid", "test")))
    assert kb.sig.class_names == sig.class_names
    assert kb.sig.relation_names == sig.relation_names
    for form in Form:
        assert np.array_equal(kb.axioms[form].ids, ref.axioms[form].ids)
        assert list(kb.axioms[form]) == [ax for ax in lists["train"] if ax.form is form]
    assert np.array_equal(kb.valid.ids, ref.valid.ids)
    assert np.array_equal(kb.test.ids, ref.test.ids)


class TestRowsView:
    def test_sequence_equals_the_axioms_given(self):
        sig = Signature()
        a, b, c = (sig.intern_class(n) for n in "ABC")
        r = sig.intern_relation("r")
        train = [Axiom(Form.GCI2, (a, r, b)), Axiom(Form.GCI0, (a, b)),
                 Axiom(Form.GCI2, (b, r, c)), Axiom(Form.GCI2, (a, r, b))]
        valid = [Axiom(Form.GCI2, (c, r, a))]
        kb = build_kb(sig, as_rows(train), as_rows(valid))
        for form in Form:
            given_rows = [ax for ax in train if ax.form is form]
            view = kb.axioms[form]
            assert len(view) == len(given_rows) and bool(view) == bool(given_rows)
            assert list(view) == given_rows
            assert [view[i] for i in range(-len(view), len(view))] == given_rows * 2
            with pytest.raises(IndexError):
                view[len(view)]
            assert view.ids.shape == (len(given_rows), ARITY[form])
            assert view.ids.dtype == np.int64
        assert list(kb.valid) == valid and kb.valid[-1] == valid[0]
        assert not kb.test and len(kb.test) == 0 and list(kb.test) == []
        assert kb.train_gci2 is kb.axioms[Form.GCI2]

    def test_ids_are_read_only(self):
        kb = basic_kb()
        for rows in (kb.train_gci2, kb.valid, kb.test, kb.axioms[Form.GCI0]):
            with pytest.raises(ValueError):
                rows.ids[0, 0] = 5


class TestSplitChecks:
    def sig(self):
        sig = Signature()
        names = [sig.intern_class(n) for n in "ABCDEF"]
        return sig, names, sig.intern_relation("r")

    def check(self, sig, train, valid, test, match):
        expected = reference_split_error(sig, train, valid, test)
        assert match in expected
        with pytest.raises(DatasetError) as err:
            build_kb(sig, as_rows(train), as_rows(valid), as_rows(test))
        assert str(err.value) == expected

    def test_first_train_axiom_in_either_split_is_named(self):
        sig, (a, b, c, d, e, f), r = self.sig()
        in_test, in_valid = Axiom(Form.GCI2, (a, r, b)), Axiom(Form.GCI2, (c, r, d))
        other = Axiom(Form.GCI2, (e, r, f))
        valid = [Axiom(Form.GCI2, (f, r, e)), in_valid]
        test = [in_test, Axiom(Form.GCI2, (d, r, c))]
        self.check(sig, [Axiom(Form.GCI0, (a, b)), other, in_test, in_valid], valid, test,
                   "both train and test: GCI2\tA\tr\tB")
        self.check(sig, [other, in_valid, in_test], valid, test,
                   "both train and valid: GCI2\tC\tr\tD")

    def test_valid_test_overlap_and_non_gci2_in_file_order(self):
        sig, (a, b, c, d, e, f), r = self.sig()
        shared = Axiom(Form.GCI2, (a, r, b))
        gci0 = Axiom(Form.GCI0, (c, d))
        self.check(sig, [], [shared], [Axiom(Form.GCI2, (e, r, f)), shared, gci0],
                   "both valid and test: GCI2\tA\tr\tB")
        self.check(sig, [], [shared], [gci0, shared],
                   "test split must contain GCI2 only: GCI0\tC\tD")
        self.check(sig, [shared], [Axiom(Form.GCI2, (e, r, f)), gci0], [shared],
                   "valid split must contain GCI2 only: GCI0\tC\tD")

    def test_first_id_outside_the_signature_is_named_with_its_split(self):
        sig, (a, b, c, d, e, f), r = self.sig()   # class ids 0..7, relation id 0
        bad_class, bad_rel = Axiom(Form.GCI0, (a, 57)), Axiom(Form.GCI2, (a, 9, b))
        fine = Axiom(Form.GCI2, (e, r, f))
        for train, valid, test, expected in [
            ([Axiom(Form.GCI0, (a, b)), bad_class, bad_rel], [], [],
             "train axiom GCI0 (2, 57) references unknown class id 57"),
            ([fine, bad_rel, bad_class], [], [],
             "train axiom GCI2 (2, 9, 3) references unknown relation id 9"),
            ([fine], [Axiom(Form.GCI2, (a, r, -1))], [],
             "valid axiom GCI2 (2, 0, -1) references unknown class id -1"),
            ([fine], [], [Axiom(Form.GCI2, (c, r, d)), Axiom(Form.GCI2, (c, r, 8))],
             "test axiom GCI2 (4, 0, 8) references unknown class id 8"),
            ([fine], [], [Axiom(Form.GCI2, (c, 1, d))],
             "test axiom GCI2 (4, 1, 5) references unknown relation id 1"),
        ]:
            with pytest.raises(DatasetError) as err:
                build_kb(sig, as_rows(train), as_rows(valid), as_rows(test))
            assert str(err.value) == expected
        assert (sig.n_classes, sig.n_relations) == (8, 1)


class TestPools:
    def test_duplicates_dropped_in_first_appearance_order(self, tmp_path):
        (tmp_path / "train.tsv").write_text("GCI0\tA\tB\n", encoding="utf-8")
        (tmp_path / "pools.tsv").write_text(
            "p\tC\np\tA\nq\tA\np\tC\np\tB\np\tA\nq\tA\n", encoding="utf-8")
        kb = load_dataset(str(tmp_path))
        name = kb.sig.class_name
        assert [name(c) for c in kb.pool("p")] == ["C", "A", "B"]
        assert [name(c) for c in kb.pool("q")] == ["A"]

    def test_large_pool_loads(self, tmp_path):
        (tmp_path / "train.tsv").write_text("GCI0\tA\tB\n", encoding="utf-8")
        members = [f"M{i}" for i in range(50_000)]
        (tmp_path / "pools.tsv").write_text(
            "".join(f"big\t{m}\n" for m in members + members[::7]), encoding="utf-8")
        kb = load_dataset(str(tmp_path))
        assert [kb.sig.class_name(c) for c in kb.pool("big")] == members


def test_failed_save_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    kb = basic_kb()
    out = tmp_path / "toy"
    save_dataset(str(out), kb)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    calls = []

    def failing(form, args, sig):   # fails on the 10th row, after 9 rows were written
        calls.append(1)
        if len(calls) == 10:
            raise OSError("disk full")
        return original(form, args, sig)

    original = dataset.format_row
    monkeypatch.setattr(dataset, "format_row", failing)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(str(out), kb)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert len(calls) == 10


def test_saving_over_a_dataset_removes_the_files_the_new_kb_lacks(tmp_path):
    sig = Signature()
    a, b = sig.intern_class("A"), sig.intern_class("B")
    out = tmp_path / "over"
    # valid and test; then test and a named pool, no valid; then train alone
    only_train = build_kb(sig, as_rows([Axiom(Form.GCI0, (a, b))]))
    for i, kb in enumerate([basic_kb(), hierarchy_kb(), only_train]):
        fresh = tmp_path / f"fresh{i}"
        save_dataset(str(out), kb)
        save_dataset(str(fresh), kb)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == \
            {p.name: p.read_bytes() for p in fresh.iterdir()}
        loaded = load_dataset(str(out))
        assert np.array_equal(loaded.valid.ids, kb.valid.ids)
        assert np.array_equal(loaded.test.ids, kb.test.ids)
        assert loaded.pools == kb.pools
    assert os.listdir(out) == ["train.tsv"]


# characters that some line rules, though not elgeo's, take for line breaks
BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_names_holding_a_line_break_character_survive_save_load_and_dump_load(ch, tmp_path):
    sig = Signature()
    a, b, c, d = (sig.intern_class(f"{x}{ch}{x}") for x in "abcd")
    r = sig.intern_relation(f"r{ch}s")
    only_pooled = sig.intern_class(f"p{ch}q")
    kb = build_kb(sig, as_rows([Axiom(Form.GCI0, (a, b)), Axiom(Form.GCI1, (a, b, c)),
                                Axiom(Form.GCI2, (a, r, c)), Axiom(Form.GCI3, (r, b, d))]),
                  valid=as_rows([Axiom(Form.GCI2, (b, r, d))]),
                  test=as_rows([Axiom(Form.GCI2, (c, r, a))]),
                  pools={f"pool{ch}1": [only_pooled, a]})
    save_dataset(str(tmp_path / "ds"), kb)
    loaded = load_dataset(str(tmp_path / "ds"))
    assert loaded.sig.class_names == sig.class_names
    assert loaded.sig.relation_names == sig.relation_names
    for form in Form:
        assert np.array_equal(loaded.axioms[form].ids, kb.axioms[form].ids), form
    assert np.array_equal(loaded.valid.ids, kb.valid.ids)
    assert np.array_equal(loaded.test.ids, kb.test.ids)
    assert loaded.pools == kb.pools
    dc = compute_closure(kb, saturate(kb))
    dump_closure(dc, str(tmp_path / "cl"))
    back = load_closure_dump(str(tmp_path / "cl"), loaded.sig)
    for form in GCI_FORMS:
        assert back.sets[form] == dc.sets[form], form
        assert np.array_equal(back.asserted_keys[form],
                              np.intersect1d(dc.asserted_keys[form], dc.keys[form])), form
    assert loaded.sig.class_names == sig.class_names
