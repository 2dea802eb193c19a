"""One identifier rule: a class, relation or pool name either fails where it enters
a KnowledgeBase, or comes back byte-exact from every file elgeo writes."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo.axioms import BOT, GCI_FORMS, TOP, Form, ParseError, Signature, parse_normalized, rows_of
from elgeo.cli import main
from elgeo.closure import compute_closure, dump_closure, load_closure_dump
from elgeo.dataset import DatasetError, build_kb, load_dataset, save_dataset
from elgeo.geometry import EmbeddingModel, load_model, save_model
from elgeo.reasoner import saturate

from oracles import unsafe_name

# names the TAB-separated files cannot carry, and names that look risky but can
EDGE_NAMES = ["", "b\r", "\r", "x\ty", "a\nb", "\ud800x", "#p", "#", "a\rb", "\rb", " ",
              "all", "TOP", "BOT", "é", "a\x85b", "a b"]
NAMES = st.one_of(st.sampled_from(EDGE_NAMES), st.text(max_size=3))


def read_files(path, suffix=""):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())
            if p.name.endswith(suffix)}


@given(classes=st.lists(NAMES, min_size=1, max_size=4, unique=True), relation=NAMES,
       pool=NAMES)
@settings(max_examples=300, deadline=None)
def test_a_name_fails_at_build_time_or_round_trips_byte_exact(classes, relation, pool):
    bad = (any(map(unsafe_name, classes + [relation])) or unsafe_name(pool) or not pool.strip()
           or pool.startswith("#"))
    try:
        sig = Signature()
        ids = [sig.intern_class(name) for name in classes]
        r = sig.intern_relation(relation)
        # every name ends a line somewhere: a trailing CR is lost only there
        kb = build_kb(sig, rows_of([(Form.GCI0, (TOP, c)) for c in ids]
                                   + [(Form.GCI3, (r, c, TOP)) for c in ids]),
                      pools={pool: [c for c in ids if c != BOT] or [TOP]})   # no BOT in a pool
    except (ValueError, DatasetError):
        assert bad
        return
    assert not bad
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(os.path.join(tmp, "ds"), kb)
        loaded = load_dataset(os.path.join(tmp, "ds"))
        assert loaded.sig.class_names == sig.class_names
        assert loaded.sig.relation_names == sig.relation_names
        assert loaded.pools == kb.pools
        for form in Form:
            assert np.array_equal(loaded.axioms[form].ids, kb.axioms[form].ids), form
        save_dataset(os.path.join(tmp, "again"), loaded)
        assert read_files(os.path.join(tmp, "again")) == read_files(os.path.join(tmp, "ds"))

        dc = compute_closure(kb, saturate(kb))
        dump_closure(dc, os.path.join(tmp, "cl"))
        back = load_closure_dump(os.path.join(tmp, "cl"), loaded)
        for form in GCI_FORMS:
            assert back.sets[form] == dc.sets[form], form
        dump_closure(back, os.path.join(tmp, "cl2"))   # its stats file is not read back
        assert read_files(os.path.join(tmp, "cl2"), ".tsv") == \
            read_files(os.path.join(tmp, "cl"), ".tsv")


@pytest.mark.parametrize("name", ["", "b\r", "x\ty", "a\nb", "\ud800"])
def test_interning_rejects_the_name(name):
    sig = Signature()
    with pytest.raises(ValueError, match="identifier"):
        sig.intern_class(name)
    with pytest.raises(ValueError, match="identifier"):
        sig.intern_relation(name)
    assert (sig.class_names, sig.relation_names) == (("TOP", "BOT"), ())


def test_the_parser_rejects_a_field_ending_in_cr():
    with pytest.raises(ParseError, match="final CR") as err:
        parse_normalized("GCI0\tA\tB\nGCI2\tb\r\tr\tA\n")
    assert err.value.line == 2


@pytest.mark.parametrize("pool", ["#p", "#", "", " ", "\x85", "p\r", "p\tq"])
def test_build_kb_rejects_the_pool_name(pool):
    sig = Signature()
    a = sig.intern_class("A")
    with pytest.raises(DatasetError, match="pool name"):
        build_kb(sig, rows_of([(Form.GCI0, (a, TOP))]), pools={pool: [a]})


def test_a_pool_named_all_of_its_own_survives_save_and_load(tmp_path):
    sig = Signature()
    a, b = sig.intern_class("A"), sig.intern_class("B")
    kb = build_kb(sig, rows_of([(Form.GCI0, (a, b))]), pools={"all": [b]})
    save_dataset(str(tmp_path), kb)
    assert load_dataset(str(tmp_path)).pools == {"all": [b]}


def test_build_kb_rejects_a_named_pool_with_no_members():
    # pools.tsv holds one line per member, so such a pool would vanish on save and load
    sig = Signature()
    a, b = sig.intern_class("A"), sig.intern_class("B")
    with pytest.raises(DatasetError, match="pool 'p' has no members"):
        build_kb(sig, rows_of([(Form.GCI0, (a, b))]), pools={"p": [], "q": [a]})


def test_build_kb_rejects_a_pool_that_holds_bot():
    # no axiom has BOT as its consequent, so BOT is no candidate; TOP stays allowed
    sig = Signature()
    a, b = sig.intern_class("A"), sig.intern_class("B")
    with pytest.raises(DatasetError, match="pool 'q' holds BOT"):
        build_kb(sig, rows_of([(Form.GCI0, (a, b))]), pools={"p": [TOP, a], "q": [b, BOT]})
    assert build_kb(sig, rows_of([(Form.GCI0, (a, b))]), pools={"p": [TOP, a]}).pools["p"] == \
        [TOP, a]


@pytest.mark.parametrize("cid", [4, 5, -1])
def test_build_kb_rejects_a_pool_member_outside_the_signature(cid):
    sig = Signature()
    a, b = sig.intern_class("A"), sig.intern_class("B")   # class ids 0..3
    with pytest.raises(DatasetError, match=f"pool 'p' references unknown class id {cid}$"):
        build_kb(sig, rows_of([(Form.GCI0, (a, b))]), pools={"p": [a, cid]})


def test_load_model_rejects_a_name_in_its_tables(tmp_path):
    sig = Signature()
    sig.intern_class("a__b")
    path = str(tmp_path / "checkpoint.bin")
    save_model(EmbeddingModel.create(sig, dim=2, seed=0), path)
    blob = (tmp_path / "checkpoint.bin").read_bytes()
    # the same length, so that only the name changes: JSON "a\tb" holds a TAB
    (tmp_path / "checkpoint.bin").write_bytes(blob.replace(b'"a__b"', b'"a\\tb"'))
    with pytest.raises(ValueError, match="corrupt checkpoint.*identifier"):
        load_model(path)


def test_the_cli_exits_2_on_a_name_ending_in_cr(tmp_path, capsys):
    (tmp_path / "train.tsv").write_bytes(b"GCI0\tb\r\tc\n")
    assert main(["reason", str(tmp_path), "--out", str(tmp_path / "out.tsv")]) == 2
    assert "final CR" in capsys.readouterr().err
