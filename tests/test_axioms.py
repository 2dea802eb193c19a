import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo.axioms import (
    ARITY, BOT, LAYOUT, Axiom, Form, ParseError, Signature,
    pack_keys, parse_normalized, rows_of, runs, serialize_normalized,
)
from oracles import as_axioms, as_rows, parse_axioms as parse, reference_make_axiom


class TestParse:
    def test_gci2_line(self):
        axioms, sig = parse("GCI2\tP1\tinteracts_with\tP2")
        assert axioms == [Axiom(Form.GCI2, (sig.class_id("P1"),
                                            sig.relation_id("interacts_with"),
                                            sig.class_id("P2")))]

    def test_gci1_bot_line(self):
        axioms, sig = parse("GCI1_BOT\tA\tB")
        assert axioms[0].form is Form.GCI1_BOT
        assert axioms[0].args == (sig.class_id("A"), sig.class_id("B"))

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="expected 4 fields, got 3") as err:
            parse_normalized("GCI2\tP1\tr")
        assert err.value.line == 1

    def test_unknown_form_tag(self):
        with pytest.raises(ParseError, match="unknown form tag"):
            parse_normalized("GCI9\tA\tB")

    def test_empty_identifier(self):
        with pytest.raises(ParseError, match="empty identifier"):
            parse_normalized("GCI0\tA\t")

    def test_error_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_normalized("GCI0\tA\tB\n# comment\n\nGCI0\tbad")
        assert err.value.line == 4

    def test_comments_and_blanks_skipped(self):
        axioms, _ = parse("# header\n\nGCI0\tA\tB\n")
        assert len(axioms) == 1

    def test_intern_order(self):
        _, sig = parse_normalized("GCI0\tX\tY\nGCI0\tZ\tX")
        assert [sig.class_name(i) for i in range(sig.n_classes)] == \
            ["TOP", "BOT", "X", "Y", "Z"]


class TestCanonicalization:
    def test_bot_rhs_gci0(self):
        axioms, _ = parse("GCI0\tA\tBOT")
        assert axioms[0] == Axiom(Form.GCI0_BOT, (2,))

    def test_bot_rhs_gci1(self):
        axioms, _ = parse("GCI1\tA\tB\tBOT")
        assert axioms[0].form is Form.GCI1_BOT

    def test_bot_filler_gci2(self):
        axioms, _ = parse("GCI2\tA\tr\tBOT")
        assert axioms[0] == Axiom(Form.GCI0_BOT, (2,))

    def test_bot_rhs_gci3(self):
        axioms, _ = parse("GCI3\tr\tA\tBOT")
        assert axioms[0].form is Form.GCI3_BOT

    def test_top_kept_as_slot(self):
        axioms, _ = parse("GCI0\tA\tTOP")
        assert axioms[0] == Axiom(Form.GCI0, (2, 0))

    def test_direct_construction_rejects_bot_rhs(self):
        with pytest.raises(ValueError):
            Axiom(Form.GCI0, (2, BOT))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Axiom(Form.GCI0, (1, 2, 3))


class TestSerialize:
    def test_single(self):
        sig = Signature()
        a, b = sig.intern_class("A"), sig.intern_class("B")
        doc = serialize_normalized(as_rows([Axiom(Form.GCI0, (a, b))]), sig)
        assert doc == "GCI0\tA\tB\n"

    def test_empty(self):
        assert serialize_normalized(rows_of([]), Signature()) == ""

    def test_ri1(self):
        sig = Signature()
        ids = tuple(sig.intern_relation(n) for n in ("r1", "r2", "s"))
        assert serialize_normalized(as_rows([Axiom(Form.RI1, ids)]), sig) == "RI1\tr1\tr2\ts\n"


# identifiers: arbitrary non-empty strings without tab/newline/CR, not starting '#'
_ident = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1, max_size=8,
).filter(lambda s: not s.startswith("#") and s.strip())


@st.composite
def _row_pairs(draw):
    """(form, ids) pairs over a fresh signature, BOT consequents among them, and the
    signature."""
    sig = Signature()
    classes = [sig.intern_class(n) for n in draw(
        st.lists(_ident, min_size=2, max_size=6, unique=True))]
    rels = [sig.intern_relation(n) for n in draw(
        st.lists(_ident, min_size=1, max_size=3, unique=True))]
    classes += [0, 1]   # reserved ids participate too
    pairs = []
    for _ in range(draw(st.integers(0, 12))):
        form = draw(st.sampled_from(list(Form)))
        rel_slots = [k for k, kind in enumerate(LAYOUT[form]) if kind == "r"]
        args = tuple(
            draw(st.sampled_from(rels)) if slot in rel_slots
            else draw(st.sampled_from(classes))
            for slot in range(ARITY[form])
        )
        pairs.append((form, args))
    return pairs, sig


@given(_row_pairs())
@settings(max_examples=150, deadline=None)
def test_roundtrip_identity(case):
    pairs, sig = case
    axioms = as_axioms(rows_of(pairs))
    doc = serialize_normalized(rows_of(pairs), sig)
    parsed, _ = parse(doc, sig)
    assert parsed == axioms


@given(_row_pairs())
@settings(max_examples=150, deadline=None)
def test_rows_of_rewrites_bot_consequents_like_the_reference(case):
    """The whole-array rewrite moves each BOT-consequent row to its bottom form at its
    own place in order, as the per-axiom reference does."""
    pairs, _ = case
    rows = rows_of(pairs)
    assert as_axioms(rows) == [reference_make_axiom(form, args) for form, args in pairs]
    for form in Form:
        assert rows.ids[form].dtype == np.int64 and rows.ids[form].shape[1] == ARITY[form]


def test_rows_of_checks_arity():
    with pytest.raises(ValueError, match="GCI0 takes 2 arguments, got 3"):
        rows_of([(Form.GCI0, (2, 3, 4))])


class TestRuns:
    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        for out in runs(empty, empty):
            assert out.dtype == np.int64 and out.shape == (0,)

    def test_zero_length_ranges_yield_nothing(self):
        i, at = runs(np.array([3, 5, 5]), np.array([3, 5, 5]))
        assert i.tolist() == [] and at.tolist() == []

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_each_index_of_each_range_in_order(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, 20, size=int(rng.integers(0, 8)))
        hi = lo + rng.integers(0, 4, size=len(lo))
        i, at = runs(lo, hi)
        assert [(a, b) for a, b in zip(i.tolist(), at.tolist())] == [
            (k, x) for k, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())) for x in range(a, b)]


class TestPackKeys:
    @given(seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(Form)))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_in_row_order(self, seed, form):
        rng = np.random.default_rng(seed)
        nc, nr = int(rng.integers(2, 10 ** 6)), int(rng.integers(1, 1000))
        dims = [nr if kind == "r" else nc for kind in LAYOUT[form]]
        rows = np.stack([rng.integers(0, d, size=50) for d in dims], axis=1)
        keys = pack_keys(form, rows.T, nc, nr)
        assert keys.dtype == np.int64
        assert np.array_equal(np.stack(np.unravel_index(keys, dims), axis=1), rows)
        # keys sort like their id rows
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))

    def test_largest_key_that_fits(self):
        top = 2 ** 31 - 1
        assert pack_keys(Form.GCI2, ([top], [0], [top]), 2 ** 31, 1)[0] == 2 ** 62 - 1

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="do not fit in int64"):
            pack_keys(Form.GCI2, ([0], [0], [0]), 2 ** 31, 2)

    def test_id_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pack_keys(Form.GCI0, ([5], [0]), 5, 1)
