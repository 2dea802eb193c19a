import numpy as np
import pytest

from elgeo.axioms import BOT, Axiom, AxiomRows, Form, parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.reasoner import saturate
from elgeo.sampling import NegativeSampler, SamplerConfig, SamplingError

from oracles import LEFT_SLOTS, ReferenceSampler, as_axioms, random_kb


def kb_with_closure(text):
    rows, sig = parse_normalized(text)
    kb = build_kb(sig, rows)
    dc = compute_closure(kb, saturate(kb))
    return kb, dc


def corrupt_rows(kb, form, rows, cfg, dc=None):
    """corrupt_ids over a list of id tuples with a fresh sampler."""
    sampler = NegativeSampler(kb, cfg, dc)
    out, keep = sampler.corrupt_ids(form, np.array(rows, dtype=np.int64))
    return out, keep, sampler.stats


class TestCorrupt:
    def test_forced_draw(self):
        rows, sig = parse_normalized("GCI2\tA\tr\tB\n")
        axioms = as_axioms(rows)
        sig.intern_class("C")
        kb = build_kb(sig, rows, pools={"all": [sig.class_id("B"), sig.class_id("C")]})
        out, keep, _ = corrupt_rows(kb, Form.GCI2, [axioms[0].args] * 20,
                                    SamplerConfig(seed=0))
        assert keep.all()
        assert (out[:, 2] == sig.class_id("C")).all()
        assert (out[:, :2] == axioms[0].args[:2]).all()

    def test_pool_exhausted(self):
        rows, sig = parse_normalized("GCI0\tA\tB\n")
        axioms = as_axioms(rows)
        kb = build_kb(sig, rows, pools={"all": [sig.class_id("B")]})
        with pytest.raises(SamplingError, match="pool exhausted"):
            corrupt_rows(kb, Form.GCI0, [axioms[0].args], SamplerConfig(seed=0))

    def test_corrupts_designated_slot_only(self):
        text = "GCI0\tA\tB\nGCI1\tA\tB\tC\nGCI2\tA\tr\tB\nGCI3\tr\tA\tB\n"
        rows, sig = parse_normalized(text)
        axioms = as_axioms(rows)
        kb = build_kb(sig, rows)
        slots = {Form.GCI0: 1, Form.GCI1: 2, Form.GCI2: 2, Form.GCI3: 2}
        for ax in axioms:
            out, keep, _ = corrupt_rows(kb, ax.form, [ax.args] * 50, SamplerConfig(seed=1))
            assert keep.all()
            slot = slots[ax.form]
            for j in range(len(ax.args)):
                if j == slot:
                    assert (out[:, j] != ax.args[j]).all()
                else:
                    assert (out[:, j] == ax.args[j]).all()

    def test_uniform_distribution(self):
        # replacement frequencies over a 10-element pool: each of the 9
        # candidates within 0.01 of 1/9
        rows, sig = parse_normalized("GCI0\tA\tB\n")
        axioms = as_axioms(rows)
        pool = [sig.class_id("B")] + [sig.intern_class(f"X{i}") for i in range(9)]
        kb = build_kb(sig, rows, pools={"all": pool})
        sampler = NegativeSampler(kb, SamplerConfig(seed=7))
        rows = np.array([axioms[0].args] * 100_000, dtype=np.int64)
        out, keep = sampler.corrupt_ids(Form.GCI0, rows)
        assert keep.all()
        values, counts = np.unique(out[:, 1], return_counts=True)
        assert sig.class_id("B") not in values
        assert len(values) == 9
        freqs = counts / len(rows)
        assert np.abs(freqs - 1 / 9).max() < 0.01


class TestFiltering:
    def test_entailed_corruption_rejected(self):
        kb, dc = kb_with_closure("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI0\tZ1\tZ1\n"
                                 "GCI0\tZ2\tZ2\nGCI0\tZ3\tZ3\n")
        cfg = SamplerConfig(filter_with_closure=True, seed=5)
        sampler = NegativeSampler(kb, cfg, dc)
        rows = np.array([kb.axioms[Form.GCI2][0].args] * 2000, dtype=np.int64)
        out, keep = sampler.corrupt_ids(Form.GCI2, rows)
        sig = kb.sig
        bp = sig.class_id("Bp")
        assert keep.sum() > 0
        for row in out[keep]:
            assert row[2] != bp
            assert not dc.contains(Axiom(Form.GCI2, tuple(row)))

    def test_no_row_with_bot_left_of_the_inclusion_is_kept(self):
        # BOT left of the inclusion makes a tautology, asserted or not
        kb, dc = kb_with_closure("GCI2\tBOT\tr\tA\nGCI2\tB\tr\tA\nGCI0\tC\tD\n"
                                 "GCI3\tr\tBOT\tA\nGCI1\tBOT\tC\tA\n")
        sampler = NegativeSampler(kb, SamplerConfig(filter_with_closure=True, seed=0), dc)
        for form in (Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3):
            assert dc.contains(kb.axioms[form]).all(), form   # asserted rows are members
            out, keep = sampler.corrupt_ids(form, np.tile(kb.axioms[form].ids, (20, 1)))
            assert not (out[keep][:, LEFT_SLOTS[form]] == BOT).any(), form
            assert not dc.contains(AxiomRows(form, out[keep])).any(), form
        assert sampler.stats.produced > 0

    def test_requires_closure(self):
        kb, _ = kb_with_closure("GCI2\tA\tr\tB\n")
        with pytest.raises(SamplingError, match="closure"):
            NegativeSampler(kb, SamplerConfig(filter_with_closure=True))

    def test_drop_on_exhaustion(self):
        # every pool candidate is an entailed tail: all corruptions must drop
        rows, sig = parse_normalized("GCI2\tA\tr\tB\nGCI0\tB\tC\nGCI0\tC\tD\n")
        kb = build_kb(sig, rows, pools={"all": [sig.class_id(n) for n in ("B", "C", "D")]})
        dc = compute_closure(kb, saturate(kb))
        cfg = SamplerConfig(filter_with_closure=True, max_resample_attempts=3, seed=1)
        sampler = NegativeSampler(kb, cfg, dc)
        rows = np.array([kb.axioms[Form.GCI2][0].args] * 50, dtype=np.int64)
        out, keep = sampler.corrupt_ids(Form.GCI2, rows)
        assert not keep.any()
        assert sampler.stats.dropped == 50
        assert sampler.stats.drop_rate == pytest.approx(1.0)

    def test_drop_rate_accounting(self):
        kb, dc = kb_with_closure("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI0\tZ1\tZ1\n")
        cfg = SamplerConfig(filter_with_closure=True, seed=3)
        sampler = NegativeSampler(kb, cfg, dc)
        rows = np.array([kb.axioms[Form.GCI2][0].args] * 500, dtype=np.int64)
        _, keep = sampler.corrupt_ids(Form.GCI2, rows)
        st = sampler.stats
        assert st.requested == 500
        assert st.produced == int(keep.sum())
        assert st.dropped == st.requested - st.produced
        assert st.drop_rate == pytest.approx(st.dropped / 500)


class TestEntailedRatio:
    def test_full_ratio_all_closure_members(self):
        kb, dc = kb_with_closure("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI0\tZ1\tZ1\n")
        cfg = SamplerConfig(entailed_ratio=1.0, seed=11)
        out, keep, stats = corrupt_rows(kb, Form.GCI2, [kb.axioms[Form.GCI2][0].args] * 300,
                                        cfg, dc)
        assert keep.all()
        assert all(dc.contains(Axiom(Form.GCI2, tuple(row))) for row in out.tolist())
        assert stats.entailed_injected == 300

    def test_zero_ratio_filtering_none_member(self):
        kb, dc = kb_with_closure(
            "GCI2\tA\tr\tB\nGCI0\tB\tBp\n"
            + "".join(f"GCI0\tW{i}\tW{i}\n" for i in range(10)))
        cfg = SamplerConfig(filter_with_closure=True, entailed_ratio=0.0, seed=13)
        out, keep, _ = corrupt_rows(kb, Form.GCI2, [kb.axioms[Form.GCI2][0].args] * 1000,
                                    cfg, dc)
        assert keep.any()
        train = {ax.args for ax in kb.train_gci2}
        for row in out[keep].tolist():
            assert not dc.contains(Axiom(Form.GCI2, tuple(row)))
            assert tuple(row) not in train


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        kb, dc = kb_with_closure("GCI2\tA\tr\tB\nGCI0\tB\tBp\nGCI0\tZ1\tZ1\n")
        rows = [kb.axioms[Form.GCI2][0].args] * 64
        cfg = SamplerConfig(filter_with_closure=True, seed=21)
        a_out, a_keep, _ = corrupt_rows(kb, Form.GCI2, rows, cfg, dc)
        b_out, b_keep, _ = corrupt_rows(kb, Form.GCI2, rows, cfg, dc)
        assert np.array_equal(a_out, b_out) and np.array_equal(a_keep, b_keep)

    def test_different_seed_differs(self):
        kb, _ = kb_with_closure("GCI2\tA\tr\tB\n" +
                                "".join(f"GCI0\tW{i}\tW{i}\n" for i in range(20)))
        rows = [kb.axioms[Form.GCI2][0].args] * 64
        a, _, _ = corrupt_rows(kb, Form.GCI2, rows, SamplerConfig(seed=1))
        b, _, _ = corrupt_rows(kb, Form.GCI2, rows, SamplerConfig(seed=2))
        assert not np.array_equal(a, b)


class TestBatchedFilter:
    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    @pytest.mark.parametrize("attempts", [1, 2, 10])
    def test_draws_what_the_per_row_filter_draws(self, attempts, ratio):
        """One membership call a round keeps every number of the per-row loop: the
        rows, the keep mask, the stats and the generator's state after each call."""
        rng = np.random.default_rng([attempts, int(ratio * 10)])
        dropped = 0
        for _ in range(12):
            kb = random_kb(rng, n_classes=int(rng.integers(3, 9)), n_relations=2,
                           n_axioms=int(rng.integers(5, 41)))
            cfg = SamplerConfig(filter_with_closure=True, entailed_ratio=ratio,
                                max_resample_attempts=attempts, seed=int(rng.integers(2 ** 31)))
            sampler = NegativeSampler(kb, cfg, compute_closure(kb, saturate(kb)))
            reference = ReferenceSampler(kb, cfg)
            for form in (Form.GCI0, Form.GCI1, Form.GCI2, Form.GCI3) * 2:
                rows = np.tile(kb.axioms[form].ids, (8, 1))
                (out, keep), (ref_out, ref_keep) = (
                    s.corrupt_ids(form, rows) for s in (sampler, reference))
                assert np.array_equal(out, ref_out) and np.array_equal(keep, ref_keep), form
                assert sampler.stats == reference.stats
                assert sampler.rng.bit_generator.state == reference.rng.bit_generator.state
            dropped += sampler.stats.dropped
        assert dropped > 0   # some rows ran out of attempts
