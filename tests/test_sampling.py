import numpy as np
import pytest

from elgeo.axioms import Axiom, Form, parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.reasoner import saturate
from elgeo.sampling import NegativeSampler, SamplerConfig, SamplingError

from oracles import as_axioms


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
