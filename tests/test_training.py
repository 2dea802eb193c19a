import numpy as np
import pytest

from elgeo.axioms import parse_normalized
from elgeo.closure import compute_closure
from elgeo.dataset import build_kb
from elgeo.geometry import GradientBuffer
from elgeo.reasoner import saturate
from elgeo.toygen import basic_kb
from elgeo.training import (
    Adam, TrainConfig, TrainingError, compute_weights, grid_search, train,
)


class TestComputeWeights:
    def test_inverse_frequency(self):
        w = compute_weights({"gci0_pos": 100, "gci2_pos": 300}, "inverse_frequency")
        assert w["gci0_pos"] == pytest.approx(1.5)
        assert w["gci2_pos"] == pytest.approx(0.5)

    def test_single_active_form(self):
        for mode in ("inverse_frequency", "proportional", "uniform"):
            w = compute_weights({"gci0_pos": 5}, mode)
            assert w["gci0_pos"] == pytest.approx(1.0)

    def test_uniform(self):
        w = compute_weights({"a": 7, "b": 9}, "uniform")
        assert w == {"a": 1.0, "b": 1.0}

    def test_proportional(self):
        w = compute_weights({"a": 1, "b": 3}, "proportional")
        assert w["a"] == pytest.approx(0.25)
        assert w["b"] == pytest.approx(0.75)

    def test_zero_count_gets_zero_weight(self):
        w = compute_weights({"a": 10, "b": 0}, "inverse_frequency")
        assert w["b"] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all counts are zero"):
            compute_weights({"a": 0}, "uniform")


class TestAdam:
    def test_zero_lr_is_identity(self):
        kb = basic_kb()
        from elgeo.geometry import EmbeddingModel
        model = EmbeddingModel.create(kb.sig, dim=4, seed=0)
        before = (model.centers.copy(), model.radii.copy(), model.rel_vectors.copy())
        adam = Adam(model)
        grads = GradientBuffer(model)
        grads.centers[:] = 1.0
        grads.radii[:] = -2.0
        adam.step(grads, lr=0.0)
        assert np.array_equal(model.centers, before[0])
        assert np.array_equal(model.radii, before[1])

    def test_step_moves_against_gradient(self):
        kb = basic_kb()
        from elgeo.geometry import EmbeddingModel
        model = EmbeddingModel.create(kb.sig, dim=4, seed=0)
        r0 = model.radii.copy()
        adam = Adam(model)
        grads = GradientBuffer(model)
        grads.radii[:] = 1.0
        adam.step(grads, lr=0.1)
        assert (model.radii < r0).all()


def small_cfg(**kw):
    base = dict(epochs=3, batch_size=64, lr=0.01, margin=0.1, dim=6,
                seed=7, neg_forms=("gci2",))
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_epochs_returns_initial_model(self):
        kb = basic_kb()
        model, report = train(kb, small_cfg(epochs=0))
        assert report.stop_epoch == 0
        assert report.epochs == []
        assert model.all_finite()

    def test_determinism_bit_identical(self, tmp_path):
        kb = basic_kb()
        cfg = small_cfg(epochs=4)
        m1, r1 = train(kb, cfg)
        m2, r2 = train(kb, cfg)
        assert m1.centers.tobytes() == m2.centers.tobytes()
        assert m1.radii.tobytes() == m2.radii.tobytes()
        assert m1.rel_vectors.tobytes() == m2.rel_vectors.tobytes()
        assert r1.epochs == r2.epochs

    def test_weighted_total_accounting(self):
        kb = basic_kb()
        _, report = train(kb, small_cfg(epochs=2))
        for rec in report.epochs:
            total = sum(report.weights[t] * rec["breakdown"][t]
                        for t in rec["breakdown"])
            assert rec["total"] == pytest.approx(total, rel=1e-12)

    def test_early_stop_bound(self):
        kb = basic_kb()
        cfg = small_cfg(epochs=80, early_stop_patience=5, lr=0.5)  # noisy lr
        _, report = train(kb, cfg)
        if report.stop_epoch < cfg.epochs:
            assert report.stop_epoch - report.best_epoch <= cfg.early_stop_patience

    def test_validation_recorded_every_epoch(self):
        kb = basic_kb()
        _, report = train(kb, small_cfg(epochs=3))
        assert all(rec["val_loss"] is not None for rec in report.epochs)

    def test_filtered_negatives_need_closure(self):
        kb = basic_kb()
        with pytest.raises(TrainingError, match="closure"):
            train(kb, small_cfg(filter_negatives=True))

    def test_all_negative_forms_with_filtering(self):
        kb = basic_kb()
        dc = compute_closure(kb, saturate(kb))
        cfg = small_cfg(epochs=2, neg_forms=("gci0", "gci1", "gci2", "gci3"),
                        filter_negatives=True)
        _, report = train(kb, cfg, dc)
        assert "gci0_neg" in report.weights
        assert report.sampler_stats["requested"] > 0

    def test_negatives_all_dropped(self):
        # with a pool of two classes, both corruptions are asserted axioms
        axioms, sig = parse_normalized("GCI2\tA\tr\tB\nGCI2\tA\tr\tA\n")
        kb = build_kb(sig, axioms, pools={"all": [sig.class_id("A"), sig.class_id("B")]})
        dc = compute_closure(kb, saturate(kb))
        _, report = train(kb, small_cfg(epochs=3, filter_negatives=True), dc)
        assert report.stop_epoch == 3
        assert [rec["breakdown"]["gci2_neg"] for rec in report.epochs] == [0.0] * 3
        assert all(rec["val_loss"] is None for rec in report.epochs)
        stats = report.sampler_stats
        assert stats["requested"] > 0 and stats["dropped"] == stats["requested"]

    def test_checkpoint_written(self, tmp_path):
        kb = basic_kb()
        path = str(tmp_path / "ck.bin")
        _, report = train(kb, small_cfg(epochs=1), checkpoint_path=path)
        assert report.checkpoint_path == path
        from elgeo.geometry import load_model
        assert load_model(path).dim == 6

    def test_report_jsonl(self, tmp_path):
        kb = basic_kb()
        _, report = train(kb, small_cfg(epochs=2))
        out = tmp_path / "report.jsonl"
        report.to_jsonl(str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_weighting_mode_argmin_invariance_single_form(self):
        # with a single active form the weight is a positive scalar: the
        # optimizer trajectory may differ but the zero-loss optimum is shared;
        # here we just check all modes train without error and report weights
        kb = basic_kb()
        for mode in ("inverse_frequency", "proportional", "uniform"):
            _, report = train(kb, small_cfg(epochs=1, weighting=mode))
            assert all(w >= 0 for w in report.weights.values())


class TestGridSearch:
    def test_single_combo(self):
        kb = basic_kb()
        grids = {"margin": (0.0,), "dim": (4,), "reg_radius": (1.0,), "lr": (0.01,)}
        result = grid_search(kb, small_cfg(epochs=1), grids)
        assert len(result.entries) == 1
        assert not result.failures

    def test_default_grid_enumeration(self):
        import itertools
        from elgeo.training import DEFAULT_GRIDS
        combos = list(itertools.product(*DEFAULT_GRIDS.values()))
        assert len(combos) == 120

    def test_failure_recorded_not_fatal(self):
        kb = basic_kb()
        grids = {"dim": (4,), "lr": (0.01, float("nan"))}   # nan lr diverges
        result = grid_search(kb, small_cfg(epochs=1), grids)
        assert len(result.entries) + len(result.failures) == 2
        assert len(result.failures) >= 1

    def test_ranked_ascending(self):
        kb = basic_kb()
        grids = {"dim": (4, 6), "lr": (0.01,)}
        result = grid_search(kb, small_cfg(epochs=2), grids)
        metrics = [m for _, m in result.entries]
        assert metrics == sorted(metrics)
