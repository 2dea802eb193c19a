import numpy as np
import pytest

from elgeo.axioms import Signature
from elgeo.geometry import (
    TERMS, TERM_ARITY, EmbeddingModel, GradientBuffer, gradient, load_model,
    loss_term, loss_value, save_model,
)
from elgeo.training import Adam

from oracles import gradcheck_max_error


def model2d(margin=0.0, reg_mode="strict", reg_radius=1.0,
            activation="relu", slope=0.01):
    sig = Signature()
    for name in "abcde":
        sig.intern_class(name)
    sig.intern_relation("r")
    m = EmbeddingModel.create(sig, dim=2, margin=margin, reg_mode=reg_mode,
                              reg_radius=reg_radius, activation=activation,
                              leaky_slope=slope, seed=0)
    return m, sig


def put(m, sig, name, center, radius=None):
    i = sig.class_id(name)
    m.centers[i] = center
    if radius is not None:
        m.radii[i] = radius
    return i


class TestPositiveLosses:
    def test_contained_ball_zero(self):
        m, sig = model2d(margin=0.1)
        c = put(m, sig, "a", (1.0, 0.0), 0.2)
        d = put(m, sig, "b", (1.0, 0.0), 0.5)
        assert loss_value(m, "gci0_pos", (c, d)) == pytest.approx(0.0)

    def test_radius_drives_empty_class(self):
        m, sig = model2d()
        c = put(m, sig, "a", (1.0, 0.0), 0.3)
        assert loss_value(m, "gci0_bot", (c,)) == pytest.approx(0.3)
        assert loss_value(m, "gci3_bot", (0, c)) == pytest.approx(0.3)

    def test_translated_containment_zero(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (0.0, 1.0), 0.3)
        m.rel_vectors[0] = (-1.0, 1.0)
        assert loss_value(m, "gci2_pos", (c, 0, d)) == pytest.approx(0.0)

    def test_disjointness_loss_penalizes_overlap(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.1)
        assert loss_value(m, "gci1_bot", (c, d)) == pytest.approx(0.2)


class TestNegativeLosses:
    def test_separated_balls_zero(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (0.0, 1.0), 0.1)
        assert loss_value(m, "gci0_neg", (c, d)) == pytest.approx(0.0)

    def test_coincident_balls_penalized(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.1)
        assert loss_value(m, "gci0_neg", (c, d)) == pytest.approx(0.2)

    def test_leaky_goes_negative(self):
        m, sig = model2d(margin=0.0, activation="leaky_relu", slope=0.01)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (0.0, 1.0), 0.1)
        expected = 0.01 * (0.2 - np.sqrt(2.0))
        assert loss_value(m, "gci0_neg", (c, d)) == pytest.approx(expected)

    def test_conjunction_negative_coincident(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.5)
        d = put(m, sig, "b", (1.0, 0.0), 0.5)
        e = put(m, sig, "c", (1.0, 0.0))
        assert loss_value(m, "gci1_neg", (c, d, e)) == pytest.approx(1.0)

    def test_conjunction_negative_separated(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (0.0, 1.0), 0.1)
        e = put(m, sig, "c", (-1.0, 0.0))
        assert loss_value(m, "gci1_neg", (c, d, e)) == \
            pytest.approx(-0.2 + np.sqrt(2.0))

    def test_zero_centers_strict_reg_unit_each(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.0)
        d = put(m, sig, "b", (0.0, 0.0), 0.0)
        e = put(m, sig, "c", (0.0, 0.0), 0.0)
        assert loss_value(m, "gci1_neg", (c, d, e)) == pytest.approx(3.0)

    def test_existential_lhs_negative(self):
        m, sig = model2d(margin=0.0, reg_mode="relaxed", reg_radius=1.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (0.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)
        assert loss_value(m, "gci3_neg", (0, c, d)) == pytest.approx(0.2)
        m.rel_vectors[0] = (-1.0, 0.0)   # distance becomes 2
        assert loss_value(m, "gci3_neg", (0, c, d)) == pytest.approx(0.0)
        m.margin = 0.1
        m.rel_vectors[0] = (1.0, 0.0)
        assert loss_value(m, "gci3_neg", (0, c, d)) == pytest.approx(0.3)

    def test_relation_negative(self):
        m, sig = model2d(margin=0.0, reg_mode="relaxed", reg_radius=1.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)
        assert loss_value(m, "gci2_neg", (c, 0, d)) == pytest.approx(0.2)
        m.centers[d] = (-2.0, 0.0)
        m.reg_radius = 3.0   # keep reg zero at distance 3
        assert loss_value(m, "gci2_neg", (c, 0, d)) == pytest.approx(0.0)
        m.activation = "leaky_relu"
        m.leaky_slope = 0.1
        assert loss_value(m, "gci2_neg", (c, 0, d)) == pytest.approx(0.1 * (0.2 - 3.0))


class TestScore:
    def test_exact_translation(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)
        assert loss_value(m, "score_gci2", (c, 0, d)) == pytest.approx(0.0)

    def test_distance_two(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        d = put(m, sig, "b", (-1.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)
        assert loss_value(m, "score_gci2", (c, 0, d)) == pytest.approx(-1.8)
        m.margin = 0.1
        assert loss_value(m, "score_gci2", (c, 0, d)) == pytest.approx(-1.7)

    def test_monotone_in_distance(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        m.rel_vectors[0] = (0.0, 0.0)
        last = None
        for dist in np.linspace(0.5, 5.0, 12):
            d = put(m, sig, "b", (dist, 0.0), 0.1)
            s = loss_value(m, "score_gci2", (c, 0, d))
            if last is not None:
                assert s < last
            last = s

    def test_score_tails_vectorized_matches_scalar(self):
        m, sig = model2d(margin=0.05)
        rng = np.random.default_rng(3)
        m.centers[:] = rng.normal(size=m.centers.shape)
        m.radii[:] = rng.normal(size=m.radii.shape)
        m.rel_vectors[:] = rng.normal(size=m.rel_vectors.shape)
        tails = np.arange(sig.n_classes)
        batch = m.score_tails(2, 0, tails)
        for t in tails:
            assert batch[t] == pytest.approx(loss_value(m, "score_gci2", (2, 0, int(t))))


class TestRegularization:
    def test_strict_zero_iff_unit_norm(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.6, 0.8), 0.1)   # unit norm
        d = put(m, sig, "b", (0.6, 0.8), 0.5)
        assert loss_value(m, "gci0_pos", (c, d)) == pytest.approx(0.0)
        m.centers[c] = (0.6, 0.9)
        assert loss_value(m, "gci0_pos", (c, d)) > 0.0

    def test_relaxed_zero_iff_inside_radius(self):
        m, sig = model2d(margin=0.0, reg_mode="relaxed", reg_radius=2.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.5)
        assert loss_value(m, "gci0_pos", (c, d)) == pytest.approx(0.0)
        m.centers[c] = (2.5, 0.0)
        assert loss_value(m, "gci0_pos", (c, d)) > 0.0

    def test_translation_invariance_of_geometric_parts(self):
        # with regularization switched off (huge relaxed radius) every
        # center-difference term is invariant to a global shift
        sig = Signature()
        for name in "abc":
            sig.intern_class(name)
        sig.intern_relation("r")
        m = EmbeddingModel.create(sig, dim=4, reg_mode="relaxed",
                                  reg_radius=1e9, seed=5)
        rng = np.random.default_rng(8)
        m.centers[:] = rng.normal(size=m.centers.shape)
        shift = rng.normal(size=m.dim)
        ids3 = (2, 3, 4)
        before = {
            "gci0_pos": loss_value(m, "gci0_pos", ids3[:2]),
            "gci0_neg": loss_value(m, "gci0_neg", ids3[:2]),
            "gci1_pos": loss_value(m, "gci1_pos", ids3),
            "gci1_neg": loss_value(m, "gci1_neg", ids3),
            "gci1_bot": loss_value(m, "gci1_bot", ids3[:2]),
        }
        m.centers += shift
        for term, value in before.items():
            ids = ids3 if term in ("gci1_pos", "gci1_neg") else ids3[:2]
            assert loss_value(m, term, ids) == pytest.approx(value, abs=1e-9)


class TestGradients:
    def test_radius_partial_of_overlap_negative(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (1.0, 0.0), 0.3)
        d = put(m, sig, "b", (1.2, 0.0), 0.3)   # overlapping: arg > 0
        g = gradient(m, "gci0_neg", (c, d))
        assert g[("radius", c)] == pytest.approx(1.0)

    def test_zero_norm_gives_zero_direction(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)   # c + r - d = 0
        g = gradient(m, "score_gci2", (c, 0, d))
        assert ("relation", 0) not in g   # zero vector dropped from sparse view

    def test_finite_difference_agreement_smoke(self):
        worst = gradcheck_max_error(draws=5, dim=4, seed=123)
        assert worst < 1e-4

    def test_unknown_ids_rejected(self):
        m, sig = model2d()
        with pytest.raises(KeyError):
            loss_value(m, "gci0_pos", (0, 99))
        with pytest.raises(ValueError):
            loss_term(m, "nope", (np.array([0]),))
        with pytest.raises(ValueError):
            loss_term(m, "gci0_pos", (np.array([0]),))


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        sig = Signature()
        for i in range(7):
            sig.intern_class(f"c{i}")
        sig.intern_relation("rel_a")
        sig.intern_relation("rel_b")
        m = EmbeddingModel.create(sig, dim=6, margin=-0.01, reg_mode="relaxed",
                                  reg_radius=2.0, activation="leaky_relu",
                                  leaky_slope=0.05, seed=99)
        path = tmp_path / "model.bin"
        save_model(m, str(path))
        m2 = load_model(str(path))
        assert m2.centers.tobytes() == m.centers.tobytes()
        assert m2.radii.tobytes() == m.radii.tobytes()
        assert m2.rel_vectors.tobytes() == m.rel_vectors.tobytes()
        assert (m2.dim, m2.margin, m2.reg_mode, m2.reg_radius) == \
            (m.dim, m.margin, m.reg_mode, m.reg_radius)
        assert (m2.activation, m2.leaky_slope, m2.seed) == \
            (m.activation, m.leaky_slope, m.seed)
        assert m2.sig.class_names == m.sig.class_names
        assert m2.sig.relation_names == m.sig.relation_names
        # saving the reloaded model reproduces the identical file
        path2 = tmp_path / "model2.bin"
        save_model(m2, str(path2))
        assert path.read_bytes() == path2.read_bytes()


class TestParameterBlock:
    @staticmethod
    def assert_views_alias(flat, centers, radii, rels):
        # distinct values in the block show up in the views, in checkpoint order
        flat[:] = np.arange(len(flat))
        cut = np.concatenate([centers.ravel(), radii, rels.ravel()])
        assert np.array_equal(cut, np.arange(len(flat)))

    def test_views_alias_the_flat_block(self, tmp_path):
        m, _ = model2d()
        path = str(tmp_path / "model.bin")
        save_model(m, path)
        copy, loaded = m.copy(), load_model(path)
        for model in (m, copy, loaded):
            self.assert_views_alias(model.params, model.centers, model.radii,
                                    model.rel_vectors)
        assert not np.shares_memory(copy.params, m.params)
        buf = GradientBuffer(m)
        self.assert_views_alias(buf.flat, buf.centers, buf.radii, buf.rels)
        # Adam updates the block in place, so the views see the step
        centers, radii = m.centers.copy(), m.radii.copy()
        buf.flat[:] = 0.0
        buf.centers[:] = 1.0
        Adam(m).step(buf, lr=0.1)
        assert (m.centers < centers).all()
        assert np.array_equal(m.radii, radii)

    def test_names_interned_after_create_leave_the_block_alone(self, tmp_path):
        m, _ = model2d()
        shapes = (m.centers.shape, m.radii.shape, m.rel_vectors.shape)
        m.sig.intern_class("Late")
        m.sig.intern_relation("late")
        copy, buf = m.copy(), GradientBuffer(m)
        assert (copy.centers.shape, copy.radii.shape, copy.rel_vectors.shape) == shapes
        assert (buf.centers.shape, buf.radii.shape, buf.rels.shape) == shapes
        path = str(tmp_path / "model.bin")
        save_model(m, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.params, m.params)
        assert "Late" not in loaded.sig.class_names
        late = m.sig.class_id("Late")
        with pytest.raises(KeyError):
            loss_term(m, "gci0_pos", ([late], [1]))


class TestNonNegativity:
    def test_relu_losses_nonnegative_score_nonpositive(self):
        sig = Signature()
        for i in range(5):
            sig.intern_class(f"k{i}")
        sig.intern_relation("r0")
        sig.intern_relation("r1")
        rng = np.random.default_rng(55)
        for reg_mode in ("strict", "relaxed"):
            m = EmbeddingModel.create(sig, dim=5, reg_mode=reg_mode, seed=1)
            for _ in range(50):
                m.centers[:] = rng.uniform(-2, 2, m.centers.shape)
                m.radii[:] = rng.uniform(-1, 1, m.radii.shape)
                m.rel_vectors[:] = rng.uniform(-2, 2, m.rel_vectors.shape)
                m.margin = float(rng.uniform(-0.1, 0.1))
                for term in TERMS:
                    from elgeo.geometry import TERM_RELATION_SLOTS
                    rel_slots = TERM_RELATION_SLOTS.get(term, ())
                    ids = tuple(
                        int(rng.integers(sig.n_relations)) if j in rel_slots
                        else int(rng.integers(sig.n_classes))
                        for j in range(TERM_ARITY[term]))
                    val = loss_value(m, term, ids)
                    if term == "score_gci2":
                        assert val <= 0.0
                    elif term in ("gci0_bot", "gci3_bot"):
                        pass   # raw radius, may be negative by design
                    else:
                        assert val >= 0.0, term
