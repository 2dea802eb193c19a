import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elgeo.axioms import Signature
from elgeo.geometry import (
    CHUNK, SETTINGS, SPECS, TERMS, EmbeddingModel, GradientBuffer, load_model, loss_term,
    save_model,
)
from elgeo.training import Adam, TrainConfig

from oracles import brute_score, gradcheck_max_error, gradient, loss_value, score_err_floor


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


def score(m, c, r, d):
    return float(m.score_tails(c, r, d))


def random_model(rng, dim, activation, margin, n_classes=12, n_relations=3):
    sig = Signature()
    for i in range(n_classes - 2):   # past TOP and BOT
        sig.intern_class(f"k{i}")
    for i in range(n_relations):
        sig.intern_relation(f"r{i}")
    m = EmbeddingModel.create(sig, dim=dim, margin=margin, activation=activation,
                              leaky_slope=0.1, seed=0)
    m.params[:] = rng.uniform(-1.0, 1.0, m.params.shape)
    return m


class TestScore:
    def test_exact_translation(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        d = put(m, sig, "b", (1.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)
        assert score(m, c, 0, d) == pytest.approx(0.0)

    def test_distance_two(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        d = put(m, sig, "b", (-1.0, 0.0), 0.1)
        m.rel_vectors[0] = (1.0, 0.0)
        assert score(m, c, 0, d) == pytest.approx(-1.8)
        m.margin = 0.1
        assert score(m, c, 0, d) == pytest.approx(-1.7)

    def test_monotone_in_distance(self):
        m, sig = model2d(margin=0.0)
        c = put(m, sig, "a", (0.0, 0.0), 0.1)
        m.rel_vectors[0] = (0.0, 0.0)
        last = None
        for dist in np.linspace(0.5, 5.0, 12):
            d = put(m, sig, "b", (dist, 0.0), 0.1)
            s = score(m, c, 0, d)
            if last is not None:
                assert s < last
            last = s

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    @pytest.mark.parametrize("margin", [-0.15, 0.15])
    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_matches_brute_score(self, activation, margin, dim):
        rng = np.random.default_rng([dim, int(margin > 0), len(activation)])
        for _ in range(3):
            m = random_model(rng, dim, activation, margin)
            heads = rng.integers(m.n_classes, size=6)
            rels = rng.integers(m.n_relations, size=6)
            pool = np.arange(m.n_classes)
            got = m.score_tails(heads[:, None], rels[:, None], pool)
            want = [[brute_score(m, int(c), int(r), int(t)) for t in pool]
                    for c, r in zip(heads, rels)]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
            if activation == "relu":
                assert (got <= 0.0).all()

    @pytest.mark.parametrize("dim", [1, 2, 7, 50])
    @pytest.mark.parametrize("n", [CHUNK // 3, CHUNK + 37])
    def test_score_tails_vectorized_matches_scalar(self, dim, n):
        """One (q, 1) x (n,) call, per-row id arrays, one call per query and one per
        score give the same bits, with pools shorter and longer than CHUNK."""
        rng = np.random.default_rng([dim, n])
        m = random_model(rng, dim, "leaky_relu", 0.05, n_classes=40)
        heads, rels = rng.integers(40, size=3), rng.integers(3, size=3)
        pool = rng.integers(40, size=n)
        block = m.score_tails(heads[:, None], rels[:, None], pool)
        assert block.shape == (3, n)
        per_row = m.score_tails(np.repeat(heads, n), np.repeat(rels, n), np.tile(pool, 3))
        per_query = [m.score_tails(int(c), int(r), pool) for c, r in zip(heads, rels)]
        scalar = [[m.score_tails(int(c), int(r), int(t)) for t in pool]
                  for c, r in zip(heads, rels)]
        assert np.array_equal(per_row.reshape(3, n), block)
        assert np.array_equal(np.array(per_query), block)
        assert np.array_equal(np.array(scalar), block)

    def test_scalar_and_empty_ids_keep_their_shapes(self):
        m = random_model(np.random.default_rng(4), 3, "relu", 0.1)
        assert m.score_tails(2, 0, 3).shape == ()
        assert float(m.score_tails(2, 0, 3)) == m.score_tails(2, 0, [3])[0]
        empty = np.zeros(0, dtype=np.int64)
        assert m.score_tails(2, 0, empty).shape == (0,)
        assert m.score_tails(np.array([[2], [3]]), 0, empty).shape == (2, 0)
        assert m.score_tails(empty[:, None], empty[:, None], np.arange(5)).shape == (0, 5)

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("bad", ["size", -1])
    def test_an_id_outside_its_table_is_a_key_error(self, slot, bad):
        m = random_model(np.random.default_rng(5), 3, "relu", 0.1)
        ids = [np.array([[2], [3]]), np.array([[0], [1]]), np.arange(2, 9)]
        size = m.n_relations if slot == 1 else m.n_classes
        ids[slot][-1] = size if bad == "size" else -1
        what = "relation" if slot == 1 else "class"
        with pytest.raises(KeyError, match=f"unknown {what} id"):
            m.score_tails(*ids)

    def test_a_block_call_holds_no_candidate_by_dim_temporary(self):
        """Peak memory of a (q, 1) x (n,) call stays under a quarter of q * n * dim
        float64s: the difference vectors never exist for every pair at once."""
        rng = np.random.default_rng(7)
        q, n, dim = 16, 4096, 40
        assert q * n * dim * 8 >= 20 * 2 ** 20
        m = random_model(rng, dim, "leaky_relu", 0.1, n_classes=50)
        heads, rels = rng.integers(50, size=(q, 1)), rng.integers(3, size=(q, 1))
        pool = rng.integers(50, size=n)
        tracemalloc.start()
        try:
            scores = m.score_tails(heads, rels, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (q, n)
        assert peak < q * n * dim * 8 / 4


def bound_model(rng, dim, activation, slope, table):
    """A random model whose tables are ``normal`` at a random scale, ``cancel``-heavy
    (centers near 1e3, x_3 + v_0 = x_5 up to rounding, radii that put the argument near
    0), ``integer`` (exact sums, ties, relu's flat region), or ``tiny``/``huge`` enough
    to underflow or overflow a squared norm."""
    sig = Signature()
    for i in range(14):
        sig.intern_class(f"k{i}")
    for i in range(3):
        sig.intern_relation(f"r{i}")
    m = EmbeddingModel.create(sig, dim=dim, margin=float(rng.normal(scale=0.2)),
                              activation=activation, leaky_slope=slope)
    size = m.params.shape
    if table == "integer":
        m.params[:] = rng.integers(-3, 4, size=size)
    elif table == "cancel":
        m.centers[:] = rng.normal(scale=1e3, size=dim) + rng.normal(
            scale=10.0 ** rng.uniform(-12, 0), size=m.centers.shape)
        m.rel_vectors[:] = rng.normal(scale=10.0 ** rng.uniform(-12, -3),
                                      size=m.rel_vectors.shape)
        m.rel_vectors[0] = m.centers[5] - m.centers[3]
        m.radii[:] = -m.margin / 2 + rng.normal(scale=10.0 ** rng.uniform(-14, -1),
                                                size=m.n_classes)
    else:
        scale = {"normal": 10.0 ** rng.uniform(-3, 3), "tiny": 1e-160, "huge": 1e160}[table]
        m.params[:] = rng.normal(scale=scale, size=size)
    return m


class TestScoreBounds:
    """``score_bounds``: approximate scores with a bound on their distance to the pinned ones."""

    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 65),
           activation=st.sampled_from(["relu", "leaky_relu"]),
           slope=st.sampled_from([0.0, 0.01, 0.5, 1.0, 3.0, -0.2]),
           table=st.sampled_from(["normal", "cancel", "integer", "tiny", "huge"]))
    @settings(max_examples=300, deadline=None)
    def test_err_bounds_the_distance_to_the_pinned_scores(self, seed, dim, activation, slope,
                                                          table):
        rng = np.random.default_rng(seed)
        m = bound_model(rng, dim, activation, slope, table)
        heads, rels = rng.integers(m.n_classes, size=6), rng.integers(3, size=6)
        heads[0], rels[0] = 3, 0
        pool = np.append(rng.integers(m.n_classes, size=30), [5, 5, 3])
        with np.errstate(over="ignore", invalid="ignore"):   # the huge tables overflow
            scores, err = m.score_bounds(pool)(heads, rels)
            pinned = m.score_tails(heads[:, None], rels[:, None], pool)
            gap = np.abs(scores - pinned)
        assert scores.shape == err.shape == pinned.shape == (6, 33)
        sure = np.isfinite(err)
        if table != "huge":
            assert sure.all()
        # an entry with a non-finite err is rescored, so only the others need the bound
        assert (gap[sure] <= err[sure]).all()
        assert (err[sure] >= 0.0).all()
        exact = err == 0.0
        assert (scores[exact] == pinned[exact]).all()
        if exact.any():
            assert activation == "relu" or slope == 0.0
            assert (pinned[exact] == 0.0).all()

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_unit_scale_bounds_are_tight_enough_to_decide(self, activation):
        rng = np.random.default_rng(11)
        m = random_model(rng, 50, activation, 0.1, n_classes=300)
        pool = np.arange(300)
        scores, err = m.score_bounds(pool)(rng.integers(300, size=20), rng.integers(3, size=20))
        assert err.max() < 1e-12

    def test_ids_are_checked(self):
        m = random_model(np.random.default_rng(5), 3, "relu", 0.1)
        with pytest.raises(KeyError, match="unknown class id"):
            m.score_bounds([2, m.n_classes])
        bounds = m.score_bounds([2, 3])
        with pytest.raises(KeyError, match="unknown relation id"):
            bounds(np.array([2]), np.array([m.n_relations]))
        with pytest.raises(KeyError, match="unknown class id"):
            bounds(np.array([-1]), np.array([0]))



@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 65),
       activation=st.sampled_from(["relu", "leaky_relu"]),
       slope=st.sampled_from([0.0, 0.01, 0.5, 1.0, 3.0, -0.2]),
       table=st.sampled_from(["normal", "cancel", "integer", "tiny"]))
@settings(max_examples=150, deadline=None)
def test_err_holds_every_documented_term(seed, dim, activation, slope, table):
    """``score_bounds``' err is at least ``score_err_floor``, the terms its docstring
    lists, entry by entry, and it is 0 only where the pinned score is.  A bound that drops
    or cuts a term can still hold on sampled models, but not this."""
    rng = np.random.default_rng(seed)
    m = bound_model(rng, dim, activation, slope, table)
    heads, rels = rng.integers(m.n_classes, size=4), rng.integers(3, size=4)
    pool = rng.integers(m.n_classes, size=12)
    err = m.score_bounds(pool)(heads, rels)[1]
    floor = np.array([score_err_floor(m, c, r, pool) for c, r in zip(heads, rels)])
    exact = err == 0.0
    assert (m.score_tails(heads[:, None], rels[:, None], pool)[exact] == 0.0).all()
    assert (err[~exact] >= floor[~exact] * (1 - 2 ** -30)).all()

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
        m.radii[c] = 0.3                # the hinge is active: ||0|| + 0.3 - 0.1 > 0
        m.rel_vectors[0] = (1.0, 0.0)   # c + r - d = 0
        g = gradient(m, "gci2_pos", (c, 0, d))
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

    def test_every_model_setting_is_in_the_header_and_the_config(self):
        """The header carries every setting of a model but its signature, parameters and
        table sizes, and a TrainConfig field sets each: a new setting that a checkpoint
        would drop, or that no config sets, fails here."""
        init = {f.name for f in fields(EmbeddingModel) if f.init}
        assert init - {"sig", "params", "n_classes", "n_relations"} == set(SETTINGS)
        assert set(SETTINGS) <= {f.name for f in fields(TrainConfig)}


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

    def test_params_of_another_length_are_refused(self):
        m, _ = model2d()   # 7 classes and 1 relation in 2 dimensions: 23 parameters
        for params in (m.params[:-1], np.append(m.params, 0.0), m.params.reshape(1, -1)):
            with pytest.raises(ValueError, match=r"params has shape \(.*\), expected \(23,\)"):
                replace(m, params=params)

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


@pytest.mark.parametrize("dim", [3, 4])   # rows added as floats, and as complex pairs
class TestGradientScatter:
    """``GradientBuffer.add_*`` against a per-row loop that adds in row order."""

    TABLES = {"add_center": "centers", "add_radius": "radii", "add_rel": "rels"}

    @staticmethod
    def buffer(dim):
        sig = Signature()
        for i in range(4):
            sig.intern_class(f"k{i}")
        for i in range(3):
            sig.intern_relation(f"r{i}")
        return GradientBuffer(EmbeddingModel.create(sig, dim=dim, seed=0))

    @pytest.mark.parametrize("method", sorted(TABLES))
    def test_matches_a_row_loop_bit_for_bit(self, method, dim):
        rng = np.random.default_rng(7)
        buf, ref = self.buffer(dim), self.buffer(dim)
        table = getattr(buf, self.TABLES[method])
        for _ in range(3):   # several calls into the same buffer
            ids = rng.integers(len(table), size=40)   # 40 draws: ids repeat
            # magnitudes spread over 16 decades, so any other order rounds differently
            g = rng.standard_normal((40,) + table.shape[1:]) * 10.0 ** rng.integers(
                -8, 8, size=(40,) + table.shape[1:])
            getattr(buf, method)(ids, g)
            for i, row in zip(ids, g):
                getattr(ref, self.TABLES[method])[i] += row
        assert np.array_equal(buf.flat, ref.flat)

    @pytest.mark.parametrize("method", sorted(TABLES))
    def test_id_past_the_table_raises_and_leaves_flat_untouched(self, method, dim):
        buf = self.buffer(dim)
        buf.flat[:] = np.arange(len(buf.flat))
        before = buf.flat.copy()
        table = getattr(buf, self.TABLES[method])
        with pytest.raises(IndexError):
            getattr(buf, method)([0, len(table)], np.ones((2,) + table.shape[1:]))
        assert np.array_equal(buf.flat, before)


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
                    rel_slots = SPECS[term].slots[SPECS[term].nc:]
                    ids = tuple(
                        int(rng.integers(sig.n_relations)) if j in rel_slots
                        else int(rng.integers(sig.n_classes))
                        for j in range(len(SPECS[term].slots)))
                    val = loss_value(m, term, ids)
                    if term not in ("gci0_bot", "gci3_bot"):   # raw radius, may be negative
                        assert val >= 0.0, term
                pool = np.arange(sig.n_classes)
                assert (m.score_tails(pool[:, None], rng.integers(2), pool) <= 0.0).all()
