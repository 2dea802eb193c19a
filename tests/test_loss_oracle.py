"""Batched loss values and gradient scatter against per-row references.

``brute_loss`` writes every term's formula out per row, so these checks catch
a loss that is wrong but consistent with its own gradient, which the
finite-difference check cannot.  Batches draw ids with replacement from a
small signature, so every batch repeats ids within its columns.
"""

import numpy as np
import pytest

from elgeo import geometry
from elgeo.axioms import Signature
from elgeo.geometry import (
    SPECS, TERMS, EmbeddingModel, GradientBuffer, loss_term,
)

from oracles import brute_loss, gradient

BATCH = 12
MODES = [(activation, reg_mode)
         for activation in ("relu", "leaky_relu") for reg_mode in ("strict", "relaxed")]


def random_model(activation, reg_mode, rng):
    sig = Signature()
    for i in range(3):
        sig.intern_class(f"k{i}")
    sig.intern_relation("r0")
    sig.intern_relation("r1")
    m = EmbeddingModel.create(sig, dim=5, reg_mode=reg_mode, reg_radius=1.2,
                              activation=activation, leaky_slope=0.1, seed=0)
    m.centers[:] = rng.uniform(-1.5, 1.5, m.centers.shape)
    m.radii[:] = rng.uniform(-0.8, 0.8, m.radii.shape)
    m.rel_vectors[:] = rng.uniform(-1.5, 1.5, m.rel_vectors.shape)
    m.margin = float(rng.uniform(-0.15, 0.15))
    return m


def random_cols(m, term, rng):
    rel_slots = SPECS[term].slots[SPECS[term].nc:]
    cols = tuple(
        rng.integers(m.sig.n_relations if j in rel_slots else m.sig.n_classes, size=BATCH)
        for j in range(len(SPECS[term].slots)))
    for col in cols:   # 12 draws from at most 5 ids always repeat one
        assert len(np.unique(col)) < BATCH
    return cols


@pytest.mark.parametrize("activation,reg_mode", MODES)
@pytest.mark.parametrize("term", TERMS)
def test_batched_values_match_brute_formulas(term, activation, reg_mode):
    rng = np.random.default_rng([TERMS.index(term), MODES.index((activation, reg_mode))])
    for _ in range(5):
        m = random_model(activation, reg_mode, rng)
        cols = random_cols(m, term, rng)
        batched = loss_term(m, term, cols)
        expected = [brute_loss(m, term, tuple(int(c[i]) for c in cols)) for i in range(BATCH)]
        np.testing.assert_allclose(batched, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("activation,reg_mode", MODES)
@pytest.mark.parametrize("term", TERMS)
def test_batched_gradient_sums_single_rows(term, activation, reg_mode):
    rng = np.random.default_rng([TERMS.index(term), MODES.index((activation, reg_mode)), 1])
    for _ in range(5):
        m = random_model(activation, reg_mode, rng)
        cols = random_cols(m, term, rng)
        buf = GradientBuffer(m)
        loss_term(m, term, cols, grad=buf)
        expected = GradientBuffer(m)
        for i in range(BATCH):
            for (kind, idx), g in gradient(m, term, tuple(int(c[i]) for c in cols)).items():
                table = {"center": expected.centers, "radius": expected.radii,
                         "relation": expected.rels}[kind]
                table[idx] += g
        for got, want in zip((buf.centers, buf.radii, buf.rels),
                             (expected.centers, expected.radii, expected.rels)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("term", TERMS)
def test_chunked_pass_matches_one_pass(term, monkeypatch):
    rng = np.random.default_rng([TERMS.index(term), 2])
    m = random_model("leaky_relu", "relaxed", rng)
    cols = random_cols(m, term, rng)
    coef = rng.uniform(0.5, 2.0)   # one weight for every row, as train passes
    whole = GradientBuffer(m)
    values = loss_term(m, term, cols, grad=whole, coef=coef)
    monkeypatch.setattr(geometry, "CHUNK", 5)   # 12 rows: chunks of 5, 5 and 2
    parts = GradientBuffer(m)
    np.testing.assert_allclose(loss_term(m, term, cols, grad=parts, coef=coef), values,
                               rtol=1e-12, atol=1e-15)
    for got, want in zip((parts.centers, parts.radii, parts.rels),
                         (whole.centers, whole.radii, whole.rels)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
