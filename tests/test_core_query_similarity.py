"""Tests for query projection (Eq. 6) and similarity ranking."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    nearest_terms,
    project_query,
    rank_documents,
    retrieve,
)
from repro.core.query import project_counts, pseudo_document, query_counts
from repro.core.similarity import (
    cosine_similarities,
    doc_doc_similarities,
    term_term_similarities,
)
from repro.errors import ShapeError
from repro.weighting.local import LOCAL_WEIGHTS, local_weight
from repro.weighting.schemes import WeightingScheme


def test_query_counts_drops_unindexed_words(med_model):
    counts = query_counts(med_model, "age of children with blood abnormalities")
    vocab = med_model.vocabulary
    assert counts[vocab.id_of("age")] == 1
    assert counts[vocab.id_of("blood")] == 1
    assert counts[vocab.id_of("abnormalities")] == 1
    assert counts.sum() == 3  # of / children / with dropped


def test_query_counts_accepts_token_list(med_model):
    counts = query_counts(med_model, ["age", "blood"])
    assert counts.sum() == 2


def test_eq6_projection_formula(med_model):
    """q̂ = qᵀ U_k Σ_k⁻¹, verified against the raw algebra."""
    q = query_counts(med_model, "age blood abnormalities")
    qhat = project_query(med_model, "age blood abnormalities")
    expected = (q @ med_model.U) / med_model.s
    assert np.allclose(qhat, expected)


@pytest.mark.parametrize("local", sorted(LOCAL_WEIGHTS))
def test_project_counts_is_pseudo_document_of_dense_weights(med_model, local):
    """Only the nonzero counts are weighted, and only their U_k rows read.

    The result is bit-identical to ``pseudo_document`` of the densely
    weighted vector (one kernel for every projection path), and equal
    within rounding to the dense Eq. 6 algebra ``d @ U_k / s``.
    """
    gw = med_model.global_weights.copy()
    gw[::3] = 0.0  # a zero global weight drops the term on both paths
    model = dataclasses.replace(
        med_model,
        scheme=WeightingScheme(local, med_model.scheme.global_),
        global_weights=gw,
    )
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rng.integers(0, 4, model.n_terms).astype(float)
        counts[rng.random(model.n_terms) < 0.7] = 0.0
        cmax = np.full_like(counts, max(counts.max(), 1.0))
        weighted = local_weight(local, counts, cmax) * model.global_weights
        got = project_counts(model, counts)
        assert got.tobytes() == pseudo_document(model, weighted).tobytes()
        np.testing.assert_allclose(
            got, (weighted @ model.U) / model.s, rtol=1e-12, atol=1e-14
        )


def test_pseudo_document_validation(med_model):
    with pytest.raises(ShapeError):
        pseudo_document(med_model, np.ones(5))


def test_query_is_weighted_like_documents(med_texts):
    from repro.core import fit_lsi

    model = fit_lsi(med_texts, 2, scheme="log_entropy")
    qhat = project_query(model, "blood blood blood")
    # Raw projection with unweighted counts differs (log damping).
    counts = query_counts(model, "blood blood blood")
    raw = (counts * model.global_weights @ model.U) / model.s
    logged = (
        np.log2(counts + 1) * model.global_weights @ model.U
    ) / model.s
    assert np.allclose(qhat, logged)
    assert not np.allclose(qhat, raw)


def test_cosine_similarities_modes(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    scaled = cosine_similarities(med_model, qhat, mode="scaled")
    factors = cosine_similarities(med_model, qhat, mode="factors")
    assert scaled.shape == (14,)
    assert np.all(scaled <= 1 + 1e-12) and np.all(scaled >= -1 - 1e-12)
    assert not np.allclose(scaled, factors)  # Σ-scaling matters
    with pytest.raises(ValueError):
        cosine_similarities(med_model, qhat, mode="euclid")
    with pytest.raises(ShapeError):
        cosine_similarities(med_model, np.ones(5))


def test_rank_documents_sorted(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    ranked = rank_documents(med_model, qhat)
    assert len(ranked) == 14
    cosines = [c for _, c in ranked]
    assert cosines == sorted(cosines, reverse=True)


def test_retrieve_threshold_and_top(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    by_threshold = retrieve(med_model, qhat, threshold=0.85)
    assert all(c >= 0.85 for _, c in by_threshold)
    top3 = retrieve(med_model, qhat, top=3)
    assert len(top3) == 3
    both = retrieve(med_model, qhat, threshold=0.85, top=2)
    assert len(both) <= 2
    with pytest.raises(ValueError):
        retrieve(med_model, qhat)


def test_zero_query_scores_zero(med_model):
    qhat = np.zeros(2)
    cos = cosine_similarities(med_model, qhat)
    assert np.allclose(cos, 0.0)


def test_term_term_similarity_self_is_one(med_model):
    sims = term_term_similarities(med_model, "blood")
    idx = med_model.vocabulary.id_of("blood")
    assert sims[idx] == pytest.approx(1.0)


def test_doc_doc_similarity(med_model):
    sims = doc_doc_similarities(med_model, "M13")
    assert sims[med_model.doc_index("M13")] == pytest.approx(1.0)
    # M14 shares the fast/rats cluster with M13 (Figure 4).
    assert sims[med_model.doc_index("M14")] > 0.9


def test_nearest_terms_skips_self(med_model):
    out = nearest_terms(med_model, "oestrogen", top=5)
    assert len(out) == 5
    assert all(w != "oestrogen" for w, _ in out)
    out2 = nearest_terms(med_model, "oestrogen", top=3, skip_self=False)
    assert out2[0][0] == "oestrogen"
