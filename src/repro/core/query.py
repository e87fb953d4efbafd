"""Query representation (Eq. 6).

A query is "a set of words" represented as a vector in k-space::

    q̂ = qᵀ U_k Σ_k⁻¹

where ``q`` is the (weighted) term-frequency vector of the query words.
"The query vector is located at the weighted sum of its constituent term
vectors", with ``Σ_k⁻¹`` differentially weighting the dimensions.  The
same projection folds in a new document (Eq. 7) — a query *is* a pseudo-
document, which is why :func:`pseudo_document` is shared by both paths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.text.tdm import count_vector
from repro.text.tokenizer import tokenize
from repro.weighting.local import NEEDS_COL_MAX, local_weight

__all__ = ["project_query", "project_counts", "pseudo_document", "query_counts"]


def query_counts(model: LSIModel, query: str | Sequence[str]) -> np.ndarray:
    """Raw term-count vector of a query in the model's term space.

    Accepts raw text (tokenized with the standard tokenizer) or an already
    tokenized sequence.  Words that are not indexed terms are dropped,
    exactly as the paper drops *of*, *children*, *with* from the worked
    query.
    """
    tokens = tokenize(query) if isinstance(query, str) else list(query)
    return count_vector(tokens, model.vocabulary)


def _term_vector_sum(
    model: LSIModel, rows: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``Σ_i weights_i · U_k[rows_i] · Σ_k⁻¹`` — the one Eq. 6 kernel.

    Reads only the named ``U_k`` rows.  Singular values of zero would
    make the projection blow up; they cannot occur in a properly
    truncated model, so we validate.
    """
    if np.any(model.s <= 0):
        raise ShapeError(
            "model has zero singular values; truncate before projecting"
        )
    return (weights @ model.U[rows]) / model.s


def pseudo_document(model: LSIModel, weighted_counts: np.ndarray) -> np.ndarray:
    """Project a weighted m-vector into k-space: ``d̂ = dᵀ U_k Σ_k⁻¹``.

    This is simultaneously Eq. 6 (queries) and Eq. 7 (folding in a
    document).  As the paper puts it, the vector lands "at the weighted
    sum of its constituent term vectors": only the ``U_k`` rows of the
    nonzero weighted terms are read (``d[nz] @ U[nz]``), a few rows for
    a typical query instead of all m.  :func:`project_counts` lands in
    the same kernel, so every projection path — single and batched
    queries, engine, server, cluster — agrees element for element.
    """
    d = np.asarray(weighted_counts, dtype=np.float64).ravel()
    if d.size != model.n_terms:
        raise ShapeError(
            f"vector length {d.size} != m={model.n_terms}"
        )
    # (d != 0).nonzero() is several times faster than np.flatnonzero(d)
    # on a long float vector.
    nz = (d != 0).nonzero()[0]
    return _term_vector_sum(model, nz, d[nz])


def project_counts(model: LSIModel, counts: np.ndarray) -> np.ndarray:
    """Weight a raw term-count vector and project it into k-space.

    The counts receive the model's term weights (local transform +
    stored global weights), then the Eq. 6 projection.  Split out from
    :func:`project_query` so callers that already hold counts — the
    serving layer's query-vector cache keys on them — can skip the
    tokenization pass.  Every local transform maps 0 → 0, so only the
    nonzero counts are weighted; the result is element-identical to
    :func:`pseudo_document` of the densely weighted vector.
    """
    counts = np.asarray(counts, dtype=np.float64).ravel()
    if counts.size != model.n_terms:
        raise ShapeError(
            f"vector length {counts.size} != m={model.n_terms}"
        )
    nz = (counts != 0).nonzero()[0]
    c = counts[nz]
    if model.scheme.local in NEEDS_COL_MAX:
        cmax = max(c.max(initial=0.0), 1.0)
        local = local_weight(model.scheme.local, c, np.full_like(c, cmax))
    else:
        local = local_weight(model.scheme.local, c)
    weighted = local * model.global_weights[nz]
    keep = weighted != 0  # a zero global weight drops the term, as dense
    return _term_vector_sum(model, nz[keep], weighted[keep])


def project_query(model: LSIModel, query: str | Sequence[str]) -> np.ndarray:
    """Full Eq. 6 pipeline: tokenize, weight, project."""
    return project_counts(model, query_counts(model, query))
