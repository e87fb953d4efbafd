"""Correctness checks on served responses.

Every response is checked for shape (ranked, finite, labelled, complete,
not partial); a deterministic sample is re-ranked by an in-process
``LSIRetrieval`` over the same checkpoint, which must agree exactly on
indices and within 1e-12 on scores.  ANN responses are judged by
recall@10 against the exact scan and by their scores, which are exact
reranks and must match the exact cosine of the same document.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCORE_TOL = 1e-12


def parse_search(
    body: bytes | None, *, top: int, tenant: str | None = None,
    id_of=None,
) -> tuple[dict | None, str]:
    """Parse one ``/search`` body and check its shape; (doc, problem)."""
    try:
        doc = json.loads(body)
        results = doc["results"]
    except (TypeError, ValueError, KeyError):
        return None, "unparseable"
    if doc.get("partial"):
        return doc, "partial"
    if tenant is not None and doc.get("tenant") != tenant:
        return doc, "wrong tenant"
    n = int(doc.get("n_documents", 0))
    if len(results) != min(top, n):
        return doc, f"{len(results)} results for top={top}"
    last = math.inf
    for row in results:
        idx, score = int(row[0]), float(row[1])
        if not (0 <= idx < n) or not math.isfinite(score) or score > last + SCORE_TOL:
            return doc, "bad ranking"
        if abs(score) > 1.0 + 1e-9:
            return doc, "score outside [-1, 1]"
        if id_of is not None and len(row) > 2:
            want = id_of(idx)
            if want is not None and row[2] != want:
                return doc, "doc id mismatch"
        last = score
    return doc, ""


class Exact:
    """In-process exact ranking over one model (the oracle)."""

    def __init__(self, model):
        from repro.retrieval.engine import LSIRetrieval

        self.engine = LSIRetrieval(model, query_cache_size=0)

    def search(self, query: str, top: int) -> list[tuple[int, float]]:
        return self.engine.search(query, top=top)

    def scores(self, query: str) -> np.ndarray:
        return self.engine.scores(query)


def same_ranking(served: list, expected: list) -> bool:
    """Indices equal, scores within :data:`SCORE_TOL`."""
    if len(served) != len(expected):
        return False
    for (i, s, *_), (j, t) in zip(served, expected):
        if int(i) != int(j) or abs(float(s) - float(t)) > SCORE_TOL:
            return False
    return True


def recall_at(served: list, expected: list, k: int = 10) -> float:
    """|served top-k ∩ exact top-k| / k."""
    got = {int(r[0]) for r in served[:k]}
    want = {int(r[0]) for r in expected[:k]}
    return len(got & want) / float(max(1, len(want)))


def ann_scores_exact(served: list, exact_scores: np.ndarray) -> bool:
    """Each served (index, score) equals the exact cosine of that row."""
    return all(
        abs(float(r[1]) - float(exact_scores[int(r[0])])) <= SCORE_TOL
        for r in served
    )
