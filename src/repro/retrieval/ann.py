"""Approximate near-neighbour search in k-space (§5.6).

The paper's third open computational issue: "efficiently comparing
queries to documents (i.e., finding near neighbors in high-dimension
spaces)".  This module is the *offline* face of the answer: a
:class:`ClusterIndex` bound to one in-memory model, for experiments and
the recall tooling.  The algorithm itself — seeded k-means++ training,
probe-bounded candidate generation, exact rerank — lives in
:mod:`repro.serving.ann` as :class:`~repro.serving.ann.CoarseQuantizer`,
the checkpoint-persistable form every serving path (single-node server,
cluster shard workers) maps and probes at query time.

Scoring runs on the same coordinate conventions as
:mod:`repro.core.similarity` via the shared
:class:`~repro.serving.index.DocumentIndex`, and candidates rerank in
ascending document order — so ``probes == n_clusters`` reproduces the
exact ranking element-for-element, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.serving.ann import CoarseQuantizer, kmeans
from repro.serving.index import get_document_index

__all__ = ["kmeans", "ClusterIndex"]


@dataclass
class ClusterIndex:
    """Coarse-quantized cosine search over a model's document vectors."""

    model: LSIModel
    quantizer: CoarseQuantizer

    @classmethod
    def build(
        cls, model: LSIModel, *, n_clusters: int | None = None, seed=0
    ) -> "ClusterIndex":
        """Cluster the scaled document coordinates.

        The default cluster count ``≈ sqrt(n)`` balances probe cost
        against within-cluster scan cost, the standard IVF heuristic.
        """
        if model.n_documents == 0:
            raise ShapeError("model has no documents to index")
        index = get_document_index(model, mode="scaled")
        quantizer = CoarseQuantizer.train(index.coords, n_clusters, seed=seed)
        return cls(model, quantizer)

    @property
    def n_clusters(self) -> int:
        """Number of coarse clusters."""
        return self.quantizer.n_clusters

    @property
    def centroids(self) -> np.ndarray:
        """Unit-sphere cell centroids, ``(c, k)``."""
        return self.quantizer.centroids

    @property
    def assignment(self) -> np.ndarray:
        """Per-document cell ids, ``(n,)``."""
        return self.quantizer.assignment()

    @property
    def members(self) -> list[np.ndarray]:
        """Ascending document indices of each cell."""
        return self.quantizer.members()

    # ------------------------------------------------------------------ #
    def search(
        self,
        qhat: np.ndarray,
        *,
        top: int = 10,
        probes: int = 2,
    ) -> tuple[list[tuple[int, float]], int]:
        """Approximate top-``top`` ``(doc_index, cosine)`` results.

        Returns the result list and the number of documents actually
        scored (the work saved is ``1 - scored/n``).  ``probes`` clamps
        to ``n_clusters``; fewer candidates than ``top`` simply returns
        a shorter list.
        """
        if top < 1 or probes < 1:
            raise ShapeError("top and probes must be >= 1")
        qhat = np.asarray(qhat, dtype=np.float64).ravel()
        if qhat.size != self.model.k:
            raise ShapeError(
                f"query vector has {qhat.size} dims for k={self.model.k}"
            )
        index = get_document_index(self.model, mode="scaled")
        target = index.prepare_queries(qhat)[0]
        if np.sqrt(target @ target) == 0:
            return [], 0
        (indices, scores), stats = self.quantizer.select(
            index.coords,
            index.norms,
            target,
            probes=probes,
            top=top,
            n_total=self.model.n_documents,
        )
        pairs = list(zip(indices.tolist(), scores.tolist()))
        return pairs, stats["candidates"]

    def recall_at(
        self, qhat: np.ndarray, *, top: int = 10, probes: int = 2
    ) -> float:
        """Fraction of the exact top-``top`` found by the probe search."""
        from repro.core.similarity import cosine_similarities

        exact = cosine_similarities(self.model, qhat)
        true_top = set(np.argsort(-exact, kind="stable")[:top].tolist())
        approx, _ = self.search(qhat, top=top, probes=probes)
        got = {j for j, _ in approx}
        return len(got & true_top) / top
