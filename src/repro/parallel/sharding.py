"""Document sharding: split, search shards, merge top results exactly.

For collections past the single-model comfort zone the classic recipe is
one LSI model per shard plus an exact top-z merge — scores are cosines in
each shard's own space, so the merge is only exact when the shards share
one model; :func:`sharded_search` therefore shards the *scoring*, not the
decomposition, matching the paper's single-space TREC design.

Shards are contiguous row ranges of the cached
:class:`~repro.serving.index.DocumentIndex`, so per-shard scoring works
on zero-copy views of the precomputed ``V_k Σ_k`` and its norms; the
per-shard top-k uses the same argpartition selection as the flat path
and the merge preserves its tie order (lower document index first), so
sharded results are element-identical to a flat search.
:func:`sharded_batch_search` runs a whole query batch through the same
machinery: one GEMM per (shard × batch), shards optionally scored by a
thread pool, per-shard top-k arrays merged exactly per query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.obs.tracing import span
from repro.parallel.pool import parallel_map
from repro.serving.index import DocumentIndex, get_document_index
from repro.serving.kernel import cosine_scores
from repro.serving.topk import topk_indices
from repro.util.timing import serving_counters

__all__ = [
    "shard_documents",
    "shard_bounds",
    "sharded_search",
    "sharded_batch_search",
    "merge_topk",
]


def shard_documents(n: int, shards: int) -> list[np.ndarray]:
    """Split document indices ``0..n-1`` into near-equal contiguous shards."""
    if shards < 1:
        raise ShapeError("shards must be >= 1")
    if n < 0:
        raise ShapeError("n must be non-negative")
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(shards)]


def shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """The same partition as :func:`shard_documents`, as (lo, hi) ranges.

    This is *the* canonical partition: the in-process sharded search,
    the multi-process cluster plan (:mod:`repro.cluster.plan`), and the
    parity harnesses all derive their row ranges from this one function,
    so a shard layout can never drift between layers.
    """
    if shards < 1:
        raise ShapeError("shards must be >= 1")
    if n < 0:
        raise ShapeError("n must be non-negative")
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(shards)]


#: A shard's answer for one query that matched nothing.
_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


def merge_topk(
    per_shard: Sequence[tuple[np.ndarray, np.ndarray]], k: int
) -> list[tuple[int, float]]:
    """Exact top-k merge of per-shard ``(indices, scores)`` arrays.

    One stable ``argsort(-scores)`` over the shards concatenated in
    document order: each shard arrives in stable descending order, so
    score ties resolve by ascending document index — the flat search's
    tie order, and exactly what a stable ``heapq.nlargest`` over the
    same pairs yields.  The ``(doc_index, score)`` pairs are the only
    Python objects built.
    """
    if k < 1:
        raise ShapeError("k must be >= 1")
    if not per_shard:
        return []
    indices = np.concatenate([idx for idx, _ in per_shard])
    scores = np.concatenate([s for _, s in per_shard])
    order = (-scores).argsort(kind="stable")[:k]
    return list(zip(indices[order].tolist(), scores[order].tolist()))


def _shard_topk(
    index: DocumentIndex,
    Qs: np.ndarray,
    lo: int,
    hi: int,
    top: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-query top-``top`` ``(indices, scores)`` within rows ``lo:hi``.

    Scores the shard with the shared GEMM kernel on zero-copy views of
    the cached coordinates and norms; indices are shifted to global.
    """
    if hi <= lo:
        return [_EMPTY for _ in range(Qs.shape[0])]
    S = cosine_scores(
        index.coords[lo:hi], Qs, norms=index.norms[lo:hi]
    )
    out = []
    for row in S:
        order = topk_indices(row, top)
        out.append((order.astype(np.int64) + lo, row[order]))
    return out


def sharded_search(
    model: LSIModel,
    qhat: np.ndarray,
    *,
    shards: int = 4,
    top: int = 10,
    workers: int | None = None,
) -> list[tuple[int, float]]:
    """Score shards (optionally in parallel), merge exact top results.

    Identical results to a flat search; the point is the execution shape —
    per-shard scoring parallelizes and bounds memory.
    """
    with span("lsi.search.sharded", shards=shards, top=top):
        index = get_document_index(model, mode="scaled")
        Qs = index.prepare_queries(np.asarray(qhat, dtype=np.float64).ravel())
        parts = shard_bounds(index.n_documents, shards)

        def search_shard(
            bounds: tuple[int, int],
        ) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = bounds
            serving_counters.incr("shard_searches")
            with span("lsi.search.shard", lo=lo, hi=hi):
                return _shard_topk(index, Qs, lo, hi, top)[0]

        per_shard = parallel_map(search_shard, parts, workers=workers)
        with span("lsi.search.merge", shards=shards):
            return merge_topk(per_shard, top)


def sharded_batch_search(
    model: LSIModel,
    queries: Sequence[str] | np.ndarray,
    *,
    top: int = 10,
    shards: int = 4,
    workers: int | None = None,
) -> list[list[tuple[int, float]]]:
    """Top-``top`` lists for every query, scored shard-parallel.

    ``queries`` may be raw texts (projected with Eq. 6 first) or an
    already-projected ``(q, k)`` array.  Each shard scores the whole
    query batch with one GEMM over its slice of the document index —
    optionally across a thread pool (NumPy releases the GIL inside the
    GEMM) — then the per-shard top-k arrays are merged exactly per query.
    Results are element-identical to
    :func:`repro.parallel.batch.batch_search`.
    """
    if top < 1:
        raise ShapeError("top must be >= 1")
    with span("lsi.batch_search", shards=shards, top=top):
        if isinstance(queries, np.ndarray):
            Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        else:
            from repro.parallel.batch import batch_project_queries

            with span("lsi.project.batch", queries=len(queries)):
                Q = batch_project_queries(model, queries)
        index = get_document_index(model, mode="scaled")
        Qs = index.prepare_queries(Q)
        parts = shard_bounds(index.n_documents, shards)

        def search_shard(
            bounds: tuple[int, int],
        ) -> list[tuple[np.ndarray, np.ndarray]]:
            lo, hi = bounds
            serving_counters.incr("shard_searches")
            with span("lsi.search.shard", lo=lo, hi=hi):
                return _shard_topk(index, Qs, lo, hi, top)

        per_shard = parallel_map(search_shard, parts, workers=workers)
        with span("lsi.search.merge", shards=shards):
            return [
                merge_topk([shard[qi] for shard in per_shard], top)
                for qi in range(Qs.shape[0])
            ]
