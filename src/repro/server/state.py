"""Epoch-swapped serving state: atomic reader/writer model handoff.

The updating layer (§2.3 folding-in, §4 SVD-updating) replaces the
*model object* on every maintenance action, and the serving cache
enforces that by flagging superseded :class:`DocumentIndex` handles
stale.  A long-lived server needs the complementary guarantee: queries
that started before an update must be allowed to **finish** against the
state they started on, while new queries see the new state — the
classic epoch (RCU-style) handoff.

:class:`EpochSnapshot` pins everything one batch of queries needs — the
model, the precomputed document coordinates and norms, a per-epoch
projected-query cache — into one immutable object.  :class:`ServingState`
publishes the current snapshot behind a single attribute write (atomic
under the GIL), so readers never lock; writers serialize on a mutex,
route the addition through :class:`~repro.updating.manager.LSIIndexManager`
(fold-in now, consolidate per the §4.3 drift policy), build the
successor snapshot, and swap.  A snapshot deliberately scores through
the raw kernel rather than :meth:`DocumentIndex.batch_scores`: the
freshness check would reject exactly the in-flight-against-old-epoch
reads this layer exists to permit, and the pinned arrays are immutable
either way.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_counts, query_counts
from repro.errors import ReproError, ShapeError
from repro.obs.metrics import registry
from repro.parallel.pool import parallel_map
from repro.serving.ann import CoarseQuantizer
from repro.serving.index import get_document_index
from repro.serving.kernel import cosine_scores
from repro.serving.querycache import QueryVectorCache
from repro.updating.manager import LSIIndexManager

__all__ = [
    "EpochSnapshot",
    "ServingState",
    "manager_from_texts",
    "state_from_texts",
]


class EpochSnapshot:
    """One immutable epoch of serving state: model + scoring arrays.

    All queries of one micro-batch are projected and scored against a
    single snapshot, so a response can never mix documents from two
    epochs (no torn reads); the ``epoch`` and ``n_documents`` it reports
    describe exactly the state it was computed on.
    """

    __slots__ = ("epoch", "model", "coords", "norms", "query_cache", "ann")

    def __init__(
        self,
        epoch: int,
        model: LSIModel,
        *,
        query_cache_size: int = 256,
        ann: CoarseQuantizer | None = None,
    ):
        self.epoch = epoch
        self.model = model
        index = get_document_index(model, mode="scaled")
        # Pin the arrays themselves: they stay valid even if the cache
        # entry is evicted or the index handle later goes stale.
        self.coords = index.coords
        self.norms = index.norms
        self.query_cache = QueryVectorCache(query_cache_size)
        # The coarse quantizer may predate this epoch (it is trained at
        # checkpoint time); rows it has never seen are still searched
        # exactly via the quantizer's fresh-tail rule.
        self.ann = ann

    @property
    def n_documents(self) -> int:
        """Documents visible at this epoch."""
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        """Dimensionality of the comparison space."""
        return self.coords.shape[1]

    # ------------------------------------------------------------------ #
    def project(self, query) -> np.ndarray:
        """Eq. 6 for one query (text or token sequence), cache-memoized.

        Identical math to :meth:`LSIRetrieval.query_vector`: normalized
        token counts key the per-epoch LRU, misses run the weighting
        transform + ``U_k Σ_k⁻¹`` projection.
        """
        counts = query_counts(self.model, query)
        key = QueryVectorCache.key_from_counts(counts)
        qhat = self.query_cache.get(key)
        if qhat is None:
            qhat = project_counts(self.model, counts)
            self.query_cache.put(key, qhat)
        return qhat

    def score_batch(
        self,
        Q: np.ndarray,
        *,
        shards: int = 1,
        workers: int | None = None,
    ) -> np.ndarray:
        """Cosine of ``(q, k)`` query vectors with every document.

        Row ``i`` is element-identical to the unbatched engine's
        ``scores`` for query ``i``.  With ``shards > 1`` the document
        rows are split into contiguous slices, each scored by its own
        GEMM (optionally on a thread pool — NumPy releases the GIL), and
        the column blocks are concatenated; per-element cosines depend
        only on their own document row and query, so the sharded result
        equals the flat one.
        """
        Q2 = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if Q2.shape[1] != self.model.k:
            raise ShapeError(
                f"queries have {Q2.shape[1]} dims for k={self.model.k}"
            )
        Qs = Q2 * self.model.s  # "scaled" comparison space, as the engine
        n = self.n_documents
        if shards <= 1 or n == 0:
            return cosine_scores(self.coords, Qs, norms=self.norms)
        bounds = np.linspace(0, n, min(shards, n) + 1).astype(np.int64)
        parts = [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(bounds) - 1)
        ]

        def score_slice(lohi: tuple[int, int]) -> np.ndarray:
            lo, hi = lohi
            return cosine_scores(
                self.coords[lo:hi], Qs, norms=self.norms[lo:hi]
            )

        blocks = parallel_map(score_slice, parts, workers=workers)
        return np.concatenate(blocks, axis=1)

    def search_ann(
        self,
        qhat: np.ndarray,
        *,
        probes: int,
        top: int | None = None,
        threshold: float | None = None,
    ) -> tuple[list[tuple[int, float]], dict]:
        """Probe-bounded ranked ``(doc_index, score)`` pairs for one query.

        Scores only the ``probes`` nearest cells' documents (plus any
        fresh tail the quantizer has not seen), exact-reranked with the
        same kernel as :meth:`score_batch` — element-identical to the
        exhaustive scan when ``probes >= ann.n_clusters``.  Requires a
        quantizer; callers fall back to :meth:`score_batch` when
        ``self.ann is None``.
        """
        if self.ann is None:
            raise ReproError("snapshot has no coarse quantizer")
        qhat = np.asarray(qhat, dtype=np.float64).ravel()
        if qhat.size != self.model.k:
            raise ShapeError(
                f"query has {qhat.size} dims for k={self.model.k}"
            )
        (indices, scores), stats = self.ann.select(
            self.coords,
            self.norms,
            qhat * self.model.s,
            probes=probes,
            top=top,
            threshold=threshold,
            n_total=self.n_documents,
        )
        return list(zip(indices.tolist(), scores.tolist())), stats


class ServingState:
    """The mutable holder a server reads snapshots from and writes through.

    Two flavours:

    * **manager-backed** (:meth:`for_manager`) — document additions run
      through the :class:`LSIIndexManager` (fold-in immediately, §4.3
      drift-policy consolidation when the planner says so) and publish a
      new epoch;
    * **static** (:meth:`for_model`) — serve a saved ``.npz`` model
      read-only; :meth:`add_texts` raises.
    """

    def __init__(
        self,
        *,
        manager: LSIIndexManager | None = None,
        model: LSIModel | None = None,
        query_cache_size: int = 256,
        ann: CoarseQuantizer | None = None,
    ):
        if (manager is None) == (model is None):
            raise ReproError("ServingState needs a manager or a model, not both")
        self._manager = manager
        self._query_cache_size = query_cache_size
        self._write_lock = threading.Lock()
        self._swap_hooks: list = []
        self._ann = ann
        initial = manager.model if manager is not None else model
        self._snapshot = EpochSnapshot(
            0, initial, query_cache_size=query_cache_size, ann=ann
        )
        self._publish_gauges(self._snapshot)

    # ------------------------------------------------------------------ #
    @classmethod
    def for_manager(cls, manager: LSIIndexManager, **kwargs) -> "ServingState":
        """Live-updatable state around an existing index manager."""
        return cls(manager=manager, **kwargs)

    @classmethod
    def for_model(cls, model: LSIModel, **kwargs) -> "ServingState":
        """Read-only state around a fitted (e.g. loaded) model."""
        return cls(model=model, **kwargs)

    @property
    def writable(self) -> bool:
        """Whether :meth:`add_texts` is available."""
        return self._manager is not None

    def current(self) -> EpochSnapshot:
        """The snapshot new work should run against (lock-free read)."""
        return self._snapshot

    @property
    def ann_enabled(self) -> bool:
        """Whether snapshots carry a coarse quantizer to probe."""
        return self._ann is not None

    def train_ann(
        self, n_clusters: int | None = None, *, seed=0
    ) -> CoarseQuantizer:
        """Train a quantizer on the current coordinates and publish it.

        The in-memory counterpart of checkpoint-time training, for
        servers without a durable store (``repro serve`` over raw
        texts).  Publishes a replacement snapshot at the *same* epoch —
        the index content is unchanged, only the probe structure is new.
        """
        with self._write_lock:
            snap = self._snapshot
            quantizer = CoarseQuantizer.train(
                snap.coords, n_clusters, seed=seed
            )
            self._ann = quantizer
            self._snapshot = EpochSnapshot(
                snap.epoch,
                snap.model,
                query_cache_size=self._query_cache_size,
                ann=quantizer,
            )
        return quantizer

    def add_swap_hook(self, hook) -> None:
        """Register ``hook(snapshot, event)`` to run after each epoch swap.

        Hooks run under the write lock, after the new snapshot is
        published — the durability layer uses this to wake its
        background checkpointer without touching the query path.  Keep
        hooks cheap; heavy work belongs on the hook's own thread.
        """
        self._swap_hooks.append(hook)

    # ------------------------------------------------------------------ #
    def _apply_add(
        self, texts: list[str], doc_ids: Sequence[str] | None
    ):
        """Route one addition into the manager; returns its IndexEvent.

        The override point for durable serving: :class:`~repro.store.
        durable.DurableServingState` write-ahead-logs the addition before
        applying it here, so an fsync-acknowledged fold-in survives a
        crash.  Called with the write lock held.
        """
        return self._manager.add_texts(texts, doc_ids)

    def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> dict:
        """Add documents through the manager and publish a new epoch.

        Blocking (runs the fold-in / consolidation); the service calls
        it from an executor thread.  In-flight readers keep scoring
        their pinned snapshot; the swap is one attribute write.
        """
        if self._manager is None:
            raise ReproError(
                "server is read-only: serving a saved model, not a managed "
                "index; restart with a document source to enable /add"
            )
        with self._write_lock:
            event = self._apply_add(list(texts), doc_ids)
            fresh = EpochSnapshot(
                self._snapshot.epoch + 1,
                self._manager.model,
                query_cache_size=self._query_cache_size,
                ann=self._ann,
            )
            self._snapshot = fresh  # the atomic reader/writer handoff
            self._publish_gauges(fresh)
            for hook in self._swap_hooks:
                hook(fresh, event)
        return {
            "epoch": fresh.epoch,
            "n_documents": fresh.n_documents,
            "action": event.action,
            "reason": event.reason,
        }

    @staticmethod
    def _publish_gauges(snapshot: EpochSnapshot) -> None:
        registry.set_gauge("server.epoch", snapshot.epoch)
        registry.set_gauge("server.n_documents", snapshot.n_documents)


def manager_from_texts(
    texts: Sequence[str],
    doc_ids: Sequence[str] | None = None,
    *,
    k: int = 50,
    scheme: str | object = "log_entropy",
    min_doc_freq: int = 1,
    distortion_budget: float = 0.1,
    drift_cap: float = 2.0,
    seed: int = 0,
    ingest_method: str = "fold-in",
    fast_update_rank: int = 8,
) -> LSIIndexManager:
    """Fit the live-updatable index manager ``repro serve`` runs on.

    One deterministic path shared by ``repro serve``, the durable store
    seeding path, and the CI smoke harnesses (which rebuild the same
    model in-process to check served results byte-for-byte): parse →
    TDM → manager fit, with ``k`` clamped to the matrix rank bound.
    """
    from repro.text.parser import ParsingRules
    from repro.text.tdm import build_tdm

    rules = ParsingRules(min_doc_freq=min_doc_freq)
    tdm = build_tdm(list(texts), rules, doc_ids=doc_ids)
    return LSIIndexManager(
        tdm,
        k=max(1, min(k, min(tdm.shape))),
        scheme=scheme,
        distortion_budget=distortion_budget,
        drift_cap=drift_cap,
        seed=seed,
        ingest_method=ingest_method,
        fast_update_rank=fast_update_rank,
    )


def state_from_texts(
    texts: Sequence[str],
    doc_ids: Sequence[str] | None = None,
    *,
    query_cache_size: int = 256,
    **manager_kwargs,
) -> ServingState:
    """Build a live-updatable :class:`ServingState` from raw documents.

    Thin composition of :func:`manager_from_texts` and
    :meth:`ServingState.for_manager`; keyword arguments pass through to
    the manager fit.
    """
    manager = manager_from_texts(texts, doc_ids, **manager_kwargs)
    return ServingState.for_manager(manager, query_cache_size=query_cache_size)
