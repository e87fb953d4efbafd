"""The cluster backend: checkpoint → plan → supervisor → router.

:class:`ClusterService` is one *fleet*: it answers queries by scattering
over shard worker *processes* instead of scoring in-loop.  It opens the
newest durable-store checkpoint once (memory-mapped, for the vocabulary
and query projection; workers map the same files themselves), pins a
:class:`~repro.cluster.plan.ShardPlan` against that checkpoint's epoch,
and wires the router's dead-connection reports into the supervisor's
restart machinery.

A fleet is a backend, not a front end: the HTTP server always fronts a
:class:`~repro.server.service.QueryService`, which pins the tenant,
admits the request against its bounded queue and quotas, and then calls
:meth:`ClusterService.execute` — one direct scatter per request.  The
slow-query log, ``/metrics`` federation, and ``/trace`` assembly live
there too; the fleet contributes :meth:`ClusterService.describe` for
``/healthz`` and :meth:`~ClusterService.fetch_stats` /
:meth:`~ClusterService.fetch_trace` for federation.  :meth:`search` and
:meth:`search_many` stay as direct, un-admitted entries for tests and
benchmarks.

By default the cluster is a *read-only* serving tier: ``/add`` is
refused with :class:`~repro.errors.ClusterReadOnlyError`, and a new
checkpoint is picked up by restarting the cluster.  With
``writable=True`` the service embeds the
:class:`~repro.cluster.primary.PrimaryWriter`: ``/add`` WAL-logs
through the durable store, the writer seals checkpoints on its policy
and bumps the workers, and the fleet hot-swaps its
:class:`~repro.cluster.epochs.EpochHandle` — :meth:`execute` snapshots
the handle at entry, so in-flight queries finish against the superseded
epoch (which every worker retains) and zero queries drop across a bump.
"""

from __future__ import annotations

import asyncio
import pathlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.epochs import EpochHandle, handle_for_checkpoint
from repro.cluster.router import ClusterResult, ClusterRouter, RouterConfig
from repro.cluster.supervisor import ClusterSupervisor, SupervisorConfig
from repro.core.query import project_query
from repro.errors import ClusterConfigError, ClusterReadOnlyError, StoreError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.store.checkpoint import latest_valid_checkpoint

__all__ = ["ClusterConfig", "ClusterService"]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables for one fleet (CLI flags map 1:1 onto these).

    Request defaults (deadline, probes) and the slow-query log belong
    to the front end's :class:`~repro.server.service.ServerConfig`.
    """

    workers: int = 4
    #: Replicas per shard range; ``workers // replication`` ranges are
    #: carved, each served by R distinct worker processes.
    replication: int = 1
    worker_timeout_ms: float = 2000.0
    hedge_quantile: float = 0.95
    hedge: bool = True
    heartbeat_interval: float = 1.0
    miss_limit: int = 3
    restart_backoff: float = 0.5
    restart_backoff_cap: float = 10.0
    #: Embed the primary writer: ``/add`` accepted, epochs bump live.
    writable: bool = False
    #: Writer seal policy — records threshold (``None`` disables).
    seal_every_records: int | None = 64
    #: Writer seal policy — dirty-age threshold, seconds (``None`` off).
    seal_interval_s: float | None = 15.0
    #: Writer ingest kernel: ``"fast-update"`` or ``"fold-in"``.
    ingest_method: str = "fast-update"
    #: Residual sketch rank for the fast-update kernel.
    fast_update_rank: int = 8
    #: ANN cells per sealed checkpoint: ``None`` auto, ``0`` disables.
    ann_clusters: int | None = None
    #: Checkpoints retained by the writer (>= 3 under a cluster).
    retain: int = 3
    #: Run a warm standby writer: tail checkpoints + WAL read-only and
    #: adopt the store lock (promote to primary) when it frees.
    standby: bool = False
    #: Standby poll cadence, seconds (epoch tail + lock probe).
    standby_poll_s: float = 0.5
    #: JSONL file recording the standby's promotion timeline events.
    promotion_log: str | None = None


class ClusterService:
    """Scatter-gather backend over one checkpoint, many processes."""

    def __init__(
        self,
        data_dir: pathlib.Path,
        config: ClusterConfig | None = None,
        *,
        host: str = "127.0.0.1",
        announce: Callable[[str], None] | None = None,
        tenant: str | None = None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.config = config or ClusterConfig()
        #: The tenant this fleet serves (``None`` for single-tenant).
        #: Rides every scatter frame and the worker spawn command, so a
        #: worker of tenant A structurally cannot answer tenant B.
        self.tenant = tenant

        from repro.store.durable import STORE_LAYOUT

        # Refuse impossible topologies before any process is spawned or
        # store lock taken (ReplicaPlan.compute re-validates later, but
        # by then a writable primary would already hold the flock).
        if self.config.replication < 1:
            raise ClusterConfigError(
                f"replication factor must be >= 1, got "
                f"{self.config.replication}"
            )
        if self.config.replication > self.config.workers:
            raise ClusterConfigError(
                f"replication {self.config.replication} exceeds the "
                f"worker budget: every shard range needs "
                f"{self.config.replication} distinct workers but only "
                f"{self.config.workers} were requested — raise --workers "
                f"to at least {self.config.replication} or lower "
                f"--replication"
            )
        if self.config.writable and self.config.standby:
            raise ClusterConfigError(
                "--writable and --standby are mutually exclusive: a "
                "standby must *not* hold the store lock until it "
                "promotes — run the primary with --writable and the "
                "standby with --standby"
            )

        # In writable mode the primary opens (locks) the store *first*
        # and seals — so the handle pinned below already serves every
        # WAL-acknowledged document and records the writer's ingest
        # configuration in its manifest.
        self.primary = None
        if self.config.writable:
            from repro.cluster.primary import PrimaryWriter

            self.primary = PrimaryWriter(self.data_dir, self._writer_config())

        checkpoints = self.data_dir / STORE_LAYOUT["checkpoints"]
        info, problems = latest_valid_checkpoint(checkpoints)
        if info is None:
            detail = f" ({'; '.join(problems)})" if problems else ""
            raise StoreError(
                f"no valid checkpoint under {checkpoints}{detail}"
            )
        # The handle memory-maps the checkpoint model for projection (U,
        # Σ, vocabulary); each worker maps the same .npy files itself —
        # the page cache is shared.  ``execute`` snapshots this reference
        # at entry; ``publish_handle`` replaces it atomically on bump.
        self._handle = handle_for_checkpoint(
            info.path,
            info.manifest.get("meta", {}),
            self.config.workers,
            replication=self.config.replication,
        )
        self.router = ClusterRouter(
            self.plan,
            RouterConfig(
                worker_timeout_ms=self.config.worker_timeout_ms,
                hedge_quantile=self.config.hedge_quantile,
                hedge=self.config.hedge,
            ),
            tenant=tenant,
        )
        self.supervisor = ClusterSupervisor(
            self.data_dir,
            self.plan,
            self.router,
            SupervisorConfig(
                heartbeat_interval=self.config.heartbeat_interval,
                miss_limit=self.config.miss_limit,
                backoff_base=self.config.restart_backoff,
                backoff_cap=self.config.restart_backoff_cap,
            ),
            host=host,
            announce=announce,
            tenant=tenant,
        )
        self.router.on_worker_dead = self.supervisor.notify_worker_dead

        # The warm standby never touches the store at construction: it
        # starts tailing (and probing the lock) only once the cluster
        # runs, and installs itself as ``self.primary`` on promotion.
        self.standby = None
        if self.config.standby:
            from repro.cluster.standby import StandbyConfig, StandbyWriter

            self.standby = StandbyWriter(
                self.data_dir,
                StandbyConfig(
                    poll_seconds=self.config.standby_poll_s,
                    promotion_log=self.config.promotion_log,
                    writer=self._writer_config(),
                ),
            )

        self._started = False
        self._start_lock = asyncio.Lock()

    def _writer_config(self):
        """The primary's (or promoted standby's) seal/ingest policy."""
        from repro.cluster.primary import WriterConfig

        return WriterConfig(
            seal_every_records=self.config.seal_every_records,
            seal_interval_s=self.config.seal_interval_s,
            ingest_method=self.config.ingest_method,
            fast_update_rank=self.config.fast_update_rank,
            ann_clusters=self.config.ann_clusters,
            retain=self.config.retain,
        )

    # ------------------------------------------------------------------ #
    # The serving epoch: every per-epoch attribute reads through one
    # reference, replaced atomically by ``publish_handle`` — the
    # multi-process analogue of ``EpochSnapshot.swap``.
    # ------------------------------------------------------------------ #
    @property
    def handle(self) -> EpochHandle:
        """The currently-published epoch (snapshot this, then use it)."""
        return self._handle

    @property
    def epoch(self) -> int:
        return self._handle.epoch

    @property
    def checkpoint(self) -> str:
        return self._handle.checkpoint

    @property
    def model(self):
        return self._handle.model

    @property
    def ann(self) -> bool:
        return self._handle.ann

    @property
    def plan(self):
        return self._handle.plan

    def publish_handle(self, handle: EpochHandle) -> None:
        """Swap the serving epoch (writer-only; last step of a bump).

        One reference assignment: requests that already snapshotted the
        old handle finish against it — the workers still hold that
        epoch's state as *previous* — while every later request scatters
        with the new plan.
        """
        self._handle = handle
        registry.set_gauge("cluster.epoch", handle.epoch)
        registry.set_gauge("cluster.n_documents", handle.n_documents)

    async def propagate_handle(
        self, handle: EpochHandle, *, bump_timeout: float = 30.0
    ) -> bool:
        """Push a new epoch to the workers; publish only on quorum.

        The bump sequence: point future restarts at the new plan, bump
        every live worker, record the acks — then *publish* only if a
        quorum (``replication // 2 + 1``) of every range's replicas now
        serves the new epoch.  Returns False (leaving the old handle
        serving) when quorum is not met; the caller retries on its poll
        loop — laggards ack on re-bump, dead workers restart directly
        onto the new plan, and quorum converges.
        """
        self.supervisor.update_plan(handle.plan)
        acked = await self.router.broadcast_bump(
            handle.plan, timeout=bump_timeout
        )
        for worker_id, epoch in acked.items():
            self.supervisor.note_epoch(worker_id, epoch)
        if not self.supervisor.quorum_met(handle.plan):
            registry.inc("cluster.bump_quorum_misses_total")
            return False
        self.publish_handle(handle)
        return True

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn and attach every worker (idempotent; concurrent callers
        wait for the one spawn)."""
        if self._started:
            return
        async with self._start_lock:
            if self._started:
                return
            with span("cluster.start", workers=self.plan.n_workers):
                await self.supervisor.start()
            if self.primary is not None:
                await self.primary.start(self)
            if self.standby is not None:
                await self.standby.start(self)
            self._started = True

    async def drain(self) -> None:
        """Graceful shutdown: stop the writer, SIGTERM workers."""
        if self.standby is not None:
            await self.standby.stop(flush=True)
        if self.primary is not None:
            await self.primary.stop(flush=True)
        await self.supervisor.drain()
        self._started = False

    # ------------------------------------------------------------------ #
    def _scale(self, Q: np.ndarray, model=None) -> np.ndarray:
        """``Q Σ`` — exactly ``DocumentIndex.prepare_queries`` in scaled
        mode, applied router-side so every worker scores identical bytes."""
        s = (model if model is not None else self.model).s
        return np.atleast_2d(np.asarray(Q, dtype=np.float64)) * s

    async def execute(
        self,
        query,
        *,
        top: int | None = None,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
    ) -> tuple[dict, dict]:
        """One ranked search through one scatter (the front end's entry).

        Returns ``(response, evidence)``: the JSON response (never an
        exception on worker death — degraded answers carry
        ``partial=True`` and the unscored ``[lo, hi)`` ranges) and the
        per-shard timings, hedges and misses for the slow-query log.
        """
        # One epoch per request: project, scatter, and label against the
        # same handle even if the writer publishes a bump mid-flight.
        handle = self._handle
        qhat = project_query(handle.model, query)
        result = await self.router.search_batch(
            self._scale(qhat, handle.model),
            plan=handle.plan,
            top=top,
            threshold=threshold,
            timeout_ms=timeout_ms,
            probes=probes,
            exact=exact,
        )
        doc_ids = handle.model.doc_ids
        missing = [list(pair) for pair in result.missing]
        response = {
            "epoch": result.epoch,
            "n_documents": handle.n_documents,
            "partial": result.partial,
            "missing": missing,
            "results": [
                [i, score, doc_ids[i]] for i, score in result.results[0]
            ],
        }
        evidence = {
            "partial": result.partial,
            "missing": missing,
            "shard_timings": {
                str(sid): ms for sid, ms in sorted(result.shard_timings.items())
            },
            "hedged": result.hedged,
            "deadline_missed": result.deadline_missed,
        }
        return response, evidence

    async def search(self, query, **options) -> dict:
        """:meth:`execute`'s response alone — direct and un-admitted
        (tests and benchmarks; HTTP traffic goes through the front end)."""
        response, _ = await self.execute(query, **options)
        return response

    async def search_many(
        self,
        queries: Sequence[str] | np.ndarray,
        *,
        top: int | None = 10,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
    ) -> ClusterResult:
        """A whole batch through one scatter (bench/parity entry point).

        ``queries`` may be raw texts or an already-projected ``(q, k)``
        array — the same convention as ``sharded_batch_search``, whose
        output this is element-identical to when all workers are live.
        """
        handle = self._handle
        if isinstance(queries, np.ndarray):
            Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        else:
            from repro.parallel.batch import batch_project_queries

            Q = batch_project_queries(handle.model, queries)
        return await self.router.search_batch(
            self._scale(Q, handle.model),
            plan=handle.plan,
            top=top,
            threshold=threshold,
            timeout_ms=timeout_ms,
            probes=probes,
            exact=exact,
        )

    async def add(self, texts, doc_ids=None) -> dict:
        """Ingest through the primary writer, or refuse read-only.

        Writable: returns once the batch is WAL-fsynced (``durable``);
        the documents become searchable at the next seal/bump, which
        the response's ``epoch`` (the acknowledging WAL LSN) and the
        healthz ``writer.lag_records`` let callers track.  Read-only:
        raises the typed :class:`ClusterReadOnlyError` the HTTP layer
        maps to 403, request id attached server-side.
        """
        if self.primary is None:
            if self.standby is not None:
                raise ClusterReadOnlyError(
                    "standby has not adopted the store yet: the primary "
                    "still holds the writer lock — send writes there "
                    "until promotion"
                )
            raise ClusterReadOnlyError(
                "cluster serving is read-only: restart with "
                "--writable to ingest here, or write through the "
                "store's single writer (repro serve --data-dir) and "
                "restart the cluster to pick up the new checkpoint"
            )
        return await self.primary.add_texts(texts, doc_ids)

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """The fleet's ``/healthz`` block: worker table (with per-worker
        checkpoint epoch), live count, degradation, and the writer block
        — enabled flag, WAL position, and ``lag_records`` (acknowledged
        but not yet sealed/remapped) when the cluster is writable."""
        handle = self._handle
        workers = self.supervisor.describe()
        ranges = self.supervisor.describe_ranges()
        live = sum(1 for w in workers if w["state"] == "up")
        # Health is per *range*: one dead replica of a still-covered
        # range is not degradation — the router fails reads over to its
        # siblings.  Only a range with zero healthy replicas (which at
        # replication 1 is any dead worker) degrades the cluster.
        uncovered = sum(1 for r in ranges if r["replicas_healthy"] == 0)
        if self.supervisor.draining:
            status = "draining"
        elif uncovered > 0:
            status = "degraded"
        else:
            status = "ok"
        if self.primary is None:
            writer = {"enabled": False}
        else:
            writer = self.primary.describe(handle.epoch)
        payload = {
            "status": status,
            "draining": self.supervisor.draining,
            "epoch": handle.epoch,
            "checkpoint": handle.checkpoint,
            "n_documents": handle.n_documents,
            "n_shards": handle.plan.n_shards,
            "replication": handle.plan.replication,
            "n_workers": handle.plan.n_workers,
            "workers_live": live,
            "workers": workers,
            "ranges": ranges,
            "writer": writer,
            "ann": handle.ann,
        }
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if self.standby is not None:
            payload["standby"] = self.standby.describe()
        return payload

    async def fetch_stats(self) -> dict[int, dict]:
        """Every live worker's registry snapshot, keyed by worker id."""
        return await self.router.fetch_stats()

    async def fetch_trace(self, trace_id: str) -> dict[int, list[dict]]:
        """Every live worker's spans for ``trace_id``, keyed by worker id."""
        return await self.router.fetch_trace(trace_id)
