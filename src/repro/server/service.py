"""The query front end: tenant pin → admission and quotas → backend.

:class:`QueryService` is the one transport-independent front end — the
HTTP server (:mod:`repro.server.http`), the benchmarks, and the
integration tests all drive it, for single-process and cluster serving
alike.  Tenants resolve through an
:class:`~repro.tenancy.registry.IndexRegistry`; a bare backend is
wrapped in a one-tenant registry, so single-tenant serving is the
``tenant=None`` special case of the same path.  A tenant's backend is
either a local :class:`~repro.server.state.ServingState`, scored through
the tenant's :class:`~repro.server.batching.MicroBatcher` (concurrent
queries coalesce into one GEMM, element-identical to
``LSIRetrieval.search``), or a :class:`~repro.cluster.service.
ClusterService` fleet, answered by one direct scatter per request
(element-identical to ``sharded_batch_search``).

Every request is pinned to its tenant (lazily attaching a cold one),
admitted against the global bounded queue *and* the tenant's quota
share (fast 429 on overload, ``reason="tenant_quota"`` for a hot
tenant), then executed on the backend.  :meth:`QueryService.drain`
flips the admission latch (new work → 503), flushes queued requests,
drains every fleet (SIGTERM + reap), and waits for backends retired by
LRU detach.  One slow-query log, one federated ``/metrics``, one
``/trace`` assembly; every stage reports ``server.*`` and per-tenant
``tenant.<id>.*`` metrics through :data:`repro.obs.metrics.registry`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Sequence

from repro.obs.aggregate import label_snapshots
from repro.obs.export import SCHEMA
from repro.obs.metrics import registry
from repro.obs.prom import render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace_context import current_trace
from repro.obs.tracing import recent_spans, spans_for_trace
from repro.server.admission import AdmissionController
from repro.server.batching import MicroBatcher, SearchRequest
from repro.server.state import ServingState
from repro.tenancy.quotas import TenantQuotas
from repro.tenancy.registry import IndexRegistry

__all__ = ["ServerConfig", "QueryService"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one service instance (CLI flags map 1:1 onto these).

    ``max_wait_ms`` is the batching window: how long the scheduler holds
    an open batch hoping for more requests.  Larger windows mean larger
    batches (better GEMM amortization), at the cost of adding up to the
    window to an isolated request's latency.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_depth: int = 256
    shards: int = 1
    workers: int | None = None
    default_timeout_ms: float | None = None
    query_cache_size: int = 256
    #: Default probe count for requests that don't specify one.  ``None``
    #: keeps the exact exhaustive scan as the default; requests opt into
    #: the ANN path with ``probes``, or force exactness with ``exact``.
    default_probes: int | None = None
    #: Slow-query log threshold (milliseconds); <= 0 disables the log.
    slow_ms: float = 500.0
    #: JSONL file for slow-query records (``None`` keeps them in-memory).
    slowlog_path: str | None = None
    #: Bound on retained slow-query records (memory and on-disk).
    slowlog_max_records: int = 256


class QueryService:
    """Admission-controlled query front end over N tenant backends."""

    def __init__(self, backend, config: ServerConfig | None = None):
        """``backend``: a :class:`ServingState`, a cluster fleet, or an
        :class:`IndexRegistry` whose loaders return either."""
        if isinstance(backend, IndexRegistry):
            self.registry = backend
        else:
            self.registry = IndexRegistry.single(backend)
        self.config = config or ServerConfig()
        self.admission = AdmissionController(self.config.queue_depth)
        self.quotas = TenantQuotas(self.config.queue_depth)
        self.quotas.ensure(self.registry.tenant_ids)
        self.slowlog = SlowQueryLog(
            self.config.slowlog_path,
            threshold_ms=self.config.slow_ms,
            max_records=self.config.slowlog_max_records,
        )
        #: One scheduler per resident local tenant, created on first query.
        self._batchers: dict[str, MicroBatcher] = {}
        #: Retirements of LRU-detached backends still running; held here
        #: so none is garbage-collected mid-flight, and awaited by drain.
        self._retiring: set[asyncio.Task] = set()
        self._add_lock = asyncio.Lock()
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self.registry.add_detach_hook(self._on_detach)

    # ------------------------------------------------------------------ #
    @property
    def state(self):
        """The default tenant's backend (single-tenant back-compat)."""
        return self.registry.resolve(None)[1]

    @property
    def multi_tenant(self) -> bool:
        """Whether the registry hosts more than one tenant."""
        return len(self.registry.tenant_ids) > 1

    def _fleets(self) -> list[tuple[str, object]]:
        """``(tenant_id, fleet)`` for every resident cluster backend."""
        return [
            (tid, backend)
            for tid, backend in sorted(self.registry.resident_states().items())
            if not isinstance(backend, ServingState)
        ]

    def _batcher_for(self, tenant_id: str, state: ServingState) -> MicroBatcher:
        """The tenant's scheduler, created (and started) on demand."""
        batcher = self._batchers.get(tenant_id)
        if batcher is None or batcher.state is not state:
            # New tenant, or the tenant was detached and re-attached with
            # a fresh state (the old batcher died with the old state).
            batcher = MicroBatcher(
                state,
                max_batch=self.config.max_batch,
                max_wait_ms=self.config.max_wait_ms,
                shards=self.config.shards,
                workers=self.config.workers,
            )
            self._batchers[tenant_id] = batcher
            if self._started:
                batcher.start()
        return batcher

    def _on_detach(self, tenant_id: str, backend) -> None:
        """Registry detach hook: stop the evicted tenant's batcher, or
        drain its fleet (SIGTERM + reap).  Detach happens only at zero
        pins, so neither drops an in-flight query."""
        if isinstance(backend, ServingState):
            batcher = self._batchers.pop(tenant_id, None)
            if batcher is None:
                return
            retire = batcher.stop
        else:
            retire = backend.drain
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def spawn() -> None:
            task = loop.create_task(retire())
            self._retiring.add(task)
            task.add_done_callback(self._retiring.discard)

        try:
            on_loop = asyncio.get_running_loop() is loop
        except RuntimeError:  # called from a thread outside the loop
            on_loop = False
        if on_loop:
            spawn()
        else:
            loop.call_soon_threadsafe(spawn)

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the schedulers and spawn resident fleets (idempotent)."""
        if not self._started:
            self._loop = asyncio.get_running_loop()
            for batcher in self._batchers.values():
                batcher.start()
            for _tid, fleet in self._fleets():
                await fleet.start()
            self._started = True
            registry.set_gauge("server.draining", 0.0)

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish queued work, stop."""
        self.admission.begin_drain()
        for batcher in list(self._batchers.values()):
            await batcher.drain()
        for batcher in list(self._batchers.values()):
            await batcher.stop()
        for _tid, fleet in self._fleets():
            await fleet.drain()
        # A fleet evicted just before shutdown is still being reaped;
        # returning now would leave its worker processes behind.
        await asyncio.gather(*list(self._retiring), return_exceptions=True)
        self._started = False

    # ------------------------------------------------------------------ #
    async def search(
        self,
        query,
        *,
        top: int | None = None,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
        tenant: str | None = None,
    ) -> dict:
        """One ranked search on the tenant's backend.

        ``tenant=None`` means the default/sole tenant; an unknown id
        raises :class:`~repro.errors.UnknownTenantError` before any
        admission work.  The pin holds until the response resolves, so
        an LRU eviction decided mid-flight waits for this query.
        ``probes`` falls back to ``config.default_probes``, then to the
        exact scan; ``exact=True`` overrides any default.  Raises
        :class:`~repro.errors.ServerOverloadError` (queue full, tenant
        over quota, draining) and, on a local backend,
        :class:`~repro.errors.DeadlineExceededError` (a fleet answers
        ``partial`` without the late shards instead).
        """
        registry.inc("server.requests_total")
        with self.registry.pin(tenant) as (tid, backend):
            self.quotas.ensure(self.registry.tenant_ids)
            self.admission.admit()
            try:
                self.quotas.admit(tid)
            except BaseException:
                self.admission.release()
                raise
            t0 = time.perf_counter()
            try:
                if timeout_ms is None:
                    timeout_ms = self.config.default_timeout_ms
                effective_probes = (
                    probes if probes is not None
                    else self.config.default_probes
                )
                evidence = None
                if isinstance(backend, ServingState):
                    request = SearchRequest(
                        query=query,
                        top=top,
                        threshold=threshold,
                        probes=effective_probes,
                        exact=exact,
                        deadline=AdmissionController.deadline_from(
                            timeout_ms
                        ),
                        trace=current_trace(),
                        future=asyncio.get_running_loop().create_future(),
                    )
                    self._batcher_for(tid, backend).submit(request)
                    result = await request.future
                else:
                    await backend.start()
                    result, evidence = await backend.execute(
                        query,
                        top=top,
                        threshold=threshold,
                        timeout_ms=timeout_ms,
                        probes=effective_probes,
                        exact=exact,
                    )
                if tenant is not None or self.multi_tenant:
                    result["tenant"] = tid
                self._record_slow(
                    time.perf_counter() - t0,
                    top=top,
                    probes=probes,
                    tenant=tid,
                    evidence=evidence,
                )
                return result
            finally:
                self.quotas.release(tid)
                self.admission.release()
                registry.observe(
                    "server.request_seconds", time.perf_counter() - t0
                )

    def _record_slow(
        self,
        elapsed_s: float,
        *,
        top: int | None,
        probes: int | None,
        tenant: str,
        evidence: dict | None = None,
    ) -> None:
        """Dump an over-threshold request's trace evidence to the slow
        log, with the backend's ``evidence`` (a fleet's per-shard
        timings, hedges, deadline misses, and missing ranges)."""
        if not self.slowlog.is_slow(elapsed_s):
            return
        registry.inc("server.slow_queries_total")
        ctx = current_trace()
        trace_id = ctx.trace_id if ctx is not None else None
        entry = {
            "ts": time.time(),
            "trace_id": trace_id,
            "duration_ms": elapsed_s * 1000.0,
            "top": top,
            "probes": probes,
            "queue_depth": self.admission.pending,
            "tenant": tenant,
            **(evidence or {}),
        }
        if trace_id is not None:
            # The spans this process captured for the trace; a fleet's
            # worker spans stay fetchable via /trace.
            entry["spans"] = [
                s.to_dict() for s in spans_for_trace(trace_id)
            ]
        self.slowlog.record(entry)

    async def add(
        self,
        texts: Sequence[str],
        doc_ids: Sequence[str] | None = None,
        *,
        tenant: str | None = None,
    ) -> dict:
        """Add documents live; returns the new epoch (or a fleet's WAL ack).

        Local updates are serialized and run on an executor thread;
        readers never wait — in-flight batches finish against their
        pinned epoch.  A fleet hands the batch to its primary writer or
        refuses it (HTTP 403).  Lazily attached tenants are read-only,
        so a write to one is refused before anything attaches.
        """
        registry.inc("server.adds_total")
        t0 = time.perf_counter()
        self.registry.check_writable(tenant)
        with self.registry.pin(tenant) as (_tid, backend):
            if isinstance(backend, ServingState):
                async with self._add_lock:
                    loop = asyncio.get_running_loop()
                    result = await loop.run_in_executor(
                        None, backend.add_texts, list(texts), doc_ids
                    )
            else:
                result = await backend.add(texts, doc_ids)
        registry.observe("server.add_seconds", time.perf_counter() - t0)
        return result

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Liveness/readiness summary for ``/healthz``: the sole
        backend's fields at top level (a fleet's worker table, ranges and
        writer block included), or the tenant table plus each resident
        fleet's block under ``fleets``."""
        # Resolve first: a lazily registered sole tenant attaches here.
        sole = None if self.multi_tenant else self.registry.resolve(None)
        fleets = {tid: fleet.describe() for tid, fleet in self._fleets()}
        if self.admission.draining:
            status = "draining"
        elif any(f["status"] == "degraded" for f in fleets.values()):
            status = "degraded"
        else:
            status = "ok"
        base = {
            "status": status,
            "draining": self.admission.draining,
            "queue_depth": self.admission.pending,
            "queue_capacity": self.admission.queue_depth,
            "default_probes": self.config.default_probes,
            "slowlog": self.slowlog.describe(),
        }
        if sole is None:
            base["tenants"] = self.registry.describe()
            base["max_resident"] = self.registry.max_resident
            base["fleets"] = fleets
            return base
        tid, backend = sole
        if tid in fleets:
            return {**fleets[tid], **base}
        snapshot = backend.current()
        base.update(
            {
                "epoch": snapshot.epoch,
                "n_documents": snapshot.n_documents,
                "writable": backend.writable,
                "ann": snapshot.ann is not None,
            }
        )
        return base

    def tenants(self) -> dict:
        """Registry + quota status for ``/tenants``."""
        return {
            "tenants": self.registry.describe(),
            "max_resident": self.registry.max_resident,
            "quotas": self.quotas.describe(),
        }

    def stats(self) -> dict:
        """The observability snapshot for ``/stats`` (obs-export schema)."""
        return {
            "schema": SCHEMA,
            "server": self.healthz(),
            "metrics": registry.snapshot(),
            "spans": [s.to_dict() for s in recent_spans(50)],
            "slow_queries": self.slowlog.recent(20),
        }

    async def metrics(self) -> dict:
        """Flat ``{counters, gauges, histograms}`` for ``/metrics``: this
        process's registry plus every resident fleet's live workers under
        ``shard.<sid>.`` (``tenant.<id>.shard.<sid>.`` with several
        tenants)."""
        merged = registry.snapshot()
        for tid, fleet in self._fleets():
            prefix = f"tenant.{tid}.shard." if self.multi_tenant else "shard."
            merged = label_snapshots(
                merged, await fleet.fetch_stats(), prefix=prefix
            )
        return merged

    async def metrics_prom(self) -> str:
        """Prometheus text for ``/metrics?format=prom``: this process as
        ``worker="server"`` (``"router"`` while it fronts resident
        fleets), each fleet worker as ``worker="<sid>"`` (plus
        ``tenant`` with several tenants)."""
        fleets = self._fleets()
        series = [
            ({"worker": "router" if fleets else "server"}, registry.snapshot())
        ]
        for tid, fleet in fleets:
            snaps = await fleet.fetch_stats()
            for sid in sorted(snaps):
                labels = {"worker": str(sid)}
                if self.multi_tenant:
                    labels["tenant"] = tid
                series.append((labels, snaps[sid]))
        return render_prometheus(series)

    async def trace(self, trace_id: str) -> dict:
        """One request's spans for ``/trace?id=``, time-sorted across
        this process and every resident fleet's workers (tagged ``<sid>``,
        or ``<tenant>:<sid>`` with several tenants)."""
        fleets = self._fleets()
        spans = [s.to_dict() for s in spans_for_trace(trace_id)]
        for record in spans:
            record["worker"] = "router" if fleets else "server"
        workers: list[str] = []
        for tid, fleet in fleets:
            remote = await fleet.fetch_trace(trace_id)
            for sid, records in sorted(remote.items()):
                label = f"{tid}:{sid}" if self.multi_tenant else str(sid)
                workers.append(label)
                for record in records:
                    record["worker"] = label
                spans.extend(records)
        spans.sort(key=lambda r: float(r.get("start", 0.0)))
        return {"trace_id": trace_id, "workers": workers, "spans": spans}
