"""Index registry: named tenants, lazy mmap attach, LRU detach.

The registry owns the ``tenant_id -> backend`` map every serving path
resolves through; a backend is a
:class:`~repro.server.state.ServingState` or a cluster fleet
(:class:`~repro.cluster.service.ClusterService`).  Three registration
flavours:

* an **eager state** (``state=``) — already built, never evicted (there
  is no loader to come back through);
* a **data directory** (``data_dir=``) — attached lazily on first
  resolve via the store's crash-safe read-only mmap open
  (:func:`~repro.store.mmap_io.open_latest_model`), which takes no lock
  and reflects the last sealed checkpoint;
* a **custom loader** (``loader=``) — any zero-argument callable
  returning a backend (``repro cluster serve --tenants`` uses this to
  spawn a tenant's read-only worker fleet on demand).

Lazily registered tenants are read-only by construction, so
:meth:`IndexRegistry.check_writable` refuses a write to one from its
registration alone — without attaching it.

With ``max_resident`` set, attaching a tenant past the cap detaches the
least-recently-used evictable one — but never under in-flight queries:
callers pin a tenant for the lifetime of each request
(:meth:`IndexRegistry.pin`), and a pinned tenant's detach is deferred
until its pin count drains to zero, mirroring the two-epoch retain
pattern the cluster workers use for epoch swaps.  A deferred-detach
tenant that gets resolved again before draining simply stays resident
(the bound is enforced eagerly at attach time, best-effort under
drain).

Per-tenant projected-query cache partitions fall out of construction:
each lazily attached tenant gets ``query_cache_size // n_tenants``
cache slots, so one hot tenant cannot evict the others' projections.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import ClusterReadOnlyError, ReproError, UnknownTenantError
from repro.obs.metrics import registry as metrics
from repro.server.state import ServingState

__all__ = ["DEFAULT_TENANT", "IndexRegistry", "TenantEntry"]

DEFAULT_TENANT = "default"


class TenantEntry:
    """Book-keeping for one registered tenant (internal to the registry)."""

    __slots__ = (
        "tenant_id",
        "data_dir",
        "loader",
        "state",
        "evictable",
        "pins",
        "last_used",
        "evict_pending",
        "attaches",
    )

    def __init__(
        self,
        tenant_id: str,
        *,
        data_dir: Path | None,
        loader: Callable[[], ServingState] | None,
        state: ServingState | None,
    ):
        self.tenant_id = tenant_id
        self.data_dir = data_dir
        self.loader = loader
        self.state = state
        # An eagerly supplied state has no loader to re-attach through,
        # so it must stay resident for the registry's lifetime.
        self.evictable = state is None
        self.pins = 0
        self.last_used = 0
        self.evict_pending = False
        self.attaches = 0

    @property
    def resident(self) -> bool:
        return self.state is not None


class IndexRegistry:
    """Owns N named tenants and resolves every request to one of them.

    Thread-safe: the asyncio serving path touches it from the event
    loop, ``/add`` from executor threads, and detach hooks from
    whichever thread dropped the last pin.
    """

    def __init__(
        self,
        *,
        max_resident: int | None = None,
        query_cache_size: int = 256,
    ):
        if max_resident is not None and max_resident < 1:
            raise ReproError("max_resident must be >= 1")
        self._max_resident = max_resident
        self._query_cache_size = query_cache_size
        self._entries: dict[str, TenantEntry] = {}
        self._lock = threading.RLock()
        self._clock = 0  # logical LRU clock; monotonic under the lock
        self._detach_hooks: list = []

    # ------------------------------------------------------------------ #
    @classmethod
    def single(cls, state: ServingState) -> "IndexRegistry":
        """A one-tenant registry wrapping an existing state.

        The back-compat construction: ``QueryService(state, ...)`` wraps
        its state this way, so single-tenant serving is the
        ``tenant=None`` special case of the multi-tenant path.
        """
        reg = cls()
        reg.register(DEFAULT_TENANT, state=state)
        return reg

    def register(
        self,
        tenant_id: str,
        *,
        data_dir: str | Path | None = None,
        loader: Callable[[], ServingState] | None = None,
        state: ServingState | None = None,
    ) -> None:
        """Register one tenant; exactly one attach source must be given.

        ``data_dir`` alongside a ``loader`` is allowed — the loader is
        the attach source and the directory is descriptive (shown in
        ``describe()``).
        """
        if not tenant_id or not isinstance(tenant_id, str):
            raise ReproError("tenant id must be a non-empty string")
        if state is not None and (data_dir is not None or loader is not None):
            raise ReproError(
                f"tenant {tenant_id!r}: an eager state excludes data_dir/"
                "loader"
            )
        if state is None and loader is None and data_dir is None:
            raise ReproError(
                f"tenant {tenant_id!r} needs one of data_dir, loader, or "
                "state"
            )
        with self._lock:
            if tenant_id in self._entries:
                raise ReproError(f"tenant {tenant_id!r} already registered")
            self._entries[tenant_id] = TenantEntry(
                tenant_id,
                data_dir=Path(data_dir) if data_dir is not None else None,
                loader=loader,
                state=state,
            )
            metrics.set_gauge(
                "tenants.registered", float(len(self._entries))
            )
            if state is not None:
                self._note_attach(self._entries[tenant_id])

    @property
    def tenant_ids(self) -> list[str]:
        """Registered tenant ids, registration order."""
        with self._lock:
            return list(self._entries)

    @property
    def max_resident(self) -> int | None:
        """The resident-set cap, or ``None`` for unbounded."""
        return self._max_resident

    def add_detach_hook(self, hook) -> None:
        """Register ``hook(tenant_id, state)`` to run at actual detach.

        Runs after the state is unlinked from the entry (under the
        registry lock) — the service layer uses it to retire the
        tenant's backend (stop its micro-batcher, or drain its fleet).
        By the drain discipline the tenant has zero in-flight queries at
        this point.
        """
        self._detach_hooks.append(hook)

    # ------------------------------------------------------------------ #
    def _entry(self, tenant_id: str | None) -> TenantEntry:
        """Resolve an id (or ``None``) to its entry, or raise typed 404."""
        if tenant_id is None:
            if DEFAULT_TENANT in self._entries:
                return self._entries[DEFAULT_TENANT]
            if len(self._entries) == 1:
                return next(iter(self._entries.values()))
            raise UnknownTenantError(
                "request names no tenant and the server hosts "
                f"{len(self._entries)}; pass X-Tenant or a 'tenant' field",
                tenant=None,
            )
        entry = self._entries.get(tenant_id)
        if entry is None:
            raise UnknownTenantError(
                f"unknown tenant {tenant_id!r}", tenant=tenant_id
            )
        return entry

    def _default_loader(self, entry: TenantEntry) -> ServingState:
        """Crash-safe read-only attach from the tenant's data directory."""
        path = entry.data_dir
        assert path is not None
        share = max(
            1, self._query_cache_size // max(1, len(self._entries))
        )
        if path.is_file():
            # A saved ``.npz`` model file, not a durable store.
            from repro.core.persistence import load_model

            return ServingState.for_model(
                load_model(path), query_cache_size=share
            )
        from repro.store.mmap_io import open_latest_ann, open_latest_model

        model = open_latest_model(path)
        ann = open_latest_ann(path)
        return ServingState.for_model(
            model, ann=ann, query_cache_size=share
        )

    def _note_attach(self, entry: TenantEntry) -> None:
        self._clock += 1
        entry.last_used = self._clock
        entry.attaches += 1
        metrics.inc(f"tenant.{entry.tenant_id}.attaches_total")
        metrics.set_gauge(f"tenant.{entry.tenant_id}.resident", 1.0)
        metrics.set_gauge(
            "tenants.resident", float(self._resident_count())
        )

    def _resident_count(self) -> int:
        return sum(1 for e in self._entries.values() if e.resident)

    def _attach_locked(self, entry: TenantEntry) -> None:
        loader = entry.loader or (lambda: self._default_loader(entry))
        entry.state = loader()
        entry.evict_pending = False
        self._note_attach(entry)
        self._enforce_cap(exclude=entry)

    def _enforce_cap(self, *, exclude: TenantEntry) -> None:
        """Detach (or mark for deferred detach) LRU tenants over the cap."""
        if self._max_resident is None:
            return
        while True:
            resident = [
                e
                for e in self._entries.values()
                if e.resident
                and e.evictable
                and not e.evict_pending
                and e is not exclude
            ]
            if self._resident_count() <= self._max_resident or not resident:
                return
            victim = min(resident, key=lambda e: e.last_used)
            if victim.pins > 0:
                # In-flight queries hold the snapshot; defer like the
                # workers' two-epoch retain — detach when pins drain.
                victim.evict_pending = True
                metrics.inc(f"tenant.{victim.tenant_id}.evict_deferred_total")
            else:
                self._detach_locked(victim)

    def _detach_locked(self, entry: TenantEntry) -> None:
        state = entry.state
        entry.state = None
        entry.evict_pending = False
        metrics.inc(f"tenant.{entry.tenant_id}.detaches_total")
        metrics.set_gauge(f"tenant.{entry.tenant_id}.resident", 0.0)
        metrics.set_gauge(
            "tenants.resident", float(self._resident_count())
        )
        for hook in self._detach_hooks:
            hook(entry.tenant_id, state)

    # ------------------------------------------------------------------ #
    def resolve(
        self, tenant_id: str | None = None
    ) -> tuple[str, ServingState]:
        """``(tenant_id, state)`` for a request, attaching if cold.

        ``None`` resolves to the ``default`` tenant if registered, else
        the sole registered tenant, else raises
        :class:`~repro.errors.UnknownTenantError` (ambiguous).  Unknown
        ids raise the same typed error.  Touches the LRU clock and, if
        the tenant was marked for deferred eviction, rescinds the mark —
        it is hot again.
        """
        with self._lock:
            entry = self._entry(tenant_id)
            if not entry.resident:
                self._attach_locked(entry)
            else:
                self._clock += 1
                entry.last_used = self._clock
                entry.evict_pending = False
            return entry.tenant_id, entry.state

    @contextlib.contextmanager
    def pin(
        self, tenant_id: str | None = None
    ) -> Iterator[tuple[str, ServingState]]:
        """Resolve and pin a tenant for the duration of one request.

        While pinned the tenant cannot be detached; an eviction decision
        taken meanwhile is deferred and executes when the last pin
        drops.  The serving paths hold the pin across the full await of
        the micro-batched future, so "detach only after in-flight
        queries drain" holds by construction.
        """
        with self._lock:
            tid, state = self.resolve(tenant_id)
            self._entries[tid].pins += 1
        try:
            yield tid, state
        finally:
            with self._lock:
                entry = self._entries[tid]
                entry.pins -= 1
                if entry.evict_pending and entry.pins == 0:
                    self._detach_locked(entry)

    def check_writable(self, tenant_id: str | None) -> None:
        """Refuse a write to a lazily registered tenant, without attaching.

        Attaching just to refuse would cost an mmap open or a whole
        worker fleet, and could LRU-evict a hot tenant.  A data-directory
        tenant refuses like a saved model (``ReproError``, HTTP 400), a
        custom-loader (fleet) tenant like a read-only cluster
        (``ClusterReadOnlyError``, 403).  Eager tenants pass.
        """
        with self._lock:
            entry = self._entry(tenant_id)
        if not entry.evictable:
            return
        if entry.loader is None:
            raise ReproError(
                f"tenant {entry.tenant_id!r} is read-only: it serves the "
                f"last sealed checkpoint of {entry.data_dir}; write "
                "through that store's own writer"
            )
        raise ClusterReadOnlyError(
            f"tenant {entry.tenant_id!r} is a read-only fleet: write "
            "through its store's single writer and restart the cluster "
            "to pick up the new checkpoint"
        )

    def detach(self, tenant_id: str) -> bool:
        """Explicitly detach one tenant (deferred if pinned).

        Returns ``True`` if the detach happened now, ``False`` if it was
        deferred behind in-flight pins or the tenant was not resident.
        Eager (unevictable) tenants raise.
        """
        with self._lock:
            entry = self._entry(tenant_id)
            if not entry.evictable:
                raise ReproError(
                    f"tenant {tenant_id!r} was registered with an eager "
                    "state and cannot be detached"
                )
            if not entry.resident:
                return False
            if entry.pins > 0:
                entry.evict_pending = True
                return False
            self._detach_locked(entry)
            return True

    def resident_states(self) -> dict[str, ServingState]:
        """``tenant_id -> state`` for resident tenants only (no attach)."""
        with self._lock:
            return {
                tid: e.state
                for tid, e in self._entries.items()
                if e.resident
            }

    def describe(self) -> dict:
        """Per-tenant status map for ``/tenants`` and ``healthz``.

        A resident :class:`ServingState` reports through its current
        snapshot, a resident cluster fleet through its published epoch
        handle.
        """
        with self._lock:
            out = {}
            for tid, entry in self._entries.items():
                info = {
                    "resident": entry.resident,
                    "evictable": entry.evictable,
                    "pins": entry.pins,
                    "attaches": entry.attaches,
                    "evict_pending": entry.evict_pending,
                }
                if entry.data_dir is not None:
                    info["data_dir"] = str(entry.data_dir)
                if isinstance(entry.state, ServingState):
                    snap = entry.state.current()
                    info["epoch"] = snap.epoch
                    info["n_documents"] = snap.n_documents
                    info["writable"] = entry.state.writable
                elif entry.resident:
                    info["epoch"] = entry.state.handle.epoch
                    info["n_documents"] = entry.state.handle.n_documents
                if entry.resident:
                    metrics.set_gauge(
                        f"tenant.{tid}.epoch", float(info["epoch"])
                    )
                out[tid] = info
            return out
