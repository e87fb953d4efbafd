"""Tests for multi-tenant serving (repro.tenancy).

The contracts under test:

* **Registry semantics** — ``tenant=None`` resolves the default (or
  sole) tenant, unknown ids raise the typed
  :class:`~repro.errors.UnknownTenantError`, cold tenants attach
  lazily, and ``max_resident`` LRU-detaches — deferred while pinned;
* **Transparency** — an evicting registry is element-identical to one
  that never evicts, across random attach/evict/query interleavings
  (hypothesis), because detach never loses state a loader can't
  rebuild and never fires under a pin;
* **Isolation** — a saturated tenant draws per-tenant 429s
  (``reason="tenant_quota"``) while a cold tenant's latency stays
  bounded, and per-tenant query caches are partitioned;
* **Transport** — tenant routing end to end over HTTP: ``X-Tenant`` /
  ``tenant`` field, 404 with ``unknown_tenant`` + request id on the
  client, per-tenant 429 reason on the client, ``/tenants``;
* **CLI** — ``serve --tenant NAME=PATH`` wiring and the per-tenant
  ``repro stats --data-dir A --data-dir B`` table.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.med import MED_TOPICS
from repro.errors import (
    ClusterReadOnlyError,
    ReproError,
    ServerOverloadError,
    UnknownTenantError,
)
from repro.retrieval import LSIRetrieval
from repro.server import (
    MicroBatcher,
    QueryService,
    ServerClient,
    ServerConfig,
    ServingState,
    start_http_server,
    state_from_texts,
)
from repro.tenancy import DEFAULT_TENANT, IndexRegistry, TenantQuotas

# Three disjoint mini-corpora so cross-tenant routing bugs cannot hide:
# a query against the wrong tenant's index ranks different documents.
TENANT_TEXTS = {
    "alpha": [MED_TOPICS[f"M{i}"] for i in range(1, 7)],
    "beta": [MED_TOPICS[f"M{i}"] for i in range(7, 13)],
    "gamma": [
        "renal blood flow in anesthetized dogs",
        "heart rate and oxygen uptake during exercise",
        "growth hormone in fasting children",
        "spectral analysis of heart rate variability",
        "blood pressure response to postural change",
        "oxygen saturation during sleep apnea episodes",
    ],
}
TENANT_QUERIES = {
    "alpha": "blood pressure age",
    "beta": "cell growth culture",
    "gamma": "heart rate oxygen",
}


def _build_state(tid: str) -> ServingState:
    # Deterministic (seeded) build: re-attaching a tenant after an LRU
    # detach reconstructs the identical model, which the transparency
    # property below relies on.
    return state_from_texts(
        TENANT_TEXTS[tid], k=3, scheme="log_entropy", distortion_budget=0.5
    )


def _loader(tid: str):
    return lambda: _build_state(tid)


def _registry(tenants=("alpha", "beta", "gamma"), **kwargs) -> IndexRegistry:
    reg = IndexRegistry(**kwargs)
    for tid in tenants:
        reg.register(tid, loader=_loader(tid))
    return reg


def _search(reg: IndexRegistry, tid: str) -> list[tuple[int, float]]:
    with reg.pin(tid) as (resolved, state):
        assert resolved == tid
        engine = LSIRetrieval(state.current().model)
        return engine.search(TENANT_QUERIES[tid], top=5)


# --------------------------------------------------------------------- #
# registry resolution semantics
# --------------------------------------------------------------------- #
def test_single_registry_resolves_none_to_default():
    reg = IndexRegistry.single(_build_state("alpha"))
    tid, state = reg.resolve(None)
    assert tid == DEFAULT_TENANT
    assert state.current().n_documents == len(TENANT_TEXTS["alpha"])
    # The sole tenant also resolves when named explicitly.
    assert reg.resolve(DEFAULT_TENANT)[0] == DEFAULT_TENANT


def test_sole_non_default_tenant_resolves_none():
    reg = _registry(tenants=("alpha",))
    assert reg.resolve(None)[0] == "alpha"


def test_unknown_tenant_is_typed_lookup_error():
    reg = _registry()
    with pytest.raises(UnknownTenantError) as excinfo:
        reg.resolve("nobody")
    assert excinfo.value.tenant == "nobody"
    assert isinstance(excinfo.value, LookupError)
    assert isinstance(excinfo.value, ReproError)
    # No default tenant + several registered: None is ambiguous.
    with pytest.raises(UnknownTenantError) as excinfo:
        reg.resolve(None)
    assert excinfo.value.tenant is None


def test_register_validates_sources():
    reg = IndexRegistry()
    with pytest.raises(ReproError, match="needs one of"):
        reg.register("a")
    with pytest.raises(ReproError, match="non-empty string"):
        reg.register("")
    reg.register("a", loader=_loader("alpha"))
    with pytest.raises(ReproError, match="already registered"):
        reg.register("a", loader=_loader("alpha"))
    with pytest.raises(ReproError, match="excludes"):
        reg.register("b", state=_build_state("beta"), loader=_loader("beta"))


# --------------------------------------------------------------------- #
# lazy attach, LRU detach, pin-deferred eviction
# --------------------------------------------------------------------- #
def test_lazy_attach_and_lru_detach_under_cap():
    detached: list[str] = []
    reg = _registry(max_resident=1)
    reg.add_detach_hook(lambda tid, state: detached.append(tid))
    assert reg.resident_states() == {}

    _search(reg, "alpha")
    assert list(reg.resident_states()) == ["alpha"]
    _search(reg, "beta")  # over the cap: alpha is the LRU victim
    assert list(reg.resident_states()) == ["beta"]
    assert detached == ["alpha"]
    # Re-attach counts are visible in describe().
    _search(reg, "alpha")
    assert reg.describe()["alpha"]["attaches"] == 2
    assert detached == ["alpha", "beta"]


def test_detach_deferred_while_pinned():
    detached: list[str] = []
    reg = _registry(max_resident=1)
    reg.add_detach_hook(lambda tid, state: detached.append(tid))
    with reg.pin("alpha"):
        # Attaching beta marks alpha evict-pending but must not detach
        # it under the in-flight pin.
        reg.resolve("beta")
        assert detached == []
        assert reg.describe()["alpha"]["evict_pending"] is True
        assert reg.describe()["alpha"]["resident"] is True
    # Pin dropped → the deferred detach fires.
    assert detached == ["alpha"]
    assert list(reg.resident_states()) == ["beta"]


def test_resolve_rescinds_pending_eviction():
    reg = _registry(max_resident=1)
    with reg.pin("alpha"):
        reg.resolve("beta")  # alpha now evict-pending
        reg.resolve("alpha")  # hot again: the mark is rescinded
    assert reg.describe()["alpha"]["resident"] is True


def test_explicit_detach_and_eager_states():
    reg = IndexRegistry()
    reg.register("eager", state=_build_state("alpha"))
    reg.register("lazy", loader=_loader("beta"))
    with pytest.raises(ReproError, match="cannot be detached"):
        reg.detach("eager")
    assert reg.detach("lazy") is False  # not resident yet
    reg.resolve("lazy")
    assert reg.detach("lazy") is True
    assert reg.describe()["lazy"]["resident"] is False


def test_query_cache_partitioned_per_tenant(tmp_path):
    """Lazily attached tenants split the projected-query cache evenly."""
    from repro.core.persistence import save_model

    reg = IndexRegistry(query_cache_size=64)
    for tid in ("alpha", "beta", "gamma"):
        path = tmp_path / f"{tid}.npz"
        save_model(_build_state(tid).current().model, path)
        reg.register(tid, data_dir=path)
    for tid in ("alpha", "beta", "gamma"):
        _, state = reg.resolve(tid)
        assert state.current().query_cache.maxsize == 64 // 3


# --------------------------------------------------------------------- #
# transparency: evicting registry ≡ never-evicting registry
# --------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(sorted(TENANT_TEXTS)),
            st.sampled_from(["query", "detach"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_evicting_registry_element_identical_to_resident(ops):
    evicting = _registry(max_resident=1)
    resident = _registry()  # never evicts: the reference
    for tid in TENANT_TEXTS:
        resident.resolve(tid)
    for tid, op in ops:
        if op == "detach":
            evicting.detach(tid)
        else:
            assert _search(evicting, tid) == _search(resident, tid), (
                tid,
                op,
            )
        # The bound holds after every step (no pins are outstanding).
        assert len(evicting.resident_states()) <= 1


# --------------------------------------------------------------------- #
# per-tenant quotas
# --------------------------------------------------------------------- #
def test_quota_share_and_rejection():
    quotas = TenantQuotas(8)
    quotas.ensure(["a", "b"])
    assert quotas.share == 4
    for _ in range(4):
        quotas.admit("a")
    with pytest.raises(ServerOverloadError) as excinfo:
        quotas.admit("a")
    assert excinfo.value.reason == "tenant_quota"
    quotas.admit("b")  # the other tenant's share is untouched
    quotas.release("a")
    quotas.admit("a")  # released slot is reusable
    # A single tenant's share equals the global depth (invisible layer).
    solo = TenantQuotas(8)
    solo.ensure(["only"])
    assert solo.share == 8


def test_quota_starvation_cold_tenant_latency_bounded(monkeypatch):
    """A saturated hot tenant cannot starve a cold tenant's requests."""
    original = MicroBatcher._score_batch

    def slow(self, snapshot, batch):
        time.sleep(0.05)
        return original(self, snapshot, batch)

    monkeypatch.setattr(MicroBatcher, "_score_batch", slow)

    reg = IndexRegistry()
    reg.register("hot", state=_build_state("alpha"))
    reg.register("cold", state=_build_state("beta"))

    async def main():
        service = QueryService(
            reg, ServerConfig(max_batch=1, max_wait_ms=0.0, queue_depth=4)
        )
        await service.start()
        hot = [
            asyncio.ensure_future(
                service.search(TENANT_QUERIES["alpha"], top=2, tenant="hot")
            )
            for _ in range(12)
        ]
        await asyncio.sleep(0)  # every hot request reaches admission
        t0 = time.perf_counter()
        cold = await service.search(
            TENANT_QUERIES["beta"], top=2, tenant="cold"
        )
        cold_seconds = time.perf_counter() - t0
        hot_results = await asyncio.gather(*hot, return_exceptions=True)
        await service.drain()
        return cold, cold_seconds, hot_results

    cold, cold_seconds, hot_results = asyncio.run(main())
    assert cold["tenant"] == "cold"
    assert cold["results"]
    rejected = [
        r for r in hot_results if isinstance(r, ServerOverloadError)
    ]
    served = [r for r in hot_results if isinstance(r, dict)]
    # share = queue_depth // 2 = 2: the flood saturates it immediately.
    assert len(served) == 2
    assert len(rejected) == 10
    assert all(r.reason == "tenant_quota" for r in rejected)
    # The cold tenant rode its own batcher + quota share: one slow
    # batch (50ms), not the hot tenant's backlog.
    assert cold_seconds < 2.0


# --------------------------------------------------------------------- #
# backends retired by LRU detach; writes to cold tenants
# --------------------------------------------------------------------- #
class _FakeFleet:
    """The cluster-fleet surface the front end drives, in-process."""

    def __init__(self, tid: str, log: list[str], *, drain_s: float = 0.0):
        self.tid = tid
        self.log = log
        self.drain_s = drain_s

    async def start(self) -> None:
        pass

    async def execute(self, query, **kwargs):
        return {"results": [], "partial": False, "missing": []}, {}

    async def add(self, texts, doc_ids=None):
        raise AssertionError("a cold fleet must be refused before attach")

    def describe(self) -> dict:
        return {"status": "ok", "tenant": self.tid}

    async def drain(self) -> None:
        await asyncio.sleep(self.drain_s)
        self.log.append(self.tid)


def test_drain_awaits_backends_retired_by_lru_detach():
    """An evicted fleet's drain (its worker reap) finishes before the
    front end's drain returns, even when eviction came just before."""
    drained: list[str] = []
    reg = IndexRegistry(max_resident=1)
    # Only the evicted fleet is slow to drain, so the resident fleet's
    # drain cannot cover for a missing wait on the evicted one.
    for tid, drain_s in (("a", 0.3), ("b", 0.0)):
        reg.register(
            tid,
            loader=lambda tid=tid, d=drain_s: _FakeFleet(
                tid, drained, drain_s=d
            ),
        )

    async def main():
        service = QueryService(reg, ServerConfig())
        await service.start()
        await service.search("x", tenant="a")
        await service.search("x", tenant="b")  # evicts a: drain starts
        assert list(reg.resident_states()) == ["b"]
        assert drained == []  # a's drain is still sleeping
        await service.drain()
        return service

    service = asyncio.run(main())
    assert sorted(drained) == ["a", "b"]
    assert not service._retiring


def test_add_to_cold_tenant_refused_without_attaching(tmp_path):
    """/add to a lazily registered tenant is refused from registration
    alone: nothing attaches, so the hot tenant is not LRU-evicted."""
    reg = IndexRegistry(max_resident=1)
    for tid, texts in (("hot", "alpha"), ("cold", "beta")):
        reg.register(
            tid, data_dir=_seed_store(tmp_path, tid, TENANT_TEXTS[texts])
        )
    with _ServerThread(reg, ServerConfig(max_wait_ms=1.0)) as server:
        client = ServerClient(port=server.port)
        assert client.search(TENANT_QUERIES["alpha"], top=1, tenant="hot")
        with pytest.raises(ReproError, match="read-only") as excinfo:
            client.add(["a new document"], tenant="cold")
        # A local mmap tenant refuses like any saved model: 400, not 403.
        assert not isinstance(excinfo.value, ClusterReadOnlyError)
        rows = client.tenants()["tenants"]
        assert rows["hot"]["resident"] is True
        assert rows["cold"]["resident"] is False
        assert rows["cold"]["attaches"] == 0

    # A fleet tenant (custom loader) refuses with the typed 403 and never
    # spawns its fleet.
    spawned: list[str] = []
    fleets = IndexRegistry(max_resident=1)
    for tid in ("hot", "cold"):
        fleets.register(
            tid,
            loader=lambda tid=tid: spawned.append(tid)
            or _FakeFleet(tid, []),
        )

    async def main():
        service = QueryService(fleets, ServerConfig())
        await service.start()
        await service.search("x", tenant="hot")
        with pytest.raises(ClusterReadOnlyError):
            await service.add(["a new document"], tenant="cold")
        await service.drain()

    asyncio.run(main())
    assert spawned == ["hot"]
    assert list(fleets.resident_states()) == ["hot"]


# --------------------------------------------------------------------- #
# HTTP transport end to end
# --------------------------------------------------------------------- #
class _ServerThread:
    """Run a (possibly multi-tenant) service on a private loop."""

    def __init__(self, source, config: ServerConfig):
        self.source = source
        self.config = config
        self.port: int | None = None
        self.service: QueryService | None = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            service = self.service = QueryService(self.source, self.config)
            server = await start_http_server(service, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
            server.close()
            await server.wait_closed()
            await service.drain()

        asyncio.run(main())

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=30), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server failed to drain"


def test_http_tenant_routing_end_to_end():
    reg = _registry(tenants=("alpha", "beta"))
    engines = {
        tid: LSIRetrieval(_build_state(tid).current().model)
        for tid in ("alpha", "beta")
    }
    with _ServerThread(reg, ServerConfig(max_wait_ms=1.0)) as server:
        client = ServerClient(port=server.port)

        # /tenants before any query: registered but cold.
        info = client.tenants()
        assert set(info["tenants"]) == {"alpha", "beta"}
        assert not any(r["resident"] for r in info["tenants"].values())

        # Per-call tenant routing: each response is element-identical
        # to that tenant's own engine and stamped with the tenant id.
        for tid in ("alpha", "beta"):
            data = client.search(TENANT_QUERIES[tid], top=3, tenant=tid)
            assert data["tenant"] == tid
            got = [(int(j), float(s)) for j, s, _ in data["results"]]
            want = engines[tid].search(TENANT_QUERIES[tid], top=3)
            assert [j for j, _ in got] == [j for j, _ in want]
            assert np.allclose(
                [c for _, c in got], [c for _, c in want], atol=1e-12
            )

        # A client-default tenant rides X-Tenant on every request.
        with ServerClient(port=server.port, tenant="beta") as bound:
            assert bound.search("growth", top=1)["tenant"] == "beta"

        # The body field overrides the header (checked via raw payload).
        data = client._request(
            "POST", "/search",
            {"query": "growth", "top": 1, "tenant": "alpha"},
            tenant="beta",
        )
        assert data["tenant"] == "alpha"

        # Unknown tenant → typed 404 carrying the request id.
        with pytest.raises(UnknownTenantError) as excinfo:
            client.search("x", top=1, tenant="ghost", request_id="rid-404")
        assert excinfo.value.tenant == "ghost"
        assert excinfo.value.request_id == "rid-404"
        # Ambiguous (no tenant named, none is "default") → same error.
        with pytest.raises(UnknownTenantError):
            client.search("x", top=1)

        # Per-tenant 429: pre-occupy alpha's whole share, then watch
        # the typed reason surface on the client while beta still runs.
        service = server.service
        service.quotas.ensure(service.registry.tenant_ids)
        for _ in range(service.quotas.share):
            service.quotas.admit("alpha")
        try:
            with pytest.raises(ServerOverloadError) as excinfo:
                client.search("x", top=1, tenant="alpha")
            assert excinfo.value.reason == "tenant_quota"
            assert excinfo.value.request_id
            assert client.search("growth", top=1, tenant="beta")["results"]
        finally:
            for _ in range(service.quotas.share):
                service.quotas.release("alpha")

        # /healthz grows a tenants block in multi-tenant mode.
        health = client.healthz()
        assert set(health["tenants"]) == {"alpha", "beta"}


def test_http_single_tenant_shape_unchanged():
    """Single-tenant responses keep their exact legacy shape."""
    state = _build_state("alpha")
    with _ServerThread(state, ServerConfig(max_wait_ms=1.0)) as server:
        client = ServerClient(port=server.port)
        data = client.search(TENANT_QUERIES["alpha"], top=2)
        assert "tenant" not in data
        health = client.healthz()
        assert "tenants" not in health
        # Naming the default tenant explicitly works and is echoed.
        data = client.search(
            TENANT_QUERIES["alpha"], top=2, tenant=DEFAULT_TENANT
        )
        assert data["tenant"] == DEFAULT_TENANT


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #
def test_cli_parses_tenant_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--tenant", "a=/tmp/a.npz", "--tenant", "b=/tmp/b",
         "--max-resident", "2"]
    )
    assert args.tenants == ["a=/tmp/a.npz", "b=/tmp/b"]
    assert args.max_resident == 2
    args = build_parser().parse_args(
        ["cluster", "serve", "--tenants", "t.json", "--queue-depth", "64"]
    )
    assert args.data_dir is None and args.queue_depth == 64
    args = build_parser().parse_args(
        ["cluster", "worker", "--data-dir", "d", "--shard", "0",
         "--plan", "{}", "--tenant", "acme"]
    )
    assert args.tenant == "acme"


def test_cli_tenant_spec_validation():
    import pathlib

    from repro.cli import _parse_tenant_specs

    assert _parse_tenant_specs(["a=/x", "b=/y"]) == {
        "a": pathlib.Path("/x"),
        "b": pathlib.Path("/y"),
    }
    with pytest.raises(ReproError, match="NAME=PATH"):
        _parse_tenant_specs(["nodir"])
    with pytest.raises(ReproError, match="duplicate"):
        _parse_tenant_specs(["a=/x", "a=/y"])


def test_cli_cluster_serve_requires_one_source(tmp_path):
    from repro.cli import main as cli_main

    err = io.StringIO()
    # Neither --data-dir nor --tenants.
    assert cli_main(["--no-obs", "cluster", "serve"], out=err) == 1
    # Both at once.
    tenants = tmp_path / "tenants.json"
    tenants.write_text("{}", encoding="utf-8")
    assert (
        cli_main(
            ["--no-obs", "cluster", "serve", "--data-dir", str(tmp_path),
             "--tenants", str(tenants)],
            out=err,
        )
        == 1
    )
    # An empty or malformed map is refused before anything spawns.
    assert (
        cli_main(
            ["--no-obs", "cluster", "serve", "--tenants", str(tenants)],
            out=err,
        )
        == 1
    )
    tenants.write_text("not json", encoding="utf-8")
    assert (
        cli_main(
            ["--no-obs", "cluster", "serve", "--tenants", str(tenants)],
            out=err,
        )
        == 1
    )


def _seed_store(tmp_path, name: str, texts: list[str]):
    from repro.server import manager_from_texts
    from repro.store import DurableIndexStore

    data_dir = tmp_path / name
    ids = [f"{name}-{i}" for i in range(len(texts))]
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=3)
    )
    store.close(flush=False)
    return data_dir


def test_cli_stats_per_tenant_table(tmp_path):
    from repro.cli import main as cli_main

    dir_a = _seed_store(tmp_path, "acme", TENANT_TEXTS["alpha"])
    dir_b = _seed_store(tmp_path, "globex", TENANT_TEXTS["beta"])

    out = io.StringIO()
    code = cli_main(
        ["--no-obs", "stats", "--data-dir", str(dir_a),
         "--data-dir", str(dir_b)],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "tenant" in text and "acme" in text and "globex" in text

    out = io.StringIO()
    code = cli_main(
        ["--no-obs", "stats", "--json", "--data-dir", str(dir_a),
         "--data-dir", str(dir_b)],
        out=out,
    )
    assert code == 0
    blob = json.loads(out.getvalue())
    assert set(blob["tenants"]) == {"acme", "globex"}
    assert (
        blob["tenants"]["acme"]["n_documents"]
        == len(TENANT_TEXTS["alpha"])
    )

    # One --data-dir keeps the merged-snapshot behaviour (store gauges).
    out = io.StringIO()
    code = cli_main(
        ["--no-obs", "stats", "--data-dir", str(dir_a)], out=out
    )
    assert code == 0
    assert "observability state" in out.getvalue()
