"""Integration tests: real worker subprocesses under ClusterService.

One store is seeded per module; the cluster test drives the full
lifecycle — spawn, exact parity, SIGKILL → partial degradation,
supervisor restart → recovered parity, drain — in a single pass,
because each phase is the next one's precondition.  The CLI-level
equivalent (HTTP front end, ``repro cluster serve`` subprocess) lives
in ``benchmarks/cluster_smoke.py``.
"""

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster.plan import ShardPlan
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.worker import run_worker
from repro.parallel.sharding import sharded_batch_search
from repro.errors import ServerOverloadError
from repro.server import ServerClient, start_http_server
from repro.server.service import QueryService, ServerConfig
from repro.server.state import manager_from_texts
from repro.store.durable import DurableIndexStore
from repro.store.mmap_io import open_latest_model

SHARDS = 2
TOP = 6


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(41)]
    ids = [f"D{i}" for i in range(len(texts))]
    data_dir = tmp_path_factory.mktemp("cluster_store") / "store"
    store = DurableIndexStore.initialize(data_dir, manager_from_texts(texts, ids, k=10))
    store.close(flush=False)
    return data_dir, texts


def _pairs(result_rows):
    return [(int(i), float(s)) for i, s in result_rows]


def test_cluster_lifecycle_parity_kill_recover_drain(seeded_store):
    data_dir, texts = seeded_store
    model = open_latest_model(data_dir)
    queries = texts[:4]
    flat = sharded_batch_search(model, queries, top=TOP, shards=SHARDS)

    async def main():
        service = ClusterService(
            data_dir,
            ClusterConfig(
                workers=SHARDS,
                heartbeat_interval=0.2,
                restart_backoff=1.0,  # wide enough to observe the gap
                restart_backoff_cap=1.0,
            ),
        )
        await service.start()
        try:
            # Phase 1: all live → element-identical to the flat search.
            health = service.describe()
            assert health["status"] == "ok"
            assert health["workers_live"] == SHARDS
            result = await service.search_many(queries, top=TOP)
            assert result.partial is False
            assert result.results == flat

            # The per-request HTTP path agrees too.  A single query takes
            # the q=1 GEMV kernel path, so compare against a q=1 flat
            # search — row 0 of the 4-query GEMM may differ by an ulp.
            flat_single = sharded_batch_search(
                model, [queries[0]], top=TOP, shards=SHARDS
            )[0]
            single = await service.search(queries[0], top=TOP)
            assert single["partial"] is False
            assert _pairs(
                [(i, s) for i, s, _ in single["results"]]
            ) == flat_single
            doc_ids = [d for _, _, d in single["results"]]
            assert doc_ids == [model.doc_ids[i] for i, _ in flat_single]

            # Phase 2: SIGKILL one worker → partial with its exact range.
            victim = 1
            pid = service.supervisor.describe()[victim]["pid"]
            os.kill(pid, signal.SIGKILL)
            lo, hi = service.plan.shard(victim).as_pair()
            deadline = time.monotonic() + 15
            degraded = None
            while time.monotonic() < deadline:
                candidate = await service.search_many(queries, top=TOP)
                if candidate.partial:
                    degraded = candidate
                    break
                await asyncio.sleep(0.05)
            assert degraded is not None, "never observed a partial response"
            assert degraded.missing == [(lo, hi)]
            full = sharded_batch_search(
                model, queries, top=model.n_documents, shards=SHARDS
            )
            for qi, merged in enumerate(degraded.results):
                survivors = [p for p in full[qi] if not lo <= p[0] < hi]
                assert merged == survivors[:TOP]
            assert service.describe()["status"] == "degraded"

            # Phase 3: the supervisor restarts it → full parity again.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.describe()["workers_live"] == SHARDS:
                    break
                await asyncio.sleep(0.1)
            assert service.describe()["workers_live"] == SHARDS
            restored = await service.search_many(queries, top=TOP)
            assert restored.partial is False
            assert restored.results == flat
            assert service.supervisor.describe()[victim]["restarts"] == 1
        finally:
            # Phase 4: drain stops every worker process.
            await service.drain()
        for row in service.supervisor.describe():
            assert row["state"] == "draining"
        assert service.describe()["draining"] is True

    asyncio.run(main())


def test_cluster_add_refused(seeded_store):
    data_dir, _ = seeded_store
    from repro.errors import ReproError

    async def main():
        service = ClusterService(data_dir, ClusterConfig(workers=SHARDS))
        # add() is refused before any worker even exists.
        with pytest.raises(ReproError, match="read-only"):
            await service.add(["new doc"])

    asyncio.run(main())


# --------------------------------------------------------------------- #
# observability tier: federated stats, distributed trace, slow-query log
# --------------------------------------------------------------------- #
def test_cluster_observability_trace_metrics_slowlog(
    seeded_store, tmp_path, monkeypatch
):
    data_dir, texts = seeded_store
    from repro import obs
    from repro.obs.trace_context import TraceContext, trace_scope

    # Worker processes inherit the injected delay, so every scatter is
    # genuinely slow — the slow-query log must catch it with per-shard
    # evidence rather than needing a microscopic threshold.
    monkeypatch.setenv("REPRO_WORKER_INJECT_DELAY_MS", "40")
    slowlog_path = tmp_path / "slow.jsonl"
    prev = obs.enable_tracing(True)
    obs.clear_spans()

    async def main():
        # The slow-query log, /metrics federation and /trace assembly
        # live on the front end, with the fleet as its backend.
        fleet = ClusterService(data_dir, ClusterConfig(workers=SHARDS))
        service = QueryService(
            fleet,
            ServerConfig(slow_ms=10.0, slowlog_path=str(slowlog_path)),
        )
        await service.start()
        try:
            with trace_scope(TraceContext(trace_id="cluster-trace-1")):
                response = await service.search(texts[0], top=TOP)
            assert response["partial"] is False

            # stats wire op: every live worker ships its registry.
            worker_snaps = await fleet.router.fetch_stats()
            assert sorted(worker_snaps) == list(range(SHARDS))
            for snap in worker_snaps.values():
                # The score span feeds the worker's latency histogram.
                assert snap["histograms"]["cluster.worker.score"]["count"] >= 1

            # Federated JSON keeps the flat shape, workers prefixed.
            metrics = await service.metrics()
            assert set(metrics) == {"counters", "gauges", "histograms"}
            for sid in range(SHARDS):
                assert (
                    f"shard.{sid}.cluster.worker.score"
                    in metrics["histograms"]
                )

            # Prometheus exposition: per-worker labels, one TYPE/family.
            text = await service.metrics_prom()
            assert 'worker="router"' in text
            for sid in range(SHARDS):
                assert f'worker="{sid}"' in text
            type_lines = [
                line for line in text.splitlines()
                if line.startswith("# TYPE ")
            ]
            assert len(type_lines) == len(set(type_lines))

            # One reassembled distributed trace: the router's scatter
            # span plus each worker's score span, all sharing the
            # ingress trace id, workers hanging under the scatter.
            trace = await service.trace("cluster-trace-1")
            assert trace["trace_id"] == "cluster-trace-1"
            assert trace["workers"] == [str(s) for s in range(SHARDS)]
            by_name = {}
            for record in trace["spans"]:
                by_name.setdefault(record["name"], []).append(record)
            (scatter,) = by_name["cluster.scatter"]
            assert scatter["worker"] == "router"
            assert scatter["trace_id"] == "cluster-trace-1"
            score_spans = by_name["cluster.worker.score"]
            assert {s["worker"] for s in score_spans} == {
                str(s) for s in range(SHARDS)
            }
            for record in score_spans:
                assert record["trace_id"] == "cluster-trace-1"
                assert record["parent_id"] == scatter["span_id"]
                assert record["duration"] >= 0.030  # injected delay

            # Slow-query log: per-shard timings and trace evidence.
            slow = service.slowlog.recent()
            assert slow, "40ms injected delay must cross the 10ms bar"
            entry = slow[-1]
            assert entry["trace_id"] == "cluster-trace-1"
            assert entry["duration_ms"] >= 30.0
            assert sorted(entry["shard_timings"]) == [
                str(s) for s in range(SHARDS)
            ]
            for ms in entry["shard_timings"].values():
                assert ms >= 30.0
            assert service.stats()["slow_queries"]
            assert service.healthz()["slowlog"]["records"] >= 1
        finally:
            await service.drain()

    try:
        asyncio.run(main())
        assert slowlog_path.exists()
        lines = slowlog_path.read_text().strip().splitlines()
        assert lines and '"cluster-trace-1"' in lines[-1]
    finally:
        obs.enable_tracing(prev)
        obs.clear_spans()


# --------------------------------------------------------------------- #
# admission: a single-tenant cluster front end sheds load with a 429
# --------------------------------------------------------------------- #
def test_single_tenant_cluster_front_end_returns_typed_429(
    seeded_store, monkeypatch
):
    data_dir, texts = seeded_store
    model = open_latest_model(data_dir)
    query = texts[0]
    expected = sharded_batch_search(model, [query], top=TOP, shards=SHARDS)[0]
    # Slow workers keep the one admitted scatter in flight while the
    # rest of the burst arrives at the one-deep queue.
    monkeypatch.setenv("REPRO_WORKER_INJECT_DELAY_MS", "300")
    ready = threading.Event()
    box: dict = {}

    async def serve():
        service = QueryService(
            ClusterService(data_dir, ClusterConfig(workers=SHARDS)),
            ServerConfig(queue_depth=1),
        )
        server = await start_http_server(service, "127.0.0.1", 0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = stop = asyncio.Event()
        ready.set()
        await stop.wait()
        server.close()
        await server.wait_closed()
        await service.drain()

    thread = threading.Thread(target=lambda: asyncio.run(serve()))
    thread.start()
    try:
        assert ready.wait(60), "cluster front end failed to start"
        served, rejected = [], []

        def one() -> None:
            with ServerClient(port=box["port"], timeout=30) as client:
                try:
                    served.append(client.search(query, top=TOP))
                except ServerOverloadError as exc:
                    rejected.append(exc)

        burst = [threading.Thread(target=one) for _ in range(6)]
        for t in burst:
            t.start()
        for t in burst:
            t.join()
        assert rejected, "a 6-request burst must overflow a 1-deep queue"
        assert all(e.reason == "queue_full" for e in rejected)
        assert all(e.request_id for e in rejected)
        assert served
        for response in served:
            assert response["partial"] is False
            assert _pairs(
                [(i, s) for i, s, _ in response["results"]]
            ) == expected
    finally:
        if "loop" in box:
            box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(60)
    assert not thread.is_alive(), "cluster front end failed to drain"


# --------------------------------------------------------------------- #
# worker entry point: plan-skew refusal (no sockets, no subprocesses)
# --------------------------------------------------------------------- #
def test_run_worker_refuses_plan_skew(seeded_store, capsys):
    data_dir, _ = seeded_store
    model = open_latest_model(data_dir)

    # Wrong epoch stamp.
    plan = ShardPlan.compute(model.n_documents, 2, epoch=99)
    assert run_worker(data_dir, plan.to_json(), 0) == 1
    assert "epoch" in capsys.readouterr().err

    # Wrong checkpoint stamp.
    plan = ShardPlan.compute(
        model.n_documents, 2, epoch=0, checkpoint="ckpt-99999999"
    )
    assert run_worker(data_dir, plan.to_json(), 0) == 1
    assert "checkpoint" in capsys.readouterr().err

    # Wrong document count.
    plan = ShardPlan.compute(model.n_documents + 5, 2, epoch=0)
    assert run_worker(data_dir, plan.to_json(), 0) == 1
    assert "documents" in capsys.readouterr().err

    # Non-canonical plan bytes.
    plan = ShardPlan.compute(model.n_documents, 2, epoch=0)
    assert run_worker(data_dir, plan.to_json() + " ", 0) == 1
    assert "canonical" in capsys.readouterr().err
