"""Replicated shards: placement, failover, quorum, fencing, promotion.

Unit layers first (the deterministic :class:`ReplicaPlan`, the typed
topology refusals, supervisor range health and bump quorum, lock
fencing generations), then the router's replica-set behavior against
in-process fake workers (failover-before-partial, hedging without
double counting, a Hypothesis proof that merge output is invariant to
*which* replica answers), and finally the integrated standby story: a
standby cluster tailing a live store, following its seals, and
adopting/promoting the instant the primary's lock dies — with every
acked record surviving.  The CLI/SIGKILL variants live in
``benchmarks/cluster_smoke.py``.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import ReplicaPlan, as_replica_plan
from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.cluster.wire import (
    _decode_payload,
    encode_frame,
    read_frame,
    unpack_results,
    write_frame,
)
from repro.cluster.worker import ShardWorker
from repro.core.build import fit_lsi
from repro.errors import (
    ClusterConfigError,
    ClusterError,
    ClusterReadOnlyError,
    StoreLockedError,
)
from repro.obs.metrics import registry
from repro.parallel.batch import batch_project_queries
from repro.parallel.sharding import merge_topk, sharded_batch_search
from repro.server.state import manager_from_texts
from repro.store.durable import DurableIndexStore
from repro.store.lock import StoreLock

RANGES = 3
TOP = 7


@pytest.fixture(scope="module")
def replica_model():
    rng = np.random.default_rng(29)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(57)]
    return fit_lsi(texts, 12), texts


def _scaled(model, texts):
    return batch_project_queries(model, texts) * model.s


def _seed_latency(worker_id, seconds, samples=5):
    registry.reset(f"cluster.worker.{worker_id}.rpc_seconds")
    for _ in range(samples):
        registry.observe(f"cluster.worker.{worker_id}.rpc_seconds", seconds)


# --------------------------------------------------------------------- #
# placement: deterministic, canonical, refused on skew
# --------------------------------------------------------------------- #
def test_replica_plan_mapping_and_quorum():
    plan = ReplicaPlan.compute(57, 6, 2)
    assert plan.n_shards == RANGES  # ranges, not processes
    assert plan.n_workers == 6
    assert plan.replication == 2
    assert plan.quorum() == 2
    assert plan.worker_ids() == [0, 1, 2, 3, 4, 5]
    for wid in plan.worker_ids():
        assert plan.range_of(wid) == wid % RANGES
        assert plan.replica_of(wid) == wid // RANGES
    for sid in range(RANGES):
        rset = plan.replica_set(sid)
        assert rset.workers == (sid, sid + RANGES)
        assert len(set(rset.workers)) == rset.replication == 2
        # The data layout is exactly the base shard plan's range.
        assert (rset.lo, rset.hi) == (plan.shard(sid).lo, plan.shard(sid).hi)
    # Majority quorum at odd R.
    assert ReplicaPlan.compute(57, 9, 3).quorum() == 2
    assert ReplicaPlan.compute(57, 5, 5).quorum() == 3


def test_replication_one_worker_ids_equal_shard_ids():
    plan = ReplicaPlan.compute(57, RANGES, 1)
    assert plan.n_workers == plan.n_shards == RANGES
    assert [plan.range_of(w) for w in plan.worker_ids()] == [0, 1, 2]
    assert plan.quorum() == 1
    # Wrapping a bare ShardPlan is the same R=1 special case.
    wrapped = as_replica_plan(ShardPlan.compute(57, RANGES))
    assert wrapped.replication == 1
    assert [r.workers for r in wrapped.replicas] == [(0,), (1,), (2,)]
    # Passthrough: an already-replicated plan is returned as-is.
    assert as_replica_plan(plan) is plan


def test_replica_plan_canonical_json_round_trip():
    a = ReplicaPlan.compute(123, 8, 2, epoch=7, checkpoint="ckpt-00000007")
    b = ReplicaPlan.compute(123, 8, 2, epoch=7, checkpoint="ckpt-00000007")
    assert a.to_json() == b.to_json()  # byte-stable
    parsed = ReplicaPlan.from_json(a.to_json())
    assert parsed == a
    assert parsed.to_json() == a.to_json()


def test_replica_plan_tampered_ranges_refused():
    plan = ReplicaPlan.compute(123, 8, 2)
    data = json.loads(plan.to_json())
    data["shards"][0][1] += 1  # hand-edited range
    with pytest.raises(ClusterError):
        ReplicaPlan.from_json(json.dumps(data))
    data = json.loads(plan.to_json())
    data["format"] = "repro-cluster-replica-plan/999"
    with pytest.raises(ClusterError):
        ReplicaPlan.from_json(json.dumps(data))


def test_impossible_topologies_are_typed_config_errors():
    with pytest.raises(ClusterConfigError):
        ReplicaPlan.compute(57, 2, 3)  # R exceeds the worker budget
    with pytest.raises(ClusterConfigError):
        ReplicaPlan.compute(57, 4, 0)  # R < 1
    # The error is a ValueError (argument validation), not a crash.
    assert issubclass(ClusterConfigError, ValueError)
    with pytest.raises(ClusterConfigError) as excinfo:
        ReplicaPlan.compute(57, 2, 3)
    assert "--workers" in str(excinfo.value)


def test_cluster_service_refuses_topology_before_touching_store(tmp_path):
    # No store exists under tmp_path: a StoreError here would mean the
    # service opened the store before validating the topology.
    with pytest.raises(ClusterConfigError):
        ClusterService(tmp_path, ClusterConfig(workers=2, replication=3))
    with pytest.raises(ClusterConfigError):
        ClusterService(tmp_path, ClusterConfig(workers=2, replication=0))
    with pytest.raises(ClusterConfigError):
        ClusterService(
            tmp_path, ClusterConfig(workers=2, writable=True, standby=True)
        )


# --------------------------------------------------------------------- #
# supervisor: per-range health and the bump quorum test
# --------------------------------------------------------------------- #
def test_supervisor_range_health_and_quorum(tmp_path):
    plan = ReplicaPlan.compute(57, 6, 2, epoch=5)
    sup = ClusterSupervisor(tmp_path, plan, ClusterRouter(plan))
    # Nothing spawned yet: every range exists but nothing is healthy.
    ranges = sup.describe_ranges()
    assert [r["shard"] for r in ranges] == [0, 1, 2]
    assert all(r["replicas_total"] == 2 for r in ranges)
    assert all(r["replicas_healthy"] == 0 for r in ranges)
    assert sup.quorum_met(plan) is False

    for record in sup._records.values():
        record.state = "up"
        record.epoch = 5
    assert all(
        r["replicas_healthy"] == 2 for r in sup.describe_ranges()
    )
    assert sup.quorum_met(plan) is True

    # One replica of range 0 dies: the range stays covered (healthy 1)
    # but a bump cannot publish at R=2 (quorum is 2).
    sup._records[0].state = "down"
    ranges = sup.describe_ranges()
    assert ranges[0]["replicas_healthy"] == 1
    assert ranges[1]["replicas_healthy"] == 2
    assert sup.quorum_met(plan) is False

    # An unresponsive worker (at the heartbeat miss limit) counts as
    # unhealthy even while its process record still says "up".
    sup._records[0].state = "up"
    sup._records[0].missed_heartbeats = sup.config.miss_limit
    assert sup.describe_ranges()[0]["replicas_healthy"] == 1
    assert sup.quorum_met(plan) is False
    rows = {row["worker"]: row for row in sup.describe()}
    assert rows[0]["state"] == "unresponsive"

    # A replica lagging on an old epoch is healthy but not quorate.
    sup._records[0].missed_heartbeats = 0
    sup._records[0].epoch = 4
    assert sup.describe_ranges()[0]["replicas_healthy"] == 2
    assert sup.quorum_met(plan) is False


def test_supervisor_majority_quorum_at_replication_three(tmp_path):
    plan = ReplicaPlan.compute(57, 9, 3, epoch=2)
    sup = ClusterSupervisor(tmp_path, plan, ClusterRouter(plan))
    for record in sup._records.values():
        record.state = "up"
        record.epoch = 2
    # Losing one replica per range still meets the 2-of-3 quorum.
    for sid in range(plan.n_shards):
        sup._records[sid].state = "down"
    assert sup.quorum_met(plan) is True
    # Losing two does not.
    sup._records[plan.n_shards].state = "down"
    assert sup.quorum_met(plan) is False


def test_supervisor_refuses_topology_changes(tmp_path):
    plan = ReplicaPlan.compute(57, 6, 2)
    sup = ClusterSupervisor(tmp_path, plan, ClusterRouter(plan))
    with pytest.raises(ClusterError):
        sup.update_plan(ReplicaPlan.compute(57, 8, 2))  # 4 ranges
    with pytest.raises(ClusterError):
        sup.update_plan(ReplicaPlan.compute(57, 3, 1))  # R changed
    sup.update_plan(ReplicaPlan.compute(60, 6, 2, epoch=9))  # same shape
    assert sup.plan.epoch == 9


# --------------------------------------------------------------------- #
# lock fencing: generations fence a superseded writer
# --------------------------------------------------------------------- #
def test_lock_excludes_and_generation_advances(tmp_path):
    first = StoreLock.acquire(tmp_path)
    with pytest.raises(StoreLockedError):
        StoreLock.acquire(tmp_path)  # held: second acquire refused
    assert first.check() is True
    first.release()
    assert first.check() is False  # released handles are never owners
    second = StoreLock.acquire(tmp_path)
    assert second.generation == first.generation + 1
    assert second.check() is True
    second.release()


def test_lock_parses_prefencing_pid_only_file(tmp_path):
    (tmp_path / "LOCK").write_text("12345\n")  # pre-fencing format
    lock = StoreLock.acquire(tmp_path)
    assert lock.generation == 12346  # monotonic past the old pid
    lock.release()


def test_fenced_store_refuses_to_seal(tmp_path):
    texts = [f"alpha beta gamma d{i}" for i in range(12)]
    store = DurableIndexStore.initialize(
        tmp_path / "s", manager_from_texts(texts, None, k=4)
    )
    try:
        store.add_texts(["delta epsilon zeta"], ["X0"])
        # Forge a takeover: a newer generation lands in the lockfile,
        # as if a standby adopted a store it judged abandoned.
        gen = store._dir_lock.generation
        (tmp_path / "s" / "LOCK").write_text(f"{gen + 1} 99999\n")
        with pytest.raises(StoreLockedError) as excinfo:
            store.seal(reason="test")
        assert "fenced" in str(excinfo.value)
    finally:
        store.close(flush=False)


# --------------------------------------------------------------------- #
# router: replica sets, failover-before-partial, hedging
# --------------------------------------------------------------------- #
class _FakeReplica:
    """One in-loop asyncio frame server around a real ShardWorker.

    ``die_on_score`` aborts the transport on receiving a score frame —
    the router-visible signature of a worker SIGKILLed mid-call."""

    def __init__(self, worker, *, delay=0.0, die_on_score=False):
        self.worker = worker
        self.delay = delay
        self.die_on_score = die_on_score
        self.server = None
        self.port = 0
        self.calls = 0
        self._writers = []

    async def start(self):
        self.server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self):
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        for writer in self._writers:
            writer.transport.abort()
        self._writers.clear()
        await asyncio.sleep(0)

    async def _serve(self, reader, writer):
        self._writers.append(writer)
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    return
                self.calls += 1
                if message.get("op") == "score":
                    if self.die_on_score:
                        writer.transport.abort()
                        return
                    if self.delay:
                        await asyncio.sleep(self.delay)
                response = _decode_payload(
                    encode_frame(self.worker.handle(message))[4:]
                )
                if "id" in message:
                    response["id"] = message["id"]
                await write_frame(writer, response)
        except ConnectionError:
            pass
        finally:
            writer.close()


async def _replicated_cluster(
    model, *, replication=2, config=None, delays=None, die_on_score=()
):
    plan = ReplicaPlan.compute(model.n_documents, RANGES * replication,
                               replication)
    fakes = {}
    for wid in plan.worker_ids():
        fake = _FakeReplica(
            ShardWorker(model, plan.shard(plan.range_of(wid)),
                        replica=plan.replica_of(wid)),
            delay=(delays or {}).get(wid, 0.0),
            die_on_score=wid in die_on_score,
        )
        await fake.start()
        fakes[wid] = fake
    router = ClusterRouter(plan, config or RouterConfig(hedge=False))
    for wid, fake in fakes.items():
        await router.attach(wid, "127.0.0.1", fake.port)
    return plan, router, fakes


async def _teardown(router, fakes):
    await router.close()
    for fake in fakes.values():
        await fake.stop()


def test_router_fails_over_before_going_partial(replica_model):
    model, texts = replica_model
    queries = texts[:3]
    flat = sharded_batch_search(model, queries, top=TOP, shards=RANGES)
    # Pin the power-of-two choice: replica 0 looks fast (so it leads
    # every scatter) but dies mid-call; replica 1 looks slow but lives.
    for wid in range(RANGES):
        _seed_latency(wid, 0.001)
        _seed_latency(wid + RANGES, 0.5)
    failovers_before = registry.counter("cluster.failovers_total")
    reported = []

    async def main():
        plan, router, fakes = await _replicated_cluster(
            model, die_on_score={0, 1, 2}
        )
        router.on_worker_dead = reported.append
        try:
            result = await router.search_batch(
                _scaled(model, queries), top=TOP
            )
            return result, router.live_shards()
        finally:
            await _teardown(router, fakes)

    result, live = asyncio.run(main())
    # Every range's leader died, every range failed over — and the
    # answer is still complete and element-identical to the flat search.
    assert result.partial is False
    assert result.missing == []
    assert result.results == flat
    assert result.failovers == [0, 1, 2]
    assert result.served_by == {0: 3, 1: 4, 2: 5}
    assert registry.counter("cluster.failovers_total") == failovers_before + 3
    assert sorted(reported) == [0, 1, 2]  # dead replicas evicted
    assert live == [3, 4, 5]


def test_router_partial_only_when_every_replica_is_gone(replica_model):
    model, texts = replica_model
    for wid in range(2 * RANGES):
        registry.reset(f"cluster.worker.{wid}.rpc_seconds")

    async def main():
        plan, router, fakes = await _replicated_cluster(model)
        # Both replicas of range 1 die (accepted connections included).
        await fakes[1].stop()
        await fakes[1 + RANGES].stop()
        try:
            result = await router.search_batch(
                _scaled(model, texts[:2]), top=TOP
            )
            return plan, result
        finally:
            await _teardown(router, fakes)

    plan, result = asyncio.run(main())
    assert result.partial is True
    assert result.missing == [tuple(plan.shard(1).as_pair())]
    # Surviving ranges' rows are still exact.
    lo, hi = plan.shard(1).as_pair()
    flat = sharded_batch_search(
        model, texts[:2], top=model.n_documents, shards=RANGES
    )
    for qi, merged in enumerate(result.results):
        assert merged == [p for p in flat[qi] if not lo <= p[0] < hi][:TOP]


def test_router_hedges_to_sibling_without_double_counting(replica_model):
    model, texts = replica_model
    queries = texts[:2]
    flat = sharded_batch_search(model, queries, top=TOP, shards=RANGES)
    # Replica 0's history is fast (leads, and arms an early hedge) but
    # its actual answers stall; replica 1 answers instantly.
    for wid in range(RANGES):
        _seed_latency(wid, 0.01, samples=30)
        _seed_latency(wid + RANGES, 0.5)
    hedges_before = registry.counter("cluster.hedges_total")

    async def main():
        plan, router, fakes = await _replicated_cluster(
            model,
            config=RouterConfig(
                hedge=True,
                hedge_quantile=0.95,
                hedge_min_samples=20,
                worker_timeout_ms=10_000.0,
            ),
            delays={0: 0.4, 1: 0.4, 2: 0.4},
        )
        try:
            return await router.search_batch(
                _scaled(model, queries), top=TOP
            )
        finally:
            await _teardown(router, fakes)

    result = asyncio.run(main())
    assert registry.counter("cluster.hedges_total") > hedges_before
    # The sibling's answer won; nothing was lost and — the double-count
    # guard — every range contributed exactly one response to a merge
    # that is element-identical to the flat search.
    assert result.partial is False
    assert result.failovers == []  # slow is hedged, not failed over
    assert result.results == flat
    assert sorted(result.served_by) == [0, 1, 2]
    plan = ReplicaPlan.compute(model.n_documents, 2 * RANGES, 2)
    for sid, wid in result.served_by.items():
        assert wid in plan.replica_set(sid).workers


# --------------------------------------------------------------------- #
# property: the merge is invariant to which replica answers
# --------------------------------------------------------------------- #
@settings(deadline=None, max_examples=20)
@given(choices=st.lists(st.integers(0, 1), min_size=RANGES, max_size=RANGES))
def test_any_replica_choice_yields_identical_merge(replica_model, choices):
    model, texts = replica_model
    plan = ReplicaPlan.compute(model.n_documents, 2 * RANGES, 2)
    queries = texts[:3]
    Q = _scaled(model, queries)
    flat = sharded_batch_search(model, queries, top=TOP, shards=RANGES)
    per_shard_by_query = []
    for sid in range(RANGES):
        # Whichever replica of the range Hypothesis picks...
        wid = choices[sid] * RANGES + sid
        worker = ShardWorker(
            model, plan.shard(sid), replica=plan.replica_of(wid)
        )
        request = _decode_payload(encode_frame(
            {"op": "score", "queries": Q, "top": TOP, "epoch": 0}
        )[4:])
        response = _decode_payload(encode_frame(worker.handle(request))[4:])
        assert "error" not in response
        per_shard_by_query.append(unpack_results(response, len(queries)))
    merged = [
        merge_topk(
            [per_shard_by_query[sid][qi] for sid in range(RANGES)],
            TOP,
        )
        for qi in range(len(queries))
    ]
    # ...the merged answer is element-identical: indices, scores, ties.
    assert merged == flat


# --------------------------------------------------------------------- #
# standby: follow the primary's seals, adopt and promote on its death
# --------------------------------------------------------------------- #
def _texts(n, seed=3, vocab_size=40, length=15):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [" ".join(rng.choice(vocab, size=length)) for _ in range(n)]


@pytest.fixture()
def store_dir(tmp_path):
    texts = _texts(24)
    ids = [f"D{i}" for i in range(len(texts))]
    data_dir = tmp_path / "store"
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=8)
    )
    store.close(flush=False)
    return data_dir


def test_standby_follows_then_promotes_with_zero_acked_loss(
    store_dir, tmp_path
):
    promo_log = tmp_path / "promotion.jsonl"

    async def main():
        # The "primary": a plain store handle holding the writer flock,
        # exactly what a repro-serve/writable-cluster process owns.
        primary = DurableIndexStore.open(store_dir)
        service = ClusterService(
            store_dir,
            ClusterConfig(
                workers=2,
                standby=True,
                standby_poll_s=0.05,
                promotion_log=str(promo_log),
                heartbeat_interval=0.2,
            ),
        )
        await service.start()
        try:
            epoch0 = service.epoch

            # While the primary lives: writes refused with the
            # standby-specific message, reads fine.
            with pytest.raises(ClusterReadOnlyError) as excinfo:
                await service.add(["too early"], ["nope"])
            assert "standby" in str(excinfo.value)
            assert service.describe()["standby"]["promoted"] is False

            # The primary seals a new epoch; the standby follows it.
            primary.add_texts(_texts(2, seed=21), ["P0", "P1"])
            seal = primary.seal(reason="test")
            assert seal.epoch > epoch0
            deadline = asyncio.get_event_loop().time() + 30
            while service.epoch != seal.epoch:
                assert (
                    asyncio.get_event_loop().time() < deadline
                ), "standby never followed the primary's seal"
                await asyncio.sleep(0.05)
            r = await service.search("w1 w2 w3", top=26)
            assert r["partial"] is False
            assert {row[2] for row in r["results"]} >= {"P0", "P1"}

            # The primary acks three more records (WAL-fsynced, durable)
            # and dies before sealing them — the exact window a naive
            # failover loses.
            primary.add_texts(_texts(3, seed=22), ["Q0", "Q1", "Q2"])
            primary.close(flush=False)  # flock dies with the handle

            deadline = asyncio.get_event_loop().time() + 30
            while not service.standby.promoted:
                assert (
                    asyncio.get_event_loop().time() < deadline
                ), "standby never promoted after the lock freed"
                await asyncio.sleep(0.05)

            # Promotion installed a real writer: the adoption replayed
            # the WAL tail, so every acked record is already searchable.
            assert service.primary is service.standby.writer
            h = service.describe()
            assert h["standby"]["promoted"] is True
            assert h["writer"]["enabled"] is True
            assert h["n_documents"] == 29
            r = await service.search("w1 w2 w3", top=29)
            assert r["partial"] is False
            assert {row[2] for row in r["results"]} >= {"Q0", "Q1", "Q2"}

            # Writes now flow through the adopted writer.
            ack = await service.add(_texts(1, seed=23), ["R0"])
            assert ack["durable"] is True

            # The takeover fenced the dead primary's generation.
            adopted = [
                e for e in service.standby.events if e["event"] == "adopted"
            ]
            assert adopted and adopted[0]["lock_generation"] >= 2

            # The promotion timeline is complete, in memory and on disk.
            names = [e["event"] for e in service.standby.events]
            for expected in (
                "standby_start", "followed_epoch", "lock_free",
                "adopted", "promoted",
            ):
                assert expected in names
            assert names.index("lock_free") < names.index("adopted")
            assert names.index("adopted") < names.index("promoted")
            logged = [
                json.loads(line)
                for line in promo_log.read_text().splitlines()
            ]
            assert [e["event"] for e in logged] == names
        finally:
            await service.drain()

    asyncio.run(main())
