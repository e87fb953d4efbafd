"""Multi-process cluster serving: shard workers behind a scatter router.

The single-process server (:mod:`repro.server`) scores every query in
one address space.  This package scales the same exact-search semantics
across *processes*: a deterministic :class:`~repro.cluster.plan.
ShardPlan` splits one checkpointed LSI space into contiguous row
ranges; each :mod:`~repro.cluster.worker` process memory-maps the
checkpoint (zero-copy — the page cache is shared between workers) and
scores only its rows; the :mod:`~repro.cluster.router` scatters query
batches as binary wire frames (:mod:`~repro.cluster.wire`), hedges
stragglers, and merges per-shard top-k ``(indices, scores)`` arrays with
the same ``merge_topk`` the in-process sharded search uses — so with all
workers live, answers are element-identical to ``sharded_batch_search``.
The :mod:`~repro.cluster.supervisor` keeps workers alive (heartbeats,
eviction, backoff restarts), and while one is down the router serves
``partial=True`` responses naming the unscored row ranges instead of
failing.  :class:`~repro.cluster.service.ClusterService` packages the
whole thing as one fleet — a backend of the same
:class:`~repro.server.service.QueryService` front end ``repro serve``
runs (``repro cluster serve``).

With ``--writable`` the cluster also ingests: the
:class:`~repro.cluster.primary.PrimaryWriter` owns the durable store's
write lock, WAL-logs every ``/add`` (acknowledged = fsynced, SIGKILL
recovers bit-identically), applies the Vecharynski-Saad fast SVD
update per batch, seals format-v2 checkpoints on its policy, and
broadcasts epoch *bumps* — each worker hot-remaps the new checkpoint
behind an atomic swap while keeping the previous epoch's state alive
(:mod:`~repro.cluster.epochs`), so in-flight queries finish against
the epoch they started on and zero queries drop across a bump.

With ``--replication R`` the cluster is highly available on both paths.
Reads: a :class:`~repro.cluster.placement.ReplicaPlan` assigns every
shard range R distinct worker processes; the router load-balances with
power-of-two-choices over live per-replica load (latency-history
tiebreak), fails a dead
or skewed replica over to a sibling before declaring rows missing, and
hedges stragglers across replicas — a SIGKILL'd worker costs nothing
while a sibling lives, and epoch bumps publish only once a quorum of
each range's replicas remap.  Writes: ``--standby`` runs a
:class:`~repro.cluster.standby.StandbyWriter` that tails checkpoints
and the WAL read-only, and on primary death adopts the store lock
(fencing generation bumped — see :mod:`repro.store.lock`), replays the
WAL tail, and resumes sealing with zero acked records lost.
"""

from repro.cluster.epochs import (
    EpochHandle,
    handle_for_checkpoint,
    latest_handle,
)
from repro.cluster.placement import (
    REPLICA_PLAN_FORMAT,
    ReplicaPlan,
    ReplicaSet,
    as_replica_plan,
)
from repro.cluster.plan import PLAN_FORMAT, ShardPlan, ShardRange
from repro.cluster.primary import PrimaryWriter, WriterConfig
from repro.cluster.standby import StandbyConfig, StandbyWriter
from repro.cluster.router import (
    ClusterResult,
    ClusterRouter,
    RouterConfig,
    WorkerChannel,
)
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.supervisor import ClusterSupervisor, SupervisorConfig
from repro.cluster.worker import ShardWorker, WorkerServer, run_worker

__all__ = [
    "PLAN_FORMAT",
    "REPLICA_PLAN_FORMAT",
    "EpochHandle",
    "handle_for_checkpoint",
    "latest_handle",
    "PrimaryWriter",
    "WriterConfig",
    "StandbyConfig",
    "StandbyWriter",
    "ShardPlan",
    "ShardRange",
    "ReplicaPlan",
    "ReplicaSet",
    "as_replica_plan",
    "ClusterResult",
    "ClusterRouter",
    "RouterConfig",
    "WorkerChannel",
    "ClusterConfig",
    "ClusterService",
    "ClusterSupervisor",
    "SupervisorConfig",
    "ShardWorker",
    "WorkerServer",
    "run_worker",
]
