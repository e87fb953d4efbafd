"""The four workloads: fixed stores, rates, latency limits and seeds.

Every constant here was sized once from the measured capacity of the
servers on a 2-core box and is never recalibrated per run (see
RATIONALE.md).  The
``--seed`` argument only drives what is *offered*: query text, arrival
times, tenant picks and the order of held-out documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Keep-alive connections the generator may hold: the box's core count,
#: so the server never has more requests in flight than it has cores.
CONNS = 2

#: Seconds of unrecorded load before the first measured phase.
WARMUP_S = 1.0

#: Boots per run; ``setup_s`` is their median and the last one serves.
SETUP_BOOTS = 3

#: Shortest nominal phase, whatever ``--seconds`` leaves for it.
NOMINAL_MIN_S = 5.0

#: ``rss_mb`` is the median of PSS samples this many seconds apart over
#: the nominal phase (checkpoints and epoch swaps make PSS a sawtooth).
PSS_EVERY_S = 1.0

#: Capacity search: steps of this many seconds each.
STEP_S = 2.5

#: Capacity search: the latency percentile a step is judged by.  A step
#: holds a few hundred requests, so p90 (100 samples for 10 beyond it,
#: the rule ``loadgen.min_samples`` states) is the highest it measures.
SLO_PCT = 90.0

#: Capacity search: bisection steps between a workload's floor and ceiling.
CAP_STEPS = 4

#: A capacity step fails when more than this share of requests failed.
MAX_FAIL_SHARE = 0.01

#: Generator lateness p99 (ms) beyond which a phase measured the generator.
LATE_LIMIT_MS = 50.0

#: Terms per query, and the Zipf exponent of a repeated-query pool.
QUERY_TERMS = 4
ZIPF_S = 1.1


@dataclass(frozen=True)
class StoreSpec:
    """A cached input store, built once per checkout from its own seed."""

    kind: str  # "factors" | "texts"
    n_docs: int
    n_terms: int
    k: int
    topics: int
    seed: int
    doc_length: int = 0


STORES = {
    # ~50k docs x k=64: the Eq. 6 + cosine scan + top-k dominate a request.
    "big": StoreSpec("factors", 50_000, 8_000, 64, 64, seed=1101),
    # ~2k fitted text docs: compute is small, serving overhead dominates.
    "hot": StoreSpec("texts", 2_000, 3_000, 48, 40, seed=1102, doc_length=60),
    # Four small tenants: an attach (mmap open + snapshot) costs ~30 ms.
    **{
        f"tenant{i}": StoreSpec("factors", 5_000, 2_000, 32, 16, seed=1110 + i)
        for i in range(4)
    },
}

#: Held-out documents for the ``/add`` stream (same topic model as "hot").
HELD_OUT = dict(n_docs=1_500, seed=1103)


@dataclass(frozen=True)
class Workload:
    name: str
    server: str  # "serve" | "cluster" | "tenants"
    stores: tuple  # the store served (one per tenant for "tenants")
    why: str
    top: int = 10
    probes: int | None = None
    nominal_rate: float = 100.0  # searches per second
    slo_ms: float = 100.0  # SLO_PCT latency limit of the capacity search
    cap_lo: float = 50.0  # floor assumed to pass
    cap_hi: float = 400.0  # ceiling assumed to fail
    query_pool: int = 0  # 0: every query unique; else Zipf over a pool
    add_rate: float = 0.0  # /add requests per second
    add_batch: int = 0  # documents per /add
    tenant_weights: tuple = field(default=())
    workers: int = 0  # cluster shard workers
    serve_args: tuple = ()
    oracle_samples: int = 40


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan_large", "serve", ("big",),
            "exact top-10 over 50k docs: projection, cosine scan and top-k dominate",
            nominal_rate=35.0, slo_ms=40.0, cap_lo=60.0, cap_hi=220.0,
        ),
        Workload(
            "hot_small_rw", "serve", ("hot",),
            "Zipf-repeated queries on 2k docs plus an /add stream: HTTP, batching, "
            "cache, WAL and fold-in",
            nominal_rate=70.0, slo_ms=20.0, cap_lo=100.0, cap_hi=500.0,
            query_pool=400, add_rate=2.0, add_batch=3,
            serve_args=("--checkpoint-every", "16"),
        ),
        Workload(
            "cluster_ann", "cluster", ("big",),
            "2-worker cluster, probes=8 top-100: router scatter, wire frames, ANN select",
            top=100, probes=8, nominal_rate=50.0, slo_ms=35.0,
            cap_lo=80.0, cap_hi=480.0, oracle_samples=120, workers=2,
        ),
        Workload(
            "tenants_lru", "tenants", tuple(f"tenant{i}" for i in range(4)),
            "4 small tenants, 2 resident, one hot: lazy attach, LRU detach, quotas",
            nominal_rate=60.0, slo_ms=25.0, cap_lo=80.0, cap_hi=400.0,
            tenant_weights=(0.97, 0.01, 0.01, 0.01),
            serve_args=("--max-resident", "2"),
        ),
    )
}
