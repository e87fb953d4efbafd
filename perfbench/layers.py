"""Turn the servers' span records into the per-layer metrics.

Layers are named after modules.  Unless a metric's name says otherwise,
``*_ms`` is the mean duration of one call of the wrapped function,
counts are totals over the traced phase, and ratios state their base in
RATIONALE.md.  A layer the workload never reached reports 0.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

#: Per-layer metrics: name -> unit.
UNITS = {
    "server.http.self_ms": "ms",
    "server.batching.queue_wait_ms": "ms",
    "server.batching.batch_size_mean": "count",
    "server.batching.batches": "count",
    "core.query.project_ms": "ms",
    "serving.querycache.hit_ratio": "ratio",
    "serving.kernel.score_ms": "ms",
    "serving.kernel.bytes_per_query": "bytes",
    "serving.topk.select_ms": "ms",
    "serving.ann.select_ms": "ms",
    "serving.ann.candidate_fraction": "ratio",
    "serving.ann.cells_probed": "count",
    "cluster.router.search_batch_ms": "ms",
    "cluster.router.hedge_ratio": "ratio",
    "cluster.wire.encode_ms": "ms",
    "cluster.wire.decode_ms": "ms",
    "cluster.wire.bytes_per_request": "bytes",
    "cluster.worker.score_ms": "ms",
    "store.wal.append_ms": "ms",
    "store.durable.add_ms": "ms",
    "updating.fold_in_ms": "ms",
    "updating.consolidate_ms": "ms",
    "updating.consolidations": "count",
    "store.durable.checkpoint_ms": "ms",
    "server.state.epoch_swaps": "count",
    "tenancy.registry.pin_ms": "ms",
    "tenancy.registry.attach_ms": "ms",
    "tenancy.registry.attaches": "count",
    "tenancy.registry.detaches": "count",
    "server.admission.rejected": "count",
    "tenancy.quotas.rejected": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.backlog_max": "count",
    "bench.trace_overhead": "ratio",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "search_p99_ms": "ms",
    "max_qps_at_slo": "1/s",
    "add_p50_ms": "ms",
    "add_p99_ms": "ms",
    "error_rate": "ratio",
}


def load_records(directory: pathlib.Path, start: float, end: float) -> dict:
    """Every process's records whose start lies in ``[start, end]``."""
    merged: dict[str, list] = {}
    for path in sorted(directory.glob("spans-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for name, recs in data["records"].items():
            merged.setdefault(name, []).extend(
                r for r in recs if start <= r[0] <= end
            )
    return {
        name: np.array(recs, dtype=np.float64).reshape(len(recs), -1)
        for name, recs in merged.items()
    }


def per_layer(records: dict, phase) -> dict:
    """The per-layer metrics of one traced phase (see :data:`UNITS`)."""

    def count(name: str) -> int:
        r = records.get(name)
        return 0 if r is None else len(r)

    def col(name: str, j: int) -> float:
        """Sum of column ``j`` (1 = seconds, 2.. = the span's counts)."""
        r = records.get(name)
        return float(r[:, j].sum()) if r is not None and len(r) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_ms(name: str) -> float:
        return ratio(col(name, 1) * 1000.0, count(name))

    n_req = count("server.service.search")
    per_req_ms = lambda *names: ratio(sum(col(n, 1) for n in names) * 1000.0, n_req)
    service = phase.service_ms()
    return {
        "server.http.self_ms": (
            float(service.mean()) - mean_ms("server.service.search")
            if service.size and n_req else 0.0
        ),
        "server.batching.queue_wait_ms": ratio(
            col("server.batching.batch", 3) * 1000.0, col("server.batching.batch", 2)
        ),
        "server.batching.batch_size_mean": ratio(
            col("server.batching.batch", 2), count("server.batching.batch")
        ),
        "server.batching.batches": float(count("server.batching.batch")),
        "core.query.project_ms": per_req_ms("core.query.counts", "core.query.project"),
        "serving.querycache.hit_ratio": ratio(
            col("serving.querycache.get", 2), count("serving.querycache.get")
        ),
        "serving.kernel.score_ms": mean_ms("serving.kernel.score"),
        "serving.kernel.bytes_per_query": ratio(
            col("serving.kernel.score", 2) * 8.0, col("serving.kernel.score", 3)
        ),
        "serving.topk.select_ms": mean_ms("serving.topk.select"),
        "serving.ann.select_ms": mean_ms("serving.ann.select"),
        "serving.ann.candidate_fraction": ratio(
            col("serving.ann.select", 2), col("serving.ann.select", 4)
        ),
        "serving.ann.cells_probed": ratio(
            col("serving.ann.select", 3), count("serving.ann.select")
        ),
        "cluster.router.search_batch_ms": mean_ms("cluster.router.search_batch"),
        "cluster.router.hedge_ratio": ratio(col("cluster.router.search_batch", 2), n_req),
        "cluster.wire.encode_ms": per_req_ms("cluster.wire.encode"),
        "cluster.wire.decode_ms": per_req_ms("cluster.wire.decode"),
        "cluster.wire.bytes_per_request": ratio(col("cluster.wire.encode", 2), n_req),
        "cluster.worker.score_ms": mean_ms("cluster.worker.score"),
        "store.wal.append_ms": mean_ms("store.wal.append"),
        "store.durable.add_ms": mean_ms("store.durable.add"),
        "updating.fold_in_ms": mean_ms("updating.fold_in"),
        "updating.consolidate_ms": mean_ms("updating.consolidate"),
        "updating.consolidations": float(count("updating.consolidate")),
        "store.durable.checkpoint_ms": mean_ms("store.durable.checkpoint"),
        "server.state.epoch_swaps": float(count("server.state.add_texts")),
        "tenancy.registry.pin_ms": mean_ms("tenancy.registry.pin"),
        "tenancy.registry.attach_ms": mean_ms("tenancy.registry.attach"),
        "tenancy.registry.attaches": float(count("tenancy.registry.attach")),
        "tenancy.registry.detaches": float(count("tenancy.registry.detach")),
        "server.admission.rejected": float(count("server.admission.rejected")),
        "tenancy.quotas.rejected": float(count("tenancy.quotas.rejected")),
    }
