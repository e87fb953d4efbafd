"""Bench-owned spans around the public calls of each serving layer.

:func:`install` wraps functions and methods of the ``repro`` modules in
place (and rebinds every ``from x import f`` alias already taken by a
loaded ``repro`` module), so the unmodified program records, per call,
its wall-clock start, duration and a few counts.  Records stay in
memory; :func:`dump` writes them as JSON when the process exits — the
server's drain path returns from ``repro.cli.main``, and shard workers
exit after their SIGTERM shutdown, so both reach ``atexit``.

Record layout: ``name -> [[wall_start, seconds, *counts], ...]`` where
the counts (batch size, bytes, rows …) are documented at each wrapper.  The bench keeps only records whose ``wall_start``
falls inside the measured window, across every process of the server.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

RECORDS: dict[str, list] = {}
_LOCK = threading.Lock()
_INSTALLED = False


def _add(name: str, start: float, dur: float, *counts) -> None:
    rec = [start, dur, *counts]
    with _LOCK:
        RECORDS.setdefault(name, []).append(rec)


def _timed(name: str, fn, extra=None):
    """Wrap ``fn``; ``extra(args, kwargs, result) -> counts`` adds counts."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            wall, t0 = time.time(), time.perf_counter()
            result = await fn(*args, **kwargs)
            counts = extra(args, kwargs, result) if extra else ()
            _add(name, wall, time.perf_counter() - t0, *counts)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            wall, t0 = time.time(), time.perf_counter()
            result = fn(*args, **kwargs)
            counts = extra(args, kwargs, result) if extra else ()
            _add(name, wall, time.perf_counter() - t0, *counts)
            return result
    return wrapper


def _counted_rejections(name: str, fn):
    """Record one zero-length span per call that raised (a rejection)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:
            _add(name, time.time(), 0.0)
            raise
    return wrapper


def _rebind(module, attr: str, new) -> None:
    """Replace ``module.attr`` and every alias of it in loaded repro modules."""
    old = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


# --------------------------------------------------------------------- #
# per-layer extras
# --------------------------------------------------------------------- #
def _kernel_extra(args, kwargs, result):
    # rows scored x k (doubles of M read), queries in the call
    M = args[0]
    rows, k = (M.shape[0], M.shape[1]) if getattr(M, "ndim", 0) == 2 else (0, 0)
    return rows * k, int(result.shape[0])


def _ann_extra(args, kwargs, result):
    # candidates, cells probed, rows in the scanned range
    stats = result[1]
    return stats["candidates"], stats["cells_probed"], int(args[1].shape[0])


def _encode_extra(args, kwargs, result):
    return (len(result),)


def _decode_extra(args, kwargs, result):
    return (len(args[0]),)


def _router_extra(args, kwargs, result):
    return (len(getattr(result, "hedged", ()) or ()),)


def install() -> None:
    """Wrap every traced layer (idempotent)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    names = [
        "repro.server.service", "repro.server.batching", "repro.server.state",
        "repro.server.admission", "repro.core.query", "repro.serving.kernel",
        "repro.serving.topk", "repro.serving.ann", "repro.serving.querycache",
        "repro.cluster.wire", "repro.cluster.router", "repro.cluster.worker",
        "repro.cluster.service", "repro.store.wal", "repro.store.durable",
        "repro.updating.folding", "repro.updating.manager",
        "repro.tenancy.registry", "repro.tenancy.quotas",
    ]
    mods = {n: importlib.import_module(n) for n in names}

    # Module-level functions (aliases in other modules are rebound too).
    functions = [
        ("repro.core.query", "query_counts", "core.query.counts", None),
        ("repro.core.query", "project_counts", "core.query.project", None),
        ("repro.serving.kernel", "cosine_scores", "serving.kernel.score", _kernel_extra),
        ("repro.serving.topk", "ranked_order", "serving.topk.select", None),
        ("repro.cluster.wire", "encode_frame", "cluster.wire.encode", _encode_extra),
        ("repro.cluster.wire", "_decode_payload", "cluster.wire.decode", _decode_extra),
        ("repro.updating.folding", "fold_in_documents", "updating.fold_in", None),
    ]
    for mod_name, attr, span_name, extra in functions:
        mod = mods[mod_name]
        _rebind(mod, attr, _timed(span_name, getattr(mod, attr), extra))

    service = mods["repro.server.service"]
    cluster_service = mods["repro.cluster.service"]
    batching = mods["repro.server.batching"]
    state = mods["repro.server.state"]
    methods = [
        (service.QueryService, "search", "server.service.search", None),
        (cluster_service.ClusterService, "search", "server.service.search", None),
        (state.EpochSnapshot, "project", "server.state.project", None),
        (state.ServingState, "add_texts", "server.state.add_texts", None),
        (mods["repro.serving.ann"].CoarseQuantizer, "select", "serving.ann.select", _ann_extra),
        (mods["repro.cluster.router"].ClusterRouter, "search_batch",
         "cluster.router.search_batch", _router_extra),
        (mods["repro.cluster.worker"].ShardWorker, "score", "cluster.worker.score", None),
        (mods["repro.store.wal"].WriteAheadLog, "append", "store.wal.append", None),
        (mods["repro.store.durable"].DurableIndexStore, "add_texts", "store.durable.add", None),
        (mods["repro.store.durable"].DurableIndexStore, "checkpoint",
         "store.durable.checkpoint", None),
        (mods["repro.updating.manager"].LSIIndexManager, "_consolidate",
         "updating.consolidate", None),
        (mods["repro.tenancy.registry"].IndexRegistry, "_attach_locked",
         "tenancy.registry.attach", None),
        (mods["repro.tenancy.registry"].IndexRegistry, "_detach_locked",
         "tenancy.registry.detach", None),
    ]
    for cls, attr, span_name, extra in methods:
        setattr(cls, attr, _timed(span_name, getattr(cls, attr), extra))

    # Query-cache lookups: count 1 on a hit.
    cache_cls = mods["repro.serving.querycache"].QueryVectorCache
    cache_get = cache_cls.get

    def get(self, key):
        wall, t0 = time.time(), time.perf_counter()
        value = cache_get(self, key)
        _add("serving.querycache.get", wall, time.perf_counter() - t0,
             int(value is not None))
        return value

    cache_cls.get = get

    # Batch queue wait: stamped at submit, read when the batch is scored.
    batcher = batching.MicroBatcher
    submit, score_batch = batcher.submit, batcher._score_batch

    def stamped_submit(self, request):
        request.perfbench_submit = time.perf_counter()
        return submit(self, request)

    def traced_score_batch(self, snapshot, batch):
        wall, t0 = time.time(), time.perf_counter()
        waited = sum(t0 - getattr(r, "perfbench_submit", t0) for r in batch)
        result = score_batch(self, snapshot, batch)
        # batch size, summed queue wait (seconds)
        _add("server.batching.batch", wall, time.perf_counter() - t0,
             len(batch), waited)
        return result

    batcher.submit = stamped_submit
    batcher._score_batch = traced_score_batch

    # Tenant pin: time to resolve (and maybe attach) on __enter__.
    registry_cls = mods["repro.tenancy.registry"].IndexRegistry
    pin = registry_cls.pin

    def traced_pin(self, tenant_id=None):
        cm = pin(self, tenant_id)

        @contextlib.contextmanager
        def timed():
            wall, t0 = time.time(), time.perf_counter()
            with cm as value:
                _add("tenancy.registry.pin", wall, time.perf_counter() - t0)
                yield value

        return timed()

    registry_cls.pin = traced_pin

    admission = mods["repro.server.admission"].AdmissionController
    admission.admit = _counted_rejections("server.admission.rejected", admission.admit)
    quotas = mods["repro.tenancy.quotas"].TenantQuotas
    quotas.admit = _counted_rejections("tenancy.quotas.rejected", quotas.admit)

    atexit.register(dump)


def dump() -> None:
    """Write this process's records to ``$PERFBENCH_TRACE_OUT/spans-<pid>.json``."""
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        return
    with _LOCK:
        data = {"pid": os.getpid(), "records": RECORDS}
        text = json.dumps(data)
    path = os.path.join(out, f"spans-{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
