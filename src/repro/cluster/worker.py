"""The shard worker: one process, one contiguous slice of the space.

A worker is a pure *checkpoint consumer*.  It opens the newest valid
checkpoint of a durable store with ``np.load(mmap_mode="r")``
(:mod:`repro.store.mmap_io` — O(header) open, no pickling of factors),
materializes only its shard's scoring state — ``V[lo:hi] Σ`` and its
row norms, the same arrays the in-process sharded search slices — and
serves two things over length-prefixed binary frames on a local socket:
``score`` requests and heartbeats.  Nothing else: no updating, no WAL,
no lock on the store.  Restarting a worker is therefore always safe and
cheap, which is what the supervisor's crash-restart loop relies on.

Epoch window
------------
Under a writable cluster the primary writer broadcasts a ``bump`` op
after sealing each new checkpoint.  The worker remaps the named
checkpoint into a fresh :class:`_EpochState` and swaps it in with one
reference assignment — the superseded state is retained as *previous*
until the next bump, so ``score`` frames carrying the old epoch (sent
by front-end requests that snapshotted their handle before the swap)
still score against exactly the state they started on.  A request for
an epoch outside this two-deep window is answered with a skew marker
the router degrades to a partial response.

Exactness contract
------------------
:meth:`ShardWorker.score` runs the *identical* kernel and selection the
flat path runs on the same slice shapes — :func:`~repro.serving.kernel.
cosine_scores` over ``(hi-lo, k)`` rows, :func:`~repro.serving.topk.
ranked_order` per query.  Queries arrive and ``(indices, scores)``
arrays leave as raw IEEE-754 sections (:mod:`repro.cluster.wire`), so
the bytes a worker scores and returns are the bytes the router holds —
no text round trip — and a router merging worker responses with
``merge_topk`` reproduces ``sharded_batch_search`` element-for-element:
indices, scores, tie order.

Run one with ``python -m repro cluster worker`` (the supervisor does).
"""

from __future__ import annotations

import os
import pathlib
import signal
import socketserver
import sys
import threading
import time

import numpy as np

from repro.cluster.plan import ShardPlan, ShardRange
from repro.cluster.wire import BUMP_OP, pack_results, recv_frame, send_frame
from repro.core.model import LSIModel
from repro.errors import ClusterError, ShapeError
from repro.obs.metrics import registry
from repro.obs.trace_context import TraceContext, trace_scope
from repro.obs.tracing import span, spans_for_trace
from repro.serving.ann import CoarseQuantizer
from repro.serving.kernel import cosine_scores, row_norms
from repro.serving.topk import ranked_order
from repro.store.checkpoint import latest_valid_checkpoint
from repro.store.mmap_io import open_checkpoint_ann, open_checkpoint_model

__all__ = ["ShardWorker", "WorkerServer", "serve_shard", "run_worker"]


class _EpochState:
    """One epoch's immutable scoring state for one shard.

    Built once per (checkpoint, shard) and never mutated — the worker
    swaps whole instances, which is what lets in-flight queries keep a
    consistent view without any locking on the score path.
    """

    def __init__(
        self,
        model: LSIModel,
        shard: ShardRange,
        *,
        epoch: int = 0,
        ann: CoarseQuantizer | None = None,
    ):
        self.model = model
        self.shard = shard
        self.epoch = int(epoch)
        # Shared checkpoint quantizer (global posting lists); candidate
        # sets are clipped to this shard's [lo, hi) rows at query time.
        self.ann = ann
        lo, hi = shard.lo, shard.hi
        if not 0 <= lo <= hi <= model.n_documents:
            raise ShapeError(
                f"shard rows [{lo},{hi}) outside model with "
                f"n={model.n_documents}"
            )
        # Materialize only this shard's rows: the multiply touches (and
        # therefore faults in) just the mapped pages of V[lo:hi].
        self.coords = np.ascontiguousarray(model.V[lo:hi] * model.s)
        self.norms = row_norms(self.coords)


class ShardWorker:
    """Transport-free scoring core for one shard, epoch-windowed.

    Separated from the socket loop so tests (and the router's in-process
    parity harnesses) can drive :meth:`handle` directly.  The worker
    holds the *current* epoch's scoring state plus the immediately
    superseded one (see the module docstring); attribute access
    (``model``, ``shard``, ``coords``, …) reads the current state.
    """

    def __init__(
        self,
        model: LSIModel,
        shard: ShardRange,
        *,
        epoch: int = 0,
        ann: CoarseQuantizer | None = None,
        data_dir: pathlib.Path | None = None,
        replica: int = 0,
        tenant: str | None = None,
    ):
        self._state = _EpochState(model, shard, epoch=epoch, ann=ann)
        self._previous: _EpochState | None = None
        #: The tenant this worker's rows belong to.  ``None`` accepts
        #: any frame (single-tenant cluster); set, the worker refuses
        #: frames stamped for a different tenant — a misrouted scatter
        #: must fail loudly rather than silently score foreign rows.
        self.tenant = tenant
        #: Replica index within this shard range's replica set —
        #: identity only; every replica scores identical bytes.
        self.replica = int(replica)
        self._swap_lock = threading.Lock()  # serializes bumps, not scores
        #: Store directory bumps remap checkpoints from; ``None`` makes
        #: the worker bump-refusing (in-process/test construction).
        self.data_dir = pathlib.Path(data_dir) if data_dir else None
        self.started_unix = time.time()
        self.requests_served = 0
        self.bumps_applied = 0
        # Fault-injection hook for smoke tests: a fixed per-request delay
        # (milliseconds) that pushes requests over the slow-log threshold.
        self.inject_delay_s = (
            float(os.environ.get("REPRO_WORKER_INJECT_DELAY_MS", 0) or 0)
            / 1000.0
        )

    # Current-epoch views: the swap replaces ``_state`` wholesale, so a
    # reader that grabs it once works against one consistent epoch.
    @property
    def model(self) -> LSIModel:
        return self._state.model

    @property
    def shard(self) -> ShardRange:
        return self._state.shard

    @property
    def epoch(self) -> int:
        return self._state.epoch

    @property
    def ann(self) -> CoarseQuantizer | None:
        return self._state.ann

    @property
    def coords(self) -> np.ndarray:
        return self._state.coords

    @property
    def norms(self) -> np.ndarray:
        return self._state.norms

    def _state_for_epoch(self, epoch) -> _EpochState | None:
        """The held state matching ``epoch`` (None = current), if any."""
        state, previous = self._state, self._previous
        if epoch is None or int(epoch) == state.epoch:
            return state
        if previous is not None and int(epoch) == previous.epoch:
            return previous
        return None

    # ------------------------------------------------------------------ #
    def info(self) -> dict:
        """Identity block for hellos, status pages, and debugging."""
        state, previous = self._state, self._previous
        return {
            "shard": state.shard.shard_id,
            "replica": self.replica,
            "lo": state.shard.lo,
            "hi": state.shard.hi,
            "epoch": state.epoch,
            "previous_epoch": previous.epoch if previous else None,
            "n_documents": state.model.n_documents,
            "k": state.model.k,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_unix,
            "requests_served": self.requests_served,
            "bumps_applied": self.bumps_applied,
            "ann": state.ann is not None,
            "tenant": self.tenant,
        }

    # ------------------------------------------------------------------ #
    def bump(self, plan_json: str) -> dict:
        """Hot-remap to the plan's checkpoint; retain the old epoch.

        Idempotent for the current epoch.  Returns the ack dict (or an
        error dict the router surfaces); on success the superseded
        state stays answerable until the next bump.
        """
        if self.data_dir is None:
            return {"error": "worker has no data dir — cannot remap"}
        try:
            plan = ShardPlan.from_json(plan_json)
        except Exception as exc:  # noqa: BLE001 — malformed plan
            return {"error": f"malformed bump plan: {exc!r}"}
        with self._swap_lock:
            current = self._state
            if plan.epoch == current.epoch:
                return {
                    "ok": True,
                    "shard": current.shard.shard_id,
                    "epoch": current.epoch,
                    "noop": True,
                }
            shard_id = current.shard.shard_id
            if not 0 <= shard_id < plan.n_shards:
                return {
                    "error": (
                        f"bump plan has {plan.n_shards} shards; worker "
                        f"serves shard {shard_id}"
                    )
                }
            from repro.store.durable import STORE_LAYOUT
            from repro.store.checkpoint import list_checkpoints

            checkpoints = self.data_dir / STORE_LAYOUT["checkpoints"]
            info = next(
                (
                    c
                    for c in list_checkpoints(checkpoints)
                    if c.path.name == plan.checkpoint
                ),
                None,
            )
            if info is None:
                return {
                    "error": (
                        f"bump names checkpoint {plan.checkpoint!r} but it "
                        f"is not under {checkpoints}"
                    )
                }
            epoch = int(info.manifest.get("meta", {}).get("epoch", 0))
            if epoch != plan.epoch:
                return {
                    "error": (
                        f"checkpoint {plan.checkpoint} carries epoch "
                        f"{epoch} but the bump plan says {plan.epoch}"
                    )
                }
            try:
                model = open_checkpoint_model(info.path, mmap=True)
                if model.n_documents != plan.n_documents:
                    return {
                        "error": (
                            f"checkpoint has {model.n_documents} documents "
                            f"but the bump plan covers {plan.n_documents}"
                        )
                    }
                ann = open_checkpoint_ann(info.path, mmap=True)
                fresh = _EpochState(
                    model, plan.shard(shard_id), epoch=epoch, ann=ann
                )
            except Exception as exc:  # noqa: BLE001 — keep serving old epoch
                return {"error": f"remap of {plan.checkpoint} failed: {exc!r}"}
            # The swap: one reference assignment each.  In-flight scores
            # grabbed their state reference already; new frames see the
            # fresh epoch, old-epoch frames land on ``_previous``.
            self._previous = current
            self._state = fresh
            self.bumps_applied += 1
            registry.inc("cluster.worker.bumps_total")
            registry.set_gauge("cluster.worker.epoch", epoch)
            return {"ok": True, "shard": shard_id, "epoch": epoch}

    def score(
        self,
        Qs: np.ndarray,
        top: int | None,
        threshold: float | None,
        *,
        probes: int | None = None,
        exact: bool = False,
        state: _EpochState | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-query ranked ``(global indices <i8, scores <f8)`` arrays.

        ``Qs`` is the already-scaled ``(q, k)`` comparison-space batch
        (the router applies ``Σ`` once); indices are shifted to global
        row numbers so the merge needs no further translation.  With
        ``probes`` (and a mapped quantizer), each query scores only the
        probed cells' rows that land in this shard — cell selection is
        a pure function of the scaled query and the shared checkpoint
        quantizer, so every shard probes the same cells and the merged
        result equals a single-node probe at the same count.  ``state``
        pins the epoch to score against (default: current).
        """
        state = state if state is not None else self._state
        lo = state.shard.lo
        if state.shard.n_rows == 0:
            empty = (np.empty(0, dtype=np.int64), np.empty(0))
            return [empty for _ in range(Qs.shape[0])]
        if probes is not None and not exact:
            if state.ann is None:
                registry.inc("ann.exact_fallbacks_total")
            else:
                return [
                    state.ann.select(
                        state.coords,
                        state.norms,
                        q,
                        probes=probes,
                        top=top,
                        threshold=threshold,
                        lo=lo,
                        n_total=state.model.n_documents,
                    )[0]
                    for q in Qs
                ]
        S = cosine_scores(state.coords, Qs, norms=state.norms)
        out = []
        for row in S:
            order = ranked_order(row, top=top, threshold=threshold)
            out.append((order.astype(np.int64) + lo, row[order]))
        return out

    # ------------------------------------------------------------------ #
    def handle(self, message: dict) -> dict:
        """Dispatch one protocol message; always returns a response dict."""
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "shard": self.shard.shard_id, "epoch": self.epoch}
        if op == "info":
            return self.info()
        if op == BUMP_OP:
            plan_json = message.get("plan")
            if not isinstance(plan_json, str) or not plan_json:
                return {"error": "'plan' must be the canonical plan JSON"}
            try:
                return self.bump(plan_json)
            except Exception as exc:  # noqa: BLE001 — keep serving
                return {"error": f"bump failed: {exc!r}"}
        if op == "score":
            frame_tenant = message.get("tenant")
            if (
                self.tenant is not None
                and frame_tenant is not None
                and frame_tenant != self.tenant
            ):
                registry.inc("cluster.worker.tenant_mismatch_total")
                return {
                    "error": (
                        f"worker serves tenant {self.tenant!r}; frame is "
                        f"for {frame_tenant!r}"
                    ),
                    "tenant": self.tenant,
                }
            # Pin the epoch the frame asks for (absent = current) before
            # anything else: every read below must come from one state.
            state = self._state_for_epoch(message.get("epoch"))
            if state is None:
                registry.inc("cluster.worker.epoch_skew_total")
                return {
                    "error": (
                        f"epoch {message.get('epoch')} is no longer held "
                        f"(current {self._state.epoch})"
                    ),
                    "stale_epoch": True,
                    "shard": self._state.shard.shard_id,
                    "epoch": self._state.epoch,
                }
            try:
                Qs = np.atleast_2d(
                    np.asarray(message["queries"], dtype=np.float64)
                )
            except (KeyError, TypeError, ValueError) as exc:
                return {"error": f"malformed 'queries': {exc!r}"}
            if Qs.ndim != 2 or Qs.shape[1] != state.model.k:
                return {
                    "error": (
                        f"queries have shape {Qs.shape} for k={state.model.k}"
                    )
                }
            top = message.get("top")
            threshold = message.get("threshold")
            probes = message.get("probes")
            if probes is not None and (
                isinstance(probes, bool)
                or not isinstance(probes, int)
                or probes < 1
            ):
                return {"error": "'probes' must be a positive integer"}
            exact = message.get("exact", False)
            # The frame's trace context (if any) makes this worker's
            # scoring span a child of the router's scatter span, in the
            # router's trace, even though it lives in another process.
            ctx = TraceContext.from_wire(message.get("trace"))
            try:
                with trace_scope(ctx), span(
                    "cluster.worker.score",
                    shard=state.shard.shard_id,
                    lo=state.shard.lo,
                    hi=state.shard.hi,
                    epoch=state.epoch,
                    queries=int(Qs.shape[0]),
                    probes=probes,
                ):
                    if self.inject_delay_s > 0:
                        time.sleep(self.inject_delay_s)
                    results = self.score(
                        Qs,
                        None if top is None else int(top),
                        None if threshold is None else float(threshold),
                        probes=probes,
                        exact=bool(exact),
                        state=state,
                    )
            except Exception as exc:  # noqa: BLE001 — a query must not kill the worker
                return {"error": repr(exc)}
            self.requests_served += 1
            return {
                "shard": state.shard.shard_id,
                "epoch": state.epoch,
                **pack_results(results),
                "ann": bool(
                    probes is not None and not exact and state.ann is not None
                ),
            }
        if op == "stats":
            # Metrics federation: ship this process's whole registry; the
            # router labels it per worker before merging the fleet view.
            return {
                "shard": self.shard.shard_id,
                "epoch": self.epoch,
                "snapshot": registry.snapshot(),
            }
        if op == "trace":
            trace_id = message.get("trace_id")
            if not isinstance(trace_id, str) or not trace_id:
                return {"error": "'trace_id' must be a non-empty string"}
            return {
                "shard": self.shard.shard_id,
                "spans": [s.to_dict() for s in spans_for_trace(trace_id)],
            }
        return {"error": f"unknown op {op!r}"}


# --------------------------------------------------------------------- #
# the socket loop
# --------------------------------------------------------------------- #
class _FrameHandler(socketserver.BaseRequestHandler):
    """One connection: read frames until EOF, answer each in turn."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        sock = self.request
        while True:
            try:
                message = recv_frame(sock)
            except (ConnectionError, OSError, ClusterError):
                # Peer gone, or a corrupt frame desynchronized the
                # stream: nothing more can be read, so drop this
                # connection quietly (others are unaffected).
                return
            if message is None:
                return
            try:
                response = self.server.worker.handle(message)
            except Exception as exc:  # noqa: BLE001 — keep serving
                response = {"error": repr(exc)}
            if "id" in message:
                response["id"] = message["id"]
            try:
                send_frame(sock, response)
            except (ConnectionError, OSError):
                return


class WorkerServer(socketserver.ThreadingTCPServer):
    """Threaded frame server around one :class:`ShardWorker`.

    Threads are the right shape here: the GEMM releases the GIL, the
    shard arrays are read-only, and the router keeps one long-lived
    connection (plus occasional hedge one-shots), so thread count stays
    tiny.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], worker: ShardWorker):
        super().__init__(address, _FrameHandler)
        self.worker = worker


def serve_shard(
    worker: ShardWorker,
    host: str = "127.0.0.1",
    port: int = 0,
) -> WorkerServer:
    """Bind a :class:`WorkerServer`; the caller runs ``serve_forever``."""
    return WorkerServer((host, port), worker)


# --------------------------------------------------------------------- #
# the process entry point (`repro cluster worker`)
# --------------------------------------------------------------------- #
def run_worker(
    data_dir: pathlib.Path,
    plan_json: str,
    shard_id: int,
    *,
    replica: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
    tenant: str | None = None,
    out=None,
) -> int:
    """Open the checkpoint, verify the plan, serve until SIGTERM.

    The ready banner (``cluster worker <id> ready on <host>:<port> ...``)
    is the spawn contract with the supervisor: it is printed only after
    the model is mapped and the socket is bound, so a parsed banner
    means the worker can answer queries.
    """
    out = out if out is not None else sys.stdout
    plan = ShardPlan.from_json(plan_json)
    if plan.to_json() != plan_json:
        print(
            "error: shard plan is not in canonical form — router and "
            "worker disagree byte-for-byte",
            file=sys.stderr,
        )
        return 1

    from repro.store.checkpoint import list_checkpoints
    from repro.store.durable import STORE_LAYOUT

    checkpoints = pathlib.Path(data_dir) / STORE_LAYOUT["checkpoints"]
    if plan.checkpoint:
        # Open exactly the checkpoint the plan pins — under a writable
        # cluster the store may already hold a *newer* seal (a restart
        # racing the writer); the worker starts on the plan's epoch and
        # catches up through the normal bump broadcast.
        info = next(
            (
                c
                for c in list_checkpoints(checkpoints)
                if c.path.name == plan.checkpoint
            ),
            None,
        )
        if info is None:
            print(
                f"error: the plan covers checkpoint {plan.checkpoint} but "
                f"it is not under {checkpoints} — store changed under the "
                "cluster",
                file=sys.stderr,
            )
            return 1
    else:
        info, problems = latest_valid_checkpoint(checkpoints)
        if info is None:
            detail = f" ({'; '.join(problems)})" if problems else ""
            print(f"error: no valid checkpoint under {checkpoints}{detail}",
                  file=sys.stderr)
            return 1
    epoch = int(info.manifest.get("meta", {}).get("epoch", 0))
    if epoch != plan.epoch:
        print(
            f"error: checkpoint epoch {epoch} != plan epoch {plan.epoch}",
            file=sys.stderr,
        )
        return 1
    model = open_checkpoint_model(info.path, mmap=True)
    if model.n_documents != plan.n_documents:
        print(
            f"error: checkpoint has {model.n_documents} documents but the "
            f"plan covers {plan.n_documents}",
            file=sys.stderr,
        )
        return 1

    # The quantizer is optional: a pre-format-2 checkpoint has none and
    # the worker answers probe requests by exact scan (gauge raised).
    ann = open_checkpoint_ann(info.path, mmap=True)
    worker = ShardWorker(
        model, plan.shard(shard_id), epoch=epoch, ann=ann,
        data_dir=pathlib.Path(data_dir), replica=replica, tenant=tenant,
    )
    server = serve_shard(worker, host, port)
    bound_port = server.server_address[1]

    def _stop(*_args) -> None:
        # shutdown() must run off the serve_forever thread (it joins it).
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    # The supervisor's banner parse requires pid= to stay the last token.
    tenant_token = f"tenant={tenant} " if tenant is not None else ""
    print(
        f"cluster worker {shard_id} ready on {host}:{bound_port} "
        f"rows=[{worker.shard.lo},{worker.shard.hi}) epoch={epoch} "
        f"ann={'yes' if ann is not None else 'no'} replica={replica} "
        f"{tenant_token}pid={os.getpid()}",
        file=out, flush=True,
    )
    server.serve_forever()
    server.server_close()
    print(f"cluster worker {shard_id} drained", file=out, flush=True)
    return 0
