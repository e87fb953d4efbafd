"""Minimal HTTP/JSON front end over asyncio streams (stdlib only).

The service speaks just enough HTTP/1.1 for production clients and
``curl``: request line, headers, ``Content-Length`` body, JSON in and
out, one request per connection.  No framework, no dependency — the
parser is ~40 lines over :func:`asyncio.start_server` readers.

Routes
------
``POST /search``  ``{"query": str|[tokens], "top"?, "threshold"?,
    "timeout_ms"?, "probes"?, "exact"?}``
    → ``{"epoch", "n_documents", "results": [[index, score, doc_id], ...],
    "ann"?: {"probes", "cells_probed", "candidates"}}``
    (``probes`` bounds the scan to that many coarse cells; ``exact:
    true`` forces the exhaustive scan over any server default)
``POST /add``     ``{"texts": [str, ...], "doc_ids"?: [str, ...]}``
    → ``{"epoch", "n_documents", "action", "reason"}``
``GET /healthz``  liveness + epoch + queue depth + draining flag
``GET /metrics``  the metrics-registry dump (counters/gauges/hists);
    when the service fronts cluster fleets the JSON federates every
    live worker's registry, and ``?format=prom`` renders Prometheus
    text exposition with per-worker labels instead
``GET /stats``    the obs-export snapshot (metrics registry + spans +
    slow-query tail)
``GET /trace?id=<trace_id>``  the assembled trace for one request id —
    for a cluster fleet this pulls each worker's spans over the
    ``trace`` wire op and merges them with the router's
``GET /tenants``  the tenant registry + quota status (registered/
    resident tenants, pins, admission shares)

Every route calls the one :class:`~repro.server.service.QueryService`
surface, whatever backs its tenants.

Multi-tenant routing: ``/search`` and ``/add`` take the tenant id from
a ``tenant`` body field (preferred) or an ``X-Tenant`` header; omitting
both targets the default/sole tenant.  An id the registry does not host
maps to a typed **404** with ``unknown_tenant: true`` and the offending
``tenant`` in the body; a tenant over its admission share maps to
**429** with ``reason: "tenant_quota"``.

Every request gets a trace id: the value of an ``X-Request-Id`` header
when it looks like an id, a freshly minted one otherwise.  The id is
the request's ``trace_id`` (ambient via
:func:`repro.obs.trace_context.trace_scope` for everything downstream,
including shard workers) and is echoed back as ``X-Request-Id`` on
**every** response — 2xx, 429, 503, 504 alike — so rejected or
timed-out work stays correlatable.

Status mapping: overload → **429**, draining → **503**, expired
deadline → **504**, write against a read-only cluster → **403**
(``read_only: true`` in the body), malformed/failed requests →
**400**, oversized bodies → **413**, unknown routes → **404**.  Overload rejections are
written and the connection closed before any scoring work happens —
that is the backpressure contract.

Connections are **keep-alive**: after a successful (2xx) response the
handler loops back to read the next request on the same socket, so a
client replaying queries pays the TCP handshake once.  Any error
response closes the connection — error paths may leave the stream in an
unknowable state (half-read bodies, oversize payloads), and closing is
the one resynchronization that is always correct.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse

from repro.errors import (
    ClusterReadOnlyError,
    DeadlineExceededError,
    ReproError,
    ServerOverloadError,
    UnknownTenantError,
)
from repro.obs.trace_context import TraceContext, coerce_trace_id, trace_scope
from repro.obs.tracing import span
from repro.server.service import QueryService

__all__ = ["start_http_server", "MAX_BODY_BYTES"]

#: Largest accepted request body; bounds per-connection memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict, dict] | None:
    """Parse one request: (method, path, headers, json_body); None on EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ReproError("invalid Content-Length header")
    if length > MAX_BODY_BYTES:
        raise _TooLarge()
    body: dict = {}
    if length:
        payload = await reader.readexactly(length)
        try:
            body = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ReproError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ReproError("request body must be a JSON object")
    return method, path, headers, body


class _TooLarge(Exception):
    """Internal marker: body exceeded :data:`MAX_BODY_BYTES`."""


class PlainText(str):
    """Marker: respond with this string as ``text/plain`` (not JSON)."""


def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    *,
    close: bool = True,
    request_id: str | None = None,
) -> None:
    if isinstance(payload, PlainText):
        body = str(payload).encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    connection = "close" if close else "keep-alive"
    # coerce_trace_id guarantees the id is header-safe (no CR/LF).
    request_header = (
        f"X-Request-Id: {request_id}\r\n" if request_id is not None else ""
    )
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{request_header}"
        f"Connection: {connection}\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)


def _tenant_from(headers: dict, body: dict) -> str | None:
    """The request's tenant id: ``tenant`` body field over ``X-Tenant``."""
    tenant = body.get("tenant", headers.get("x-tenant"))
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant.strip():
        raise ReproError("'tenant' must be a non-empty string")
    return tenant.strip()


async def _dispatch(
    service: QueryService, method: str, path: str, headers: dict, body: dict
):
    """Route one parsed request; returns (status, payload)."""
    path, _, query_string = path.partition("?")
    params = urllib.parse.parse_qs(query_string)
    if method == "GET" and path == "/healthz":
        return 200, service.healthz()
    if method == "GET" and path == "/stats":
        return 200, service.stats()
    if method == "GET" and path == "/tenants":
        return 200, service.tenants()
    if method == "GET" and path == "/metrics":
        if params.get("format", ["json"])[-1] == "prom":
            return 200, PlainText(await service.metrics_prom())
        return 200, await service.metrics()
    if method == "GET" and path == "/trace":
        trace_ids = params.get("id", [])
        if not trace_ids or not trace_ids[-1]:
            return 400, {"error": "missing 'id' query parameter"}
        return 200, await service.trace(trace_ids[-1])
    if method == "POST" and path == "/search":
        if "query" not in body:
            return 400, {"error": "missing 'query'"}
        probes = body.get("probes")
        if probes is not None and (
            isinstance(probes, bool)
            or not isinstance(probes, int)
            or probes < 1
        ):
            return 400, {"error": "'probes' must be a positive integer"}
        exact = body.get("exact", False)
        if not isinstance(exact, bool):
            return 400, {"error": "'exact' must be a boolean"}
        result = await service.search(
            body["query"],
            top=body.get("top"),
            threshold=body.get("threshold"),
            timeout_ms=body.get("timeout_ms"),
            probes=probes,
            exact=exact,
            tenant=_tenant_from(headers, body),
        )
        return 200, result
    if method == "POST" and path == "/add":
        texts = body.get("texts")
        if not isinstance(texts, list) or not texts:
            return 400, {"error": "'texts' must be a non-empty list"}
        result = await service.add(
            texts, body.get("doc_ids"), tenant=_tenant_from(headers, body)
        )
        return 200, result
    return 404, {"error": f"no route for {method} {path}"}


async def _handle(
    service: QueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            request_id = None
            try:
                parsed = await _read_request(reader)
                if parsed is None:
                    return
                method, path, headers, body = parsed
                # Honor a well-formed caller id, mint one otherwise; the
                # id doubles as the request's trace_id, ambient for
                # everything downstream of this point.
                request_id = coerce_trace_id(headers.get("x-request-id"))
                with trace_scope(TraceContext(trace_id=request_id)):
                    with span(
                        "http.request",
                        method=method,
                        path=path.partition("?")[0],
                    ) as request_span:
                        request_span.set_attr("request_id", request_id)
                        status, payload = await _dispatch(
                            service, method, path, headers, body
                        )
            except UnknownTenantError as exc:
                # Before ReproError: a tenant the registry does not host
                # is a routing miss (404), not a malformed request.
                status, payload = 404, {
                    "error": str(exc),
                    "unknown_tenant": True,
                    "tenant": exc.tenant,
                }
            except ServerOverloadError as exc:
                status = 503 if exc.reason == "draining" else 429
                payload = {"error": str(exc), "reason": exc.reason}
            except DeadlineExceededError as exc:
                status, payload = 504, {"error": str(exc)}
            except ClusterReadOnlyError as exc:
                # Before ReproError: a write against a read-only cluster
                # is a policy refusal (403), not a malformed request.
                status, payload = 403, {
                    "error": str(exc),
                    "read_only": True,
                }
            except _TooLarge:
                status, payload = 413, {
                    "error": f"body exceeds {MAX_BODY_BYTES} bytes"
                }
            except (ReproError, asyncio.IncompleteReadError) as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 — a request must not kill the server
                status, payload = 500, {"error": repr(exc)}
            # Every response carries the id — a 429/503/504 without one
            # would leave the rejected work uncorrelatable.  A request
            # that died before its headers parsed still gets a fresh id.
            if request_id is None:
                request_id = coerce_trace_id(None)
            if isinstance(payload, dict) and status >= 400:
                payload.setdefault("request_id", request_id)
            # Errors close: the stream may hold a half-read body, and
            # closing is the only resynchronization that is always right.
            close = status >= 400
            _respond(
                writer, status, payload, close=close, request_id=request_id
            )
            await writer.drain()
            if close:
                return
    except ConnectionError:
        pass  # client went away mid-response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def start_http_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 8080
) -> asyncio.AbstractServer:
    """Bind and start serving; ``port=0`` picks an ephemeral port.

    The bound port is ``server.sockets[0].getsockname()[1]``.  Callers
    own shutdown ordering: close this server (stop accepting), then
    ``await service.drain()`` (finish queued work).
    """
    await service.start()
    return await asyncio.start_server(
        lambda r, w: _handle(service, r, w), host, port
    )
