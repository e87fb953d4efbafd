"""Length-prefixed binary frames, shared by router and workers.

One frame is::

    [4B LE payload length][4B LE header length][JSON header][sections]

The header is a small UTF-8 JSON object ``{"fields": {...},
"sections": [...]}``.  ``fields`` carries the message's plain values
(op, id, epoch, top, tenant, trace context …).  Every top-level
``np.ndarray`` value travels instead as a typed binary *section* —
``[key, dtype, shape, offset, nbytes]`` in the header, raw
little-endian bytes after it — and decodes as a read-only
``np.frombuffer`` view over the received payload.  Only ``<f8`` and
``<i8`` sections exist: query batches out, ``(indices, scores)`` result
arrays back.  The header is space-padded so sections start 8-byte
aligned.  Control ops (ping, info, bump, stats, trace) are simply
frames with no sections.

The parity guarantee rests on this: a query matrix scattered to a
worker and a score gathered back cross the wire as their raw IEEE-754
bytes, so they are bit-identical to their in-process values — ``-0.0``,
subnormals and infinities included — with no text round trip at all.
No pickling, ever: workers mmap their model from the checkpoint, and a
frame is only JSON plus typed arrays.  ``repro cluster decode-frame``
prints a captured frame for inspection.

Every way a payload can be malformed — bad UTF-8 or JSON, a header
longer than the payload, a section out of bounds, of the wrong byte
count, or of a disallowed dtype — raises :class:`ClusterError`.  The
router treats that as channel death; the worker drops the connection.

Both flavours live here so they cannot drift: blocking helpers
(:func:`send_frame` / :func:`recv_frame`) for the threaded worker, and
asyncio helpers (:func:`write_frame` / :func:`read_frame`) for the
scatter-gather router.  A clean EOF *between* frames reads as ``None``
(peer hung up); an EOF *inside* a frame raises ``ConnectionError``
(peer died mid-message) — the router treats both as worker death, but
the distinction keeps error reports honest.  Under replication that
death report is what triggers sibling failover: every pending call on
the dead channel fails with ``ConnectionError`` at once, and the
router retries each affected range on another replica inside the same
request deadline (see :mod:`repro.cluster.router`).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import socket
import struct

import numpy as np

from repro.errors import ClusterError

__all__ = [
    "MAX_FRAME_BYTES",
    "BUMP_OP",
    "SECTION_DTYPES",
    "encode_frame",
    "decode_frames",
    "send_frame",
    "recv_frame",
    "write_frame",
    "read_frame",
    "pack_results",
    "unpack_results",
]

#: Control op broadcast by the primary writer after sealing a new
#: checkpoint: ``{"op": BUMP_OP, "plan": <canonical ShardPlan JSON>}``.
#: A worker hot-remaps the named checkpoint behind an atomic swap and
#: acks with its new epoch; the superseded epoch keeps serving in-flight
#: queries until the bump after this one.
BUMP_OP = "bump"

#: Largest accepted frame payload (header and sections together); bounds
#: per-connection memory and turns a desynchronized stream (length bytes
#: read mid-message) into a loud error instead of a gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The only array types a section may carry.
SECTION_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_CODES = {dtype: code for code, dtype in SECTION_DTYPES.items()}

_LEN = struct.Struct("<I")


def encode_frame(message: dict) -> bytes:
    """Serialize one message dict into a length-prefixed frame.

    Each top-level ndarray becomes a section described in the header as
    ``[key, dtype, shape, offset, nbytes]`` (offset relative to the
    first byte after the header).
    """
    if not isinstance(message, dict):
        raise ClusterError("wire frames must be JSON objects")
    fields: dict = {}
    sections: list = []
    arrays: list[np.ndarray] = []
    offset = 0
    for key, value in message.items():
        if isinstance(value, np.ndarray):
            code = _CODES.get(value.dtype)
            if code is None:
                raise ClusterError(
                    f"array field {key!r} has dtype {value.dtype}; only "
                    f"{sorted(SECTION_DTYPES)} travel as sections"
                )
            if not value.flags.c_contiguous:
                value = value.copy()  # C order; keeps a 0-d shape
            sections.append(
                [key, code, list(value.shape), offset, value.nbytes]
            )
            arrays.append(value)
            offset += value.nbytes
        else:
            fields[key] = value
    try:
        header = json.dumps(
            {"fields": fields, "sections": sections}, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ClusterError(f"frame fields are not JSON-serializable: {exc}")
    header += b" " * (-(_LEN.size + len(header)) % 8)  # align sections
    size = _LEN.size + len(header) + offset
    if size > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame payload of {size} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return b"".join(
        [_LEN.pack(size), _LEN.pack(len(header)), header, *arrays]
    )


def _is_count(value) -> bool:
    return type(value) is int and value >= 0  # bools are not counts


def _decode_payload(payload: bytes) -> dict:
    """Inverse of :func:`encode_frame` minus the length prefix."""
    if len(payload) < _LEN.size:
        raise ClusterError(
            f"frame payload of {len(payload)} bytes has no header length"
        )
    (header_len,) = _LEN.unpack_from(payload)
    body = _LEN.size + header_len
    if body > len(payload):
        raise ClusterError(
            f"frame header of {header_len} bytes overruns the "
            f"{len(payload)}-byte payload"
        )
    try:
        header = json.loads(bytes(payload[_LEN.size:body]).decode("utf-8"))
        message, sections = header["fields"], header["sections"]
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ClusterError(f"frame header is not valid UTF-8 JSON: {exc}")
    except (TypeError, KeyError):
        raise ClusterError("frame header lacks its fields/sections")
    if type(message) is not dict or type(sections) is not list:
        raise ClusterError("wire frames must be JSON objects")
    room = len(payload) - body
    for spec in sections:
        try:
            key, code, shape, offset, nbytes = spec
            dtype = SECTION_DTYPES[code]
        except (TypeError, ValueError, KeyError):
            raise ClusterError(
                f"section descriptor {spec!r} is malformed or its dtype is "
                f"not one of {sorted(SECTION_DTYPES)}"
            )
        if not (
            type(key) is str
            and type(shape) is list
            and all(_is_count(d) for d in shape)
            and _is_count(offset)
            and _is_count(nbytes)
        ):
            raise ClusterError(f"section descriptor {spec!r} is malformed")
        count = math.prod(shape)
        if nbytes != count * dtype.itemsize:
            raise ClusterError(
                f"section {key!r} holds {nbytes} bytes but shape {shape} "
                f"of {code} needs {count * dtype.itemsize}"
            )
        if offset + nbytes > room:
            raise ClusterError(
                f"section {key!r} spans bytes [{offset}, {offset + nbytes}) "
                f"of a {room}-byte body"
            )
        if key in message:
            raise ClusterError(f"section {key!r} shadows a header field")
        arr = np.frombuffer(payload, dtype, count, body + offset)
        if len(shape) != 1:
            arr = arr.reshape(shape)
        if arr.flags.writeable:  # a bytearray/memoryview payload
            arr.flags.writeable = False
        message[key] = arr
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ClusterError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES}); "
            "stream is corrupt or desynchronized"
        )


def decode_frames(data: bytes) -> list[dict]:
    """Every message in a captured run of complete frames, in order."""
    messages = []
    at = 0
    while at < len(data):
        if len(data) - at < _LEN.size:
            raise ClusterError(f"{len(data) - at} stray bytes after frame")
        (length,) = _LEN.unpack_from(data, at)
        _check_length(length)
        end = at + _LEN.size + length
        if end > len(data):
            raise ClusterError(
                f"frame announces {length} payload bytes but only "
                f"{len(data) - at - _LEN.size} follow"
            )
        messages.append(_decode_payload(data[at + _LEN.size:end]))
        at = end
    return messages


# --------------------------------------------------------------------- #
# score results: one CSR triple per response
# --------------------------------------------------------------------- #
def pack_results(per_query) -> dict:
    """Per-query ``(indices, scores)`` arrays as three section fields.

    ``indptr`` (``q + 1`` offsets) splits the concatenated ``indices``
    and ``scores`` back into queries — three sections per response, not
    two per query, so the header stays a few hundred bytes at any batch
    size.
    """
    sizes = itertools.accumulate(idx.size for idx, _ in per_query)
    indices = [idx for idx, _ in per_query] or [np.empty(0)]
    scores = [s for _, s in per_query] or [np.empty(0)]
    return {
        "indptr": np.array([0, *sizes], dtype=np.int64),
        "indices": np.concatenate(indices).astype(np.int64, copy=False),
        "scores": np.concatenate(scores).astype(np.float64, copy=False),
    }


def unpack_results(
    response: dict, n_queries: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inverse of :func:`pack_results`; validates the CSR triple."""
    try:
        indptr = response["indptr"]
        indices = response["indices"]
        scores = response["scores"]
        bounds = indptr.tolist()
        valid = (
            indptr.dtype == SECTION_DTYPES["<i8"]
            and indices.dtype == SECTION_DTYPES["<i8"]
            and scores.dtype == SECTION_DTYPES["<f8"]
            and indices.ndim == 1
            and scores.shape == indices.shape
            and len(bounds) == n_queries + 1
            and bounds[0] == 0
            and bounds[-1] == indices.size
            and all(a <= b for a, b in zip(bounds, bounds[1:]))
        )
    except (KeyError, AttributeError, TypeError):
        valid = False
    if not valid:
        raise ClusterError(
            f"score response does not split into {n_queries} queries"
        )
    return [
        (indices[a:b], scores[a:b]) for a, b in zip(bounds, bounds[1:])
    ]


# --------------------------------------------------------------------- #
# blocking flavour (worker side)
# --------------------------------------------------------------------- #
def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if at_boundary and got == 0:
                return None
            raise ConnectionError(
                f"peer closed mid-frame ({got} of {n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exact(sock, _LEN.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    _check_length(length)
    payload = _recv_exact(sock, length, at_boundary=False)
    return _decode_payload(payload)


# --------------------------------------------------------------------- #
# asyncio flavour (router side)
# --------------------------------------------------------------------- #
async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(message))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError(
            f"peer closed mid-frame ({len(exc.partial)} of {_LEN.size} "
            "header bytes)"
        )
    (length,) = _LEN.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError(
            f"peer closed mid-frame ({len(exc.partial)} of {length} bytes)"
        )
    return _decode_payload(payload)
