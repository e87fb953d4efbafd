"""Tests for the cluster's plan, wire framing, and shard-worker core.

Everything here is transport-light: plans and frames are exercised over
socketpairs and in-memory readers, and :class:`ShardWorker` is driven
through its :meth:`handle` dispatch directly — the multi-process paths
are covered by ``test_cluster_process.py`` and the CI smoke.
"""

import asyncio
import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.plan import PLAN_FORMAT, ShardPlan
from repro.cluster.wire import (
    MAX_FRAME_BYTES,
    _decode_payload,
    encode_frame,
    pack_results,
    read_frame,
    recv_frame,
    send_frame,
    unpack_results,
)
from repro.cluster.router import WorkerChannel
from repro.cluster.worker import ShardWorker, serve_shard
from repro.core.build import fit_lsi
from repro.errors import ClusterError, ShapeError
from repro.parallel.batch import batch_project_queries
from repro.parallel.sharding import (
    merge_topk,
    shard_bounds,
    sharded_batch_search,
)


# --------------------------------------------------------------------- #
# plan
# --------------------------------------------------------------------- #
def test_plan_matches_canonical_partition():
    plan = ShardPlan.compute(1033, 7, epoch=3, checkpoint="ckpt-00000003")
    assert plan.ranges() == shard_bounds(1033, 7)
    assert plan.n_shards == 7
    assert [s.shard_id for s in plan.shards] == list(range(7))
    # Full, disjoint cover of the document rows, in order.
    assert plan.shards[0].lo == 0
    assert plan.shards[-1].hi == 1033
    for a, b in zip(plan.shards, plan.shards[1:]):
        assert a.hi == b.lo


def test_plan_json_round_trip_is_byte_stable():
    plan = ShardPlan.compute(57, 3, epoch=1, checkpoint="ckpt-00000001")
    text = plan.to_json()
    assert ShardPlan.from_json(text) == plan
    assert ShardPlan.from_json(text).to_json() == text
    # Canonical bytes: independently computed plans agree exactly.
    again = ShardPlan.compute(57, 3, epoch=1, checkpoint="ckpt-00000001")
    assert again.to_json() == text
    assert json.loads(text)["format"] == PLAN_FORMAT


def test_plan_from_json_rejects_tampered_ranges():
    plan = ShardPlan.compute(57, 3)
    data = json.loads(plan.to_json())
    data["shards"][1] = [20, 40]  # not the canonical partition
    with pytest.raises(ClusterError, match="partition"):
        ShardPlan.from_json(json.dumps(data))


def test_plan_from_json_rejects_garbage():
    with pytest.raises(ClusterError):
        ShardPlan.from_json("not json at all")
    with pytest.raises(ClusterError):
        ShardPlan.from_json(json.dumps({"format": "other/9"}))
    with pytest.raises(ClusterError):
        ShardPlan.from_json(json.dumps({"format": PLAN_FORMAT}))


def test_plan_shard_lookup_validates():
    plan = ShardPlan.compute(10, 2)
    assert plan.shard(1).as_pair() == [5, 10]
    with pytest.raises(ShapeError):
        plan.shard(2)


# --------------------------------------------------------------------- #
# wire framing
# --------------------------------------------------------------------- #
def test_blocking_frame_round_trip():
    a, b = socket.socketpair()
    try:
        message = {"op": "score", "queries": [[0.5, -1.25e-17]], "id": 7}
        send_frame(a, message)
        send_frame(a, {"op": "ping"})
        assert recv_frame(b) == message
        assert recv_frame(b) == {"op": "ping"}
        a.close()
        assert recv_frame(b) is None  # clean EOF at a frame boundary
    finally:
        b.close()


def test_blocking_frame_mid_frame_eof_raises():
    a, b = socket.socketpair()
    try:
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[: len(frame) - 2])  # truncate inside the payload
        a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_frame_floats_round_trip_exactly():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(64) * 10.0 ** rng.integers(-12, 12, 64)
    a, b = socket.socketpair()
    try:
        send_frame(a, {"v": values.tolist()})
        got = np.asarray(recv_frame(b)["v"], dtype=np.float64)
        assert np.array_equal(got, values)
    finally:
        a.close()
        b.close()


def test_encode_frame_rejects_bad_messages():
    with pytest.raises(ClusterError):
        encode_frame(["not", "a", "dict"])


def test_oversize_announcement_rejected():
    a, b = socket.socketpair()
    try:
        import struct

        a.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ClusterError, match="desynchronized|cap"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_asyncio_frame_round_trip():
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"op": "info", "id": 3}))
        reader.feed_eof()
        first = await read_frame(reader)
        second = await read_frame(reader)
        return first, second

    first, second = asyncio.run(main())
    assert first == {"op": "info", "id": 3}
    assert second is None


def test_asyncio_frame_mid_frame_eof_raises():
    async def main():
        reader = asyncio.StreamReader()
        frame = encode_frame({"op": "info"})
        reader.feed_data(frame[:-1])
        reader.feed_eof()
        with pytest.raises(ConnectionError, match="mid-frame"):
            await read_frame(reader)

    asyncio.run(main())


# --------------------------------------------------------------------- #
# binary sections and the malformed-frame contract
# --------------------------------------------------------------------- #
def _wire(message):
    """One trip through the real codec (the frame minus its length prefix)."""
    return _decode_payload(encode_frame(message)[4:])


def _payload(header: bytes, body: bytes = b"") -> bytes:
    """A hand-built payload: header length, raw header bytes, body."""
    return struct.pack("<I", len(header)) + header + body


def _section_payload(spec: list, body: bytes, fields=None) -> bytes:
    header = {"fields": fields or {}, "sections": [spec]}
    return _payload(json.dumps(header).encode(), body)


def test_array_fields_travel_as_raw_read_only_sections():
    Q = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
    frame = encode_frame({"op": "score", "queries": Q, "id": 1})
    assert Q.tobytes() in frame  # raw IEEE bytes, not text
    got = _decode_payload(frame[4:])
    assert got["op"] == "score" and got["id"] == 1
    assert got["queries"].dtype == np.dtype("<f8")
    assert got["queries"].shape == (2, 3)
    assert got["queries"].tobytes() == Q.tobytes()
    assert not got["queries"].flags.writeable
    header_len = struct.unpack_from("<I", frame, 4)[0]
    assert (4 + header_len) % 8 == 0  # sections 8-byte aligned in payload
    # Non-contiguous arrays travel too (copied to C order on the way).
    assert _wire({"v": Q.T})["v"].tolist() == Q.T.tolist()
    # A control op is a frame with no sections.
    assert json.loads(encode_frame({"op": "ping"})[8:])["sections"] == []


@pytest.mark.parametrize(
    "value",
    [
        np.zeros(3, np.float32),
        np.zeros(3, np.int32),
        np.zeros(3, bool),
        np.zeros(3, ">f8"),
    ],
)
def test_encode_rejects_disallowed_section_dtypes(value):
    with pytest.raises(ClusterError, match="dtype"):
        encode_frame({"v": value})


def test_encode_cap_covers_sections():
    # np.zeros is calloc-backed: the cap check fires before any copy.
    with pytest.raises(ClusterError, match="exceeds"):
        encode_frame({"v": np.zeros(MAX_FRAME_BYTES // 8, np.float64)})


def _spec(key="v", dtype="<f8", shape=(2,), offset=0, nbytes=16) -> list:
    """A section descriptor: ``[key, dtype, shape, offset, nbytes]``."""
    return [key, dtype, shape, offset, nbytes]


MALFORMED_PAYLOADS = {
    "no header length": b"\xc3",
    "bad utf-8": _payload(b"\xc3("),
    "bad json": _payload(b'{"fields":'),
    "header not an object": _payload(b"[1, 2]"),
    "header without sections": _payload(b'{"fields": {}}'),
    "fields not an object": _payload(b'{"fields": [], "sections": []}'),
    "header overruns payload": struct.pack("<I", 100) + b"{}",
    "section past the body": _section_payload(_spec(offset=8), bytes(16)),
    "section negative offset": _section_payload(_spec(offset=-8), bytes(16)),
    "section byte count != shape x itemsize": _section_payload(
        _spec(shape=[3]), bytes(24)
    ),
    "section negative dimension": _section_payload(
        _spec(shape=[-1, -2]), bytes(16)
    ),
    "section dtype not allowed": _section_payload(
        _spec(dtype="<f4", shape=[4]), bytes(16)
    ),
    "section object dtype": _section_payload(_spec(dtype="|O"), bytes(16)),
    "section shape not a list": _section_payload(_spec(shape="2"), bytes(16)),
    "section descriptor too short": _section_payload(_spec()[:3], bytes(16)),
    "section shadows a field": _section_payload(
        _spec(), bytes(16), fields={"v": 1}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_malformed_payload_raises_cluster_error(case):
    with pytest.raises(ClusterError):
        _decode_payload(MALFORMED_PAYLOADS[case])


def _triple(**changes) -> dict:
    good = pack_results(
        [
            (np.array([4, 2]), np.array([0.9, 0.5])),
            (np.array([7]), np.array([0.1])),
        ]
    )
    good.update(changes)
    return {k: v for k, v in good.items() if v is not None}


def test_pack_unpack_results_round_trip():
    per_query = unpack_results(_wire(_triple()), 2)
    assert [(i.tolist(), s.tolist()) for i, s in per_query] == [
        ([4, 2], [0.9, 0.5]),
        ([7], [0.1]),
    ]
    empty = unpack_results(_wire(pack_results([])), 0)
    assert empty == []


@pytest.mark.parametrize(
    "broken",
    [
        dict(indptr=None),
        dict(indptr=np.array([0, 2])),  # one query short
        dict(indptr=np.array([1, 2, 3])),  # does not start at 0
        dict(indptr=np.array([0, 3, 2])),  # decreasing
        dict(indptr=np.array([0, 2, 4])),  # overruns the arrays
        dict(indptr=np.array([0.0, 2.0, 3.0])),
        dict(indices=np.array([4.0, 2.0, 7.0])),
        dict(scores=np.array([0.9, 0.5])),
        dict(scores=[0.9, 0.5, 0.1]),
    ],
)
def test_unpack_results_rejects_malformed_triples(broken):
    with pytest.raises(ClusterError):
        unpack_results(_triple(**broken), 2)


def test_malformed_frame_raises_cluster_error_on_both_transports():
    frame = struct.pack("<I", 1) + b"\xc3"
    a, b = socket.socketpair()
    try:
        a.sendall(frame)
        with pytest.raises(ClusterError):
            recv_frame(b)
    finally:
        a.close()
        b.close()

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        with pytest.raises(ClusterError):
            await read_frame(reader)

    asyncio.run(main())


def test_router_channel_dies_at_once_on_a_corrupt_frame():
    # A corrupt response must fail the pending call with ConnectionError
    # (the router's failover signal) immediately and mark the channel
    # closed — not leave the call waiting out its deadline.
    async def main():
        async def serve(reader, writer):
            await read_frame(reader)
            writer.write(struct.pack("<I", 1) + b"\xc3")
            await writer.drain()
            await reader.read()  # hold the connection open

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        channel = await WorkerChannel.connect("127.0.0.1", port)
        try:
            with pytest.raises(ConnectionError, match="ClusterError"):
                await asyncio.wait_for(channel.call({"op": "ping"}), 5.0)
            assert channel.closed
        finally:
            await channel.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def test_worker_drops_a_corrupt_connection_quietly(cluster_model, capsys):
    model, _ = cluster_model
    plan = ShardPlan.compute(model.n_documents, 1)
    server = serve_shard(ShardWorker(model, plan.shard(0)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        address = server.server_address
        with socket.create_connection(address, timeout=5) as bad:
            bad.sendall(struct.pack("<I", 1) + b"\xc3")
            assert bad.recv(1) == b""  # closed, no reply
        with socket.create_connection(address, timeout=5) as good:
            send_frame(good, {"op": "ping", "id": 1})
            assert recv_frame(good)["ok"] is True
    finally:
        server.shutdown()
        server.server_close()
    assert "Traceback" not in capsys.readouterr().err


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


@settings(max_examples=200, deadline=None)
@given(
    floats=hnp.arrays(np.dtype("<f8"), _SHAPES),
    ints=hnp.arrays(np.dtype("<i8"), _SHAPES),
)
@example(
    floats=np.array([[-0.0, 5e-324, np.inf], [-np.inf, 2.2e-308, 0.0]]),
    ints=np.array([np.iinfo(np.int64).min, -1, np.iinfo(np.int64).max]),
)
@example(floats=np.empty((0, 64)), ints=np.empty(0, dtype=np.int64))
def test_section_codec_round_trip_is_bit_exact(floats, ints):
    got = _wire({"op": "score", "queries": floats, "indices": ints, "id": 9})
    assert got["op"] == "score" and got["id"] == 9
    for sent, back in ((floats, got["queries"]), (ints, got["indices"])):
        assert back.dtype == sent.dtype
        assert back.shape == sent.shape
        assert back.tobytes() == sent.tobytes()


def test_cli_decode_frame_prints_fields_and_sections(tmp_path, capsys):
    import io

    from repro.cli import main as cli_main

    capture = tmp_path / "frames.bin"
    capture.write_bytes(
        encode_frame(
            {"op": "score", "id": 3, "queries": np.array([[0.5, -0.0]])}
        )
        + encode_frame({"op": "ping"})
    )
    out = io.StringIO()
    assert cli_main(
        ["--no-obs", "cluster", "decode-frame", str(capture)], out=out
    ) == 0
    text = out.getvalue()
    assert "frame 0" in text and "frame 1" in text
    assert '  op: "score"' in text and "  id: 3" in text
    assert "queries: <f8 (1, 2) [[ 0.5, -0. ]]" in text
    capture.write_bytes(capture.read_bytes()[:-1])  # truncated capture
    assert cli_main(
        ["--no-obs", "cluster", "decode-frame", str(capture)], out=out
    ) == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# shard worker core (no sockets)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cluster_model():
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(57)]
    return fit_lsi(texts, 12), texts


def test_shard_workers_reproduce_flat_sharded_search(cluster_model):
    model, texts = cluster_model
    queries = texts[:5]
    shards = 3
    top = 7
    flat = sharded_batch_search(model, queries, top=top, shards=shards)

    plan = ShardPlan.compute(model.n_documents, shards)
    workers = [ShardWorker(model, plan.shard(i)) for i in range(shards)]
    Qs = batch_project_queries(model, queries) * model.s
    # Simulate the wire: queries and scores go through the real codec.
    request = _wire({"op": "score", "queries": Qs, "top": top})
    responses = [_wire(w.handle(request)) for w in workers]
    for sid, response in enumerate(responses):
        assert response["shard"] == sid
    per_range = [unpack_results(r, len(queries)) for r in responses]
    merged = []
    for qi in range(len(queries)):
        per_shard = [arrays[qi] for arrays in per_range]
        merged.append(merge_topk(per_shard, top))
    assert merged == flat  # indices, scores, and tie order


def test_shard_worker_indices_are_global(cluster_model):
    model, texts = cluster_model
    plan = ShardPlan.compute(model.n_documents, 3)
    worker = ShardWorker(model, plan.shard(2))
    Qs = (batch_project_queries(model, texts[:1]) * model.s).tolist()
    results = worker.handle({"op": "score", "queries": Qs, "top": 50})
    lo, hi = plan.shard(2).as_pair()
    indices = unpack_results(results, 1)[0][0].tolist()
    assert indices and all(lo <= i < hi for i in indices)


def test_shard_worker_ping_info_and_unknown_op(cluster_model):
    model, _ = cluster_model
    plan = ShardPlan.compute(model.n_documents, 2)
    worker = ShardWorker(model, plan.shard(0), epoch=4)
    assert worker.handle({"op": "ping"}) == {
        "ok": True, "shard": 0, "epoch": 4,
    }
    info = worker.handle({"op": "info"})
    assert info["lo"] == 0 and info["hi"] == plan.shard(0).hi
    assert info["n_documents"] == model.n_documents
    assert "error" in worker.handle({"op": "nonsense"})


def test_shard_worker_malformed_queries_answered_not_fatal(cluster_model):
    model, _ = cluster_model
    plan = ShardPlan.compute(model.n_documents, 2)
    worker = ShardWorker(model, plan.shard(0))
    assert "error" in worker.handle({"op": "score"})
    assert "error" in worker.handle({"op": "score", "queries": "nope"})
    wrong_k = [[0.0] * (model.k + 1)]
    assert "error" in worker.handle({"op": "score", "queries": wrong_k})


def test_shard_worker_empty_shard(cluster_model):
    model, _ = cluster_model
    # More shards than documents → some shards are empty.
    plan = ShardPlan.compute(3, 5)
    empty = next(s for s in plan.shards if s.n_rows == 0)
    worker = ShardWorker(model, empty)
    got = worker.score(np.zeros((2, model.k)), 5, None)
    assert [(idx.tolist(), s.tolist()) for idx, s in got] == [([], [])] * 2
    assert all(
        idx.dtype == np.int64 and s.dtype == np.float64 for idx, s in got
    )


def test_shard_worker_rejects_out_of_range_shard(cluster_model):
    model, _ = cluster_model
    from repro.cluster.plan import ShardRange

    with pytest.raises(ShapeError):
        ShardWorker(model, ShardRange(0, 0, model.n_documents + 1))
