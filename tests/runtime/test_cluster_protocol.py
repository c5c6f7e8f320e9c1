"""Property tests for the cluster wire protocol.

The framing layer (:func:`encode_frame` / :class:`FrameReader`) is
deliberately socket-free, so hypothesis can drive it over arbitrary
payloads and arbitrary read boundaries: every split of a frame stream
must decode to the same messages in the same order, a torn tail must
stay pending rather than decode to garbage, and wrong magic must be
rejected.  Automatic chunking must cover every batch, in order.

:class:`MessageStream` is tested here over real socketpairs: its send
bound must never reach a read, a quiet or torn socket must leave
partial frames pending, and heartbeat ``pong`` frames interleaved
between pipelined chunk replies must decode in stream order.  The
node loop's reply helpers are pinned too: each way a chunk finishes
maps to one reply shape, and a reply that cannot go out closes only
its own connection.
"""

import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import cluster
from repro.runtime.cluster import (
    MAX_FRAME_BYTES,
    FrameReader,
    MessageStream,
    ProtocolError,
    _chunk_reply,
    _send,
    encode_frame,
    parse_nodes,
)
from repro.runtime.runner import pick_chunksize, split_chunks
from repro.runtime.trial import TrialExecutionError, TrialResult

# Arbitrary picklable message payloads (no NaN: equality-checked).
payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=64),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(
        messages=st.lists(payloads, max_size=6),
        splits=st.lists(st.integers(1, 64), min_size=1, max_size=20),
    )
    def test_roundtrip_under_arbitrary_splits(self, messages, splits):
        blob = b"".join(encode_frame(m) for m in messages)
        reader = FrameReader()
        decoded = []
        position = 0
        index = 0
        while position < len(blob):
            step = splits[index % len(splits)]
            index += 1
            decoded.extend(reader.feed(blob[position : position + step]))
            position += step
        assert decoded == messages
        assert not reader.mid_frame

    @settings(max_examples=60, deadline=None)
    @given(message=payloads, cut=st.integers(min_value=1, max_value=1 << 16))
    def test_torn_tail_stays_pending(self, message, cut):
        blob = encode_frame(message)
        cut = min(cut, len(blob) - 1)
        reader = FrameReader()
        assert reader.feed(blob[:-cut]) == []
        assert reader.mid_frame
        # Feeding the rest completes the frame exactly once.
        assert reader.feed(blob[-cut:]) == [message]
        assert not reader.mid_frame

    @settings(max_examples=40, deadline=None)
    @given(first=payloads, second=payloads)
    def test_frames_do_not_bleed_into_each_other(self, first, second):
        reader = FrameReader()
        decoded = reader.feed(encode_frame(first) + encode_frame(second))
        assert decoded == [first, second]

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="magic"):
            FrameReader().feed(b"XXXX\x00\x00\x00\x01z")

    def test_oversize_frame_rejected(self):
        header = b"RPRO" + (0xFFFFFFFF).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="cap"):
            FrameReader().feed(header)

    def test_header_one_byte_over_the_cap_is_refused_after_8_bytes(self):
        # The header alone decides: no payload byte is waited for.
        at_cap = b"RPRO" + MAX_FRAME_BYTES.to_bytes(4, "big")
        reader = FrameReader()
        assert reader.feed(at_cap) == [] and reader.mid_frame
        over = b"RPRO" + (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        assert len(over) == 8
        with pytest.raises(ProtocolError, match="cap"):
            FrameReader().feed(over)

    def test_encode_refuses_a_payload_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(cluster, "MAX_FRAME_BYTES", 64)
        assert FrameReader().feed(encode_frame(b"x")) == [b"x"]
        with pytest.raises(ProtocolError, match="64-byte cap"):
            encode_frame(b"x" * 64)

    @pytest.mark.parametrize(
        "payload",
        [b"zz", b"\x80\x05N", b""],
        ids=["bad-opcode", "truncated", "empty"],
    )
    def test_undecodable_payload_rejected(self, payload):
        # A well-framed payload that does not unpickle is a protocol
        # fault, not whatever pickle happened to raise.
        header = b"RPRO" + len(payload).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameReader().feed(header + payload)


class TestReassembly:
    @settings(max_examples=40, deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=500),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_auto_chunking_always_covers_the_batch(self, total, workers):
        size = pick_chunksize(total, workers)
        chunks = split_chunks(list(range(total)), size)
        assert all(chunk for _, chunk in chunks)
        assert [v for _, chunk in chunks for v in chunk] == list(range(total))


class TestMessageStream:
    def test_send_timeout_never_leaks_into_blocking_recv(self):
        # Regression: the socket carries send_timeout, but every read
        # polls for readiness first.  If a read felt the bound, any
        # connection idle longer than send_timeout (a persistent runner
        # between batches) would be torn down.
        left, right = socket.socketpair()
        try:
            stream = MessageStream(right, send_timeout=0.1)
            stream.send(("pong", {}))
            # A frame arriving well after the send bound elapsed must
            # still reach a fully blocking recv().
            def late_reply():
                time.sleep(0.3)
                left.sendall(encode_frame(("late", {})))

            threading.Thread(target=late_reply, daemon=True).start()
            assert stream.recv() == ("late", {})
        finally:
            left.close()
            right.close()

    def test_send_timeout_is_set_on_the_socket_once(self):
        # The stream owns its socket's timeout: the bound is set at
        # construction and no send or read changes it; without a bound
        # the socket is left as it came.
        left, right = socket.socketpair()
        try:
            bounded = MessageStream(right, send_timeout=0.1)
            unbounded = MessageStream(left)
            assert right.gettimeout() == 0.1
            assert left.gettimeout() is None
            bounded.send(("pong", {}))
            assert unbounded.recv(timeout=1.0) == ("pong", {})
            assert bounded.recv(timeout=0.05) is None
            assert right.gettimeout() == 0.1
            assert left.gettimeout() is None
        finally:
            left.close()
            right.close()

    def test_send_to_a_peer_that_stopped_reading_times_out(self):
        # The bound a node's trade-off rests on: once the peer's
        # buffers are full, a send gives up after send_timeout instead
        # of blocking its loop for good.
        left, right = socket.socketpair()
        try:
            stream = MessageStream(left, send_timeout=0.2)
            frame = ("done", {"chunk": 0, "results": b"x" * (1 << 16)})
            began = time.monotonic()
            with pytest.raises(TimeoutError):
                for _ in range(10_000):
                    stream.send(frame)
            assert time.monotonic() - began < 5.0
        finally:
            left.close()
            right.close()

    def test_recv_timeout_returns_none_and_preserves_partials(self):
        left, right = socket.socketpair()
        try:
            stream = MessageStream(right)
            assert stream.recv(timeout=0.05) is None  # quiet socket
            assert stream.bytes_received == 0
            frame = encode_frame(("pong", {"at": 1.0}))
            left.sendall(frame[:5])  # torn frame...
            assert stream.recv(timeout=0.05) is None  # ...stays pending
            # ...but the bytes count as liveness: heartbeat supervision
            # must not condemn a node mid-transfer of a large frame.
            assert stream.bytes_received == 5
            left.sendall(frame[5:])
            assert stream.recv(timeout=1.0) == ("pong", {"at": 1.0})
            assert stream.bytes_received == len(frame)
        finally:
            left.close()
            right.close()

    def test_pongs_interleave_between_pipelined_replies(self):
        # The coordinator must see heartbeat pongs and out-of-order
        # chunk replies exactly as framed, whatever the read boundaries.
        left, right = socket.socketpair()
        try:
            stream = MessageStream(right)
            messages = [
                ("pong", {"at": 0.0}),
                ("done", {"chunk": 4, "results": [1]}),
                ("pong", {"at": 1.0}),
                ("done", {"chunk": 0, "results": [2]}),
                ("lost", {"chunk": 2, "reason": "draining"}),
            ]
            blob = b"".join(encode_frame(m) for m in messages)
            for i in range(0, len(blob), 7):  # adversarial boundaries
                left.sendall(blob[i : i + 7])
            assert [stream.recv(timeout=2.0) for _ in messages] == messages
        finally:
            left.close()
            right.close()


def _finished(outcome):
    """A future finished the way ``outcome`` says: a result list, an
    exception, or ``"cancelled"``."""
    future = Future()
    if outcome == "cancelled":
        future.cancel()
    elif isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)
    return future


class TestChunkReply:
    # The node's reply to each way a chunk can finish; the coordinator
    # reads these shapes and wordings, so they are the protocol.
    DIED = "a node pool worker died mid-chunk ({}); pool rebuilt"

    @pytest.mark.parametrize(
        "outcome, reply",
        [
            (
                [TrialResult(key=("sq", 2), value=4)],
                (
                    "done",
                    {
                        "chunk": 7,
                        "results": [TrialResult(key=("sq", 2), value=4)],
                    },
                ),
            ),
            (
                BrokenProcessPool("a child process terminated"),
                (
                    "lost",
                    {"chunk": 7, "reason": DIED.format("BrokenProcessPool")},
                ),
            ),
            (
                "cancelled",
                (
                    "lost",
                    {"chunk": 7, "reason": DIED.format("CancelledError")},
                ),
            ),
            (
                TrialExecutionError(("sq", 2), "ValueError: boom"),
                (
                    "failed",
                    {
                        "chunk": 7,
                        "key": ("sq", 2),
                        "detail": "ValueError: boom",
                    },
                ),
            ),
        ],
        ids=["done", "pool-broke", "cancelled", "trial-failed"],
    )
    def test_reply_names_how_the_chunk_finished(self, outcome, reply):
        assert _chunk_reply(7, _finished(outcome)) == reply

    def test_an_error_outside_the_trials_is_charged_to_the_node(self):
        kind, body = _chunk_reply(7, _finished(MemoryError("no room")))
        assert kind == "failed"
        assert body["chunk"] == 7
        assert body["key"] == ("<node>",)
        assert body["detail"].startswith("MemoryError: no room\n")


class TestNodeSend:
    # `_send` is how the node loop answers: it never raises, so one
    # coordinator's trouble cannot stop the loop serving the others.
    def test_a_closed_connection_gets_nothing(self):
        left, right = socket.socketpair()
        try:
            stream, peer = MessageStream(left), MessageStream(right)
            _send(set(), stream, ("pong", {}))
            assert peer.recv(timeout=0.05) is None
        finally:
            left.close()
            right.close()

    def test_a_gone_peer_closes_its_stream_alone(self):
        left, right = socket.socketpair()
        stream = MessageStream(left)
        other = object()
        conns = {stream, other}
        right.close()
        try:
            _send(conns, stream, ("pong", {}))
            assert conns == {other}
            assert left.fileno() == -1
        finally:
            left.close()

    def test_an_unpicklable_reply_is_answered_failed(self):
        left, right = socket.socketpair()
        try:
            stream, peer = MessageStream(left), MessageStream(right)
            conns = {stream}
            reply = ("done", {"chunk": 3, "results": [lambda: 0]})
            _send(conns, stream, reply)
            kind, body = peer.recv(timeout=1.0)
            assert kind == "failed"
            assert (body["chunk"], body["key"]) == (3, ("<node>",))
            assert body["detail"].startswith(
                "chunk reply could not be serialised: "
            )
            # Nothing of the reply that would not pickle was sent.
            assert peer.recv(timeout=0.05) is None
            assert conns == {stream}
        finally:
            left.close()
            right.close()

    def test_a_reply_over_the_frame_cap_is_answered_failed(
        self, monkeypatch
    ):
        monkeypatch.setattr(cluster, "MAX_FRAME_BYTES", 16384)
        left, right = socket.socketpair()
        try:
            stream, peer = MessageStream(left), MessageStream(right)
            conns = {stream}
            reply = ("done", {"chunk": 3, "results": [b"x" * 32768]})
            _send(conns, stream, reply)
            kind, body = peer.recv(timeout=1.0)
            assert kind == "failed"
            assert (body["chunk"], body["key"]) == (3, ("<node>",))
            assert body["detail"].startswith(
                "chunk reply could not be serialised: ProtocolError: "
            )
            assert "16384-byte cap" in body["detail"]
            assert peer.recv(timeout=0.05) is None
            assert conns == {stream}
        finally:
            left.close()
            right.close()


class TestParseNodes:
    def test_env_string_form(self):
        assert parse_nodes(" 127.0.0.1:7101 ,localhost:7102") == (
            ("127.0.0.1", 7101),
            ("localhost", 7102),
        )

    def test_pair_form(self):
        assert parse_nodes([("h", 80)]) == (("h", 80),)

    def test_trailing_comma_tolerated(self):
        # An easy shell artifact; empty segments are skipped, not fatal.
        assert parse_nodes("h1:7001,h2:7002,") == (
            ("h1", 7001),
            ("h2", 7002),
        )

    @pytest.mark.parametrize(
        "bad",
        ["nocolon", "host:notaport", "host:0", "host:70000", ":7101", ""],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_nodes(bad)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="no cluster node"):
            parse_nodes([])

    @pytest.mark.parametrize(
        "dup",
        [
            "h1:7001,h1:7001",
            "h1:7001, h1:7001 ,h2:7002",
            [("h1", 7001), ("h1", 7001)],
        ],
    )
    def test_duplicate_addresses_rejected(self, dup):
        # Two handles on one physical node would give it two
        # connections and twice its share of chunks.
        with pytest.raises(ValueError, match="duplicate"):
            parse_nodes(dup)

    def test_same_host_different_ports_allowed(self):
        assert parse_nodes("h1:7001,h1:7002") == (
            ("h1", 7001),
            ("h1", 7002),
        )
