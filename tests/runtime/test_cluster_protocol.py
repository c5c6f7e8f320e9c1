"""Property tests for the cluster wire protocol.

The framing layer (:func:`encode_frame` / :class:`FrameReader`) is
deliberately socket-free, so hypothesis can drive it over arbitrary
payloads and arbitrary read boundaries: every split of a frame stream
must decode to the same messages in the same order, a torn tail must
stay pending rather than decode to garbage, and wrong magic must be
rejected.  Automatic chunking must cover every batch, in order.

The pipelined protocol adds two concurrency surfaces, tested here over
real socketpairs: :class:`MessageStream` sends racing from many
threads (node-pool callbacks versus pong replies) must never
interleave bytes mid-frame, and heartbeat ``pong`` frames interleaved
between pipelined chunk replies must decode in stream order.
"""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.cluster import (
    FrameReader,
    MessageStream,
    ProtocolError,
    encode_frame,
    parse_nodes,
)
from repro.runtime.runner import pick_chunksize, split_chunks

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


class TestMessageStreamConcurrency:
    @settings(max_examples=10, deadline=None)
    @given(
        senders=st.integers(min_value=2, max_value=6),
        per_sender=st.integers(min_value=1, max_value=20),
    )
    def test_concurrent_sends_never_interleave(self, senders, per_sender):
        # Many threads hammering one stream (the node-side shape: pool
        # callbacks replying `done` while the connection thread replies
        # `pong`): every frame must arrive intact and per-sender order
        # must survive, even though global interleaving is arbitrary.
        left, right = socket.socketpair()
        try:
            stream = MessageStream(left)
            payload = b"x" * 700  # forces multi-chunk reads
            threads = [
                threading.Thread(
                    target=lambda s=s: [
                        stream.send(("msg", {"sender": s, "seq": i,
                                             "pad": payload}))
                        for i in range(per_sender)
                    ]
                )
                for s in range(senders)
            ]
            for thread in threads:
                thread.start()
            # Drain while the senders run: joining first would deadlock
            # once the batch overflows the socketpair buffer (senders
            # blocked in sendall waiting on a reader that never comes).
            reader = FrameReader()
            received = []
            right.settimeout(5)
            while len(received) < senders * per_sender:
                received.extend(reader.feed(right.recv(1 << 16)))
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            seen = {s: [] for s in range(senders)}
            for kind, body in received:
                assert kind == "msg"
                assert body["pad"] == payload
                seen[body["sender"]].append(body["seq"])
            assert all(
                seqs == list(range(per_sender)) for seqs in seen.values()
            )
        finally:
            left.close()
            right.close()

    def test_send_timeout_never_leaks_into_blocking_recv(self):
        # Regression: send() applies send_timeout to the socket for
        # the duration of the sendall only.  If the bound survived the
        # send, the node-side blocking recv() would inherit it and any
        # coordinator connection idle longer than send_timeout (a
        # persistent runner between batches) would be torn down.
        left, right = socket.socketpair()
        try:
            stream = MessageStream(right, send_timeout=0.1)
            stream.send(("pong", {}))
            assert right.gettimeout() is None  # restored after sendall
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

    def test_recv_timeout_does_not_alter_socket_timeout(self):
        # recv() polls readiness with select; it must not mutate the
        # socket timeout other threads' sends rely on restoring.
        left, right = socket.socketpair()
        try:
            right.settimeout(7.5)
            stream = MessageStream(right)
            assert stream.recv(timeout=0.05) is None
            assert right.gettimeout() == 7.5
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
