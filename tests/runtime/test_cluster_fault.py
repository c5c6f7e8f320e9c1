"""Fault injection for the cluster executor.

These tests run self-managed clusters (the runner spawns its own
localhost node processes) so killing nodes cannot disturb the
session-shared nodes of the conformance suite.  Faults are injected
from inside trials, at both failure domains the node-side pool
creates:

* **pool-worker faults** — :func:`repro.runtime.testing.exit_hard` /
  :func:`~repro.runtime.testing.exit_once_then` kill the pool worker
  executing the trial.  The *node survives*: it rebuilds its pool and
  answers ``lost``, and the coordinator requeues the chunk through the
  retry path without dropping the connection.
* **node faults** — :func:`~repro.runtime.testing.kill_node` /
  :func:`~repro.runtime.testing.kill_node_once` kill the whole node
  process (a dead socket mid-batch, the pre-pool failure shape), and
  :func:`~repro.runtime.testing.wedge_node_once` SIGSTOPs it with the
  socket healthy — the hang only heartbeat supervision can catch.

Recovery must stay invisible either way: trials are pure, so every
completed run's results are byte-identical to ``SerialRunner``'s.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing

import pytest

from repro.runtime import (
    ClusterRunner,
    SerialRunner,
    TrialExecutionError,
    TrialSpec,
)
from repro.runtime import testing as kit
from repro.runtime.cluster import (
    PROTOCOL_VERSION,
    READY_PREFIX,
    LocalNode,
    MessageStream,
    ProtocolError,
    _Node,
    _terminate_nodes,
    encode_frame,
    spawn_local_nodes,
)
from repro.runtime.trial import TrialResult

NODES_ENV = "REPRO_CLUSTER_NODES"
NODE_WORKERS_ENV = "REPRO_NODE_WORKERS"
HEARTBEAT_ENV = "REPRO_HEARTBEAT"


@pytest.fixture(autouse=True)
def _self_managed_only(monkeypatch):
    for var in (
        NODES_ENV,
        "REPRO_WORKERS",
        "REPRO_CHUNKSIZE",
        NODE_WORKERS_ENV,
        HEARTBEAT_ENV,
    ):
        monkeypatch.delenv(var, raising=False)


# -- node-death faults (dead socket mid-batch) -----------------------------


def test_node_death_mid_batch_completes_on_survivor(tmp_path):
    # One node dies executing the killer spec; its outstanding chunks
    # are requeued to the surviving node and the batch finishes with
    # results identical to serial execution of the same (pure) trials.
    latch = tmp_path / "latch"
    seeded = kit.seeded_specs(8, label="fault")
    killer = TrialSpec(
        key=("kill",), fn=kit.kill_node_once, args=(7.5, str(latch))
    )
    batch = seeded[:4] + [killer] + seeded[4:]
    latch.touch()  # serial reference: the pure, post-fault behaviour
    expected = SerialRunner().run(batch)
    latch.unlink()
    with ClusterRunner(workers=2, chunksize=1, retries=3) as runner:
        assert runner.run(batch) == expected


def test_workload_batch_survives_node_death(tmp_path):
    # Same requeue, but with a shared workload in play: the requeued
    # chunk carries it to the surviving node.
    latch = tmp_path / "latch"
    workload = kit.make_workload("fault-payload")
    specs = kit.workload_specs(workload, 8)
    killer = TrialSpec(
        key=("kill",), fn=kit.kill_node_once, args=(1.0, str(latch))
    )
    batch = specs[:3] + [killer] + specs[3:]
    latch.touch()
    expected = SerialRunner().run(batch)
    latch.unlink()
    with ClusterRunner(workers=2, chunksize=1, retries=3) as runner:
        assert runner.run(batch) == expected


def test_all_nodes_lost_reports_unfinished_chunks():
    # A generous retry cap, but the killer takes out every node it
    # reaches: the run must fail naming what never finished rather
    # than hang waiting for nodes that no longer exist.
    batch = kit.square_specs(4) + [TrialSpec(key=("die",), fn=kit.kill_node)]
    with ClusterRunner(workers=2, chunksize=1, retries=10) as runner:
        with pytest.raises(TrialExecutionError, match="nodes lost"):
            runner.run(batch)


def test_partial_node_loss_heals_before_next_batch(tmp_path):
    # One node dies mid-batch; the batch completes on the survivor.
    # The *next* batch must not run on a permanently shrunken cluster:
    # the dead self-managed node is respawned first.
    latch = tmp_path / "latch"
    killer = TrialSpec(
        key=("kill",), fn=kit.kill_node_once, args=(0.0, str(latch))
    )
    with ClusterRunner(workers=2, chunksize=1, retries=3) as runner:
        runner.run(kit.square_specs(6) + [killer])
        assert sum(node.alive for node in runner._nodes) == 1
        assert runner.run_values(kit.square_specs(6)) == [
            i * i for i in range(6)
        ]
        assert sum(node.alive for node in runner._nodes) == 2


def test_runner_recovers_after_failed_run():
    # A run that lost its nodes discards them; the next run respawns a
    # fresh self-managed cluster and succeeds.
    runner = ClusterRunner(workers=2, chunksize=1, retries=0)
    with runner:
        with pytest.raises(TrialExecutionError):
            runner.run(
                kit.square_specs(4)
                + [TrialSpec(key=("die",), fn=kit.kill_node)]
            )
        assert runner.run_values(kit.square_specs(6)) == [
            i * i for i in range(6)
        ]


# -- pool-worker faults (the node itself survives) -------------------------


def test_pool_worker_crash_requeues_without_losing_the_node(tmp_path):
    # The killer takes out the pool worker executing it, not the node:
    # the node rebuilds its pool, answers `lost`, and the coordinator
    # requeues over the *same* connection — every node stays alive and
    # the results are byte-identical to serial.
    latch = tmp_path / "latch"
    seeded = kit.seeded_specs(8, label="worker-crash")
    killer = TrialSpec(
        key=("kill",), fn=kit.exit_once_then, args=(7.5, str(latch))
    )
    batch = seeded[:4] + [killer] + seeded[4:]
    latch.touch()
    expected = SerialRunner().run(batch)
    latch.unlink()
    with ClusterRunner(workers=2, chunksize=1, retries=3) as runner:
        assert runner.run(batch) == expected
        assert all(node.alive for node in runner._nodes)


def test_retry_cap_exhaustion_names_the_lost_chunk():
    # A chunk that breaks the pool of every node that tries it burns
    # one retry per `lost` reply; exhaustion names the chunk.  The pool
    # is pinned to 1, so each node holds one chunk and no innocent
    # neighbour is in flight when the pool breaks.
    batch = kit.square_specs(6) + [
        TrialSpec(key=("die", 0), fn=kit.exit_hard)
    ]
    with ClusterRunner(
        workers=2, chunksize=1, retries=0, node_workers=1
    ) as runner:
        with pytest.raises(TrialExecutionError) as err:
            runner.run(batch)
    message = str(err.value)
    assert "retry cap" in message
    assert "die" in message  # the lost chunk is named by its keys


def test_unshippable_chunk_fails_instead_of_hanging():
    # A spec whose arguments cannot pickle is the chunk's fault, not a
    # node fault: the run must raise promptly (naming the chunk), not
    # requeue it around the cluster or strand the coordinator.
    bad = TrialSpec(key=("unpicklable",), fn=kit.square, args=(lambda: 1,))
    with ClusterRunner(workers=2, chunksize=1) as runner:
        with pytest.raises(TrialExecutionError, match="could not be shipped"):
            runner.run(kit.square_specs(6) + [bad])


def test_unpicklable_result_surfaces_the_real_cause():
    # A trial whose *result* will not pickle executes fine in the pool
    # worker but cannot ship back; the failure must surface as a trial
    # error naming the serialisation problem — not kill the node or be
    # misdiagnosed as a lost chunk.
    bad = TrialSpec(key=("badvalue",), fn=kit.unpicklable_value, args=(0,))
    with ClusterRunner(workers=2, chunksize=1, retries=0) as runner:
        with pytest.raises(TrialExecutionError) as err:
            runner.run(kit.square_specs(6) + [bad])
        assert "pickle" in err.value.detail.lower()
        # The nodes themselves shrugged the failure off.
        assert runner.run_values(kit.square_specs(4)) == [0, 1, 4, 9]


# -- wedged nodes (heartbeat supervision) ----------------------------------


def test_wedged_node_detected_and_chunks_requeued(tmp_path):
    # The wedge SIGSTOPs one node mid-batch: its socket stays open, so
    # only the heartbeat deadline can catch it.  The coordinator must
    # declare the node lost, requeue its in-flight chunks on the
    # survivor, and still produce serial-identical results.
    latch = tmp_path / "latch"
    seeded = kit.seeded_specs(8, label="wedge")
    wedger = TrialSpec(
        key=("wedge",), fn=kit.wedge_node_once, args=(3.25, str(latch))
    )
    batch = seeded[:4] + [wedger] + seeded[4:]
    latch.touch()
    expected = SerialRunner().run(batch)
    latch.unlink()
    with ClusterRunner(
        workers=2, chunksize=1, retries=3, heartbeat=1.5
    ) as runner:
        start = time.monotonic()
        assert runner.run(batch) == expected
        elapsed = time.monotonic() - start
        # Detection is bounded by the deadline (plus scheduling slack),
        # not by some multi-minute TCP timeout.
        assert elapsed < 30
        assert sum(node.alive for node in runner._nodes) == 1


def test_wedged_node_with_workloads_still_byte_identical(tmp_path):
    # Same wedge with shared workloads in play: requeued chunks carry
    # their workloads to the survivor.
    latch = tmp_path / "latch"
    workload = kit.make_workload("wedge-payload")
    specs = kit.workload_specs(workload, 8)
    wedger = TrialSpec(
        key=("wedge",), fn=kit.wedge_node_once, args=(0.5, str(latch))
    )
    batch = specs[:3] + [wedger] + specs[3:]
    latch.touch()
    expected = SerialRunner().run(batch)
    latch.unlink()
    with ClusterRunner(
        workers=2, chunksize=1, retries=3, heartbeat=1.5
    ) as runner:
        assert runner.run(batch) == expected


def _welcome(workers=1):
    return (
        "welcome",
        {"version": PROTOCOL_VERSION, "pid": 0, "workers": workers},
    )


def _serve_fake(server: socket.socket, on_chunk, workers=1) -> None:
    """A one-connection fake in-process node of pool width ``workers``:
    prompt handshake and pongs, with the ``chunk`` reply delegated to
    ``on_chunk(body)`` — the only part the fault scenarios differ in."""
    try:
        conn, _ = server.accept()
    except OSError:
        return
    stream = MessageStream(conn)
    try:
        while True:
            try:
                kind, body = stream.recv()
            except (ConnectionError, ProtocolError, OSError):
                return
            if kind == "hello":
                stream.send(_welcome(workers))
            elif kind == "ping":
                stream.send(("pong", body))
            elif kind == "chunk":
                stream.send(on_chunk(body))
            else:
                return
    finally:
        stream.close()


def _start_fake_node(on_chunk, workers=1):
    """Bind an ephemeral port and serve one connection on a daemon
    thread; returns ``(listening socket, "host:port")``."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen()
    threading.Thread(
        target=_serve_fake, args=(server, on_chunk, workers), daemon=True
    ).start()
    return server, f"127.0.0.1:{server.getsockname()[1]}"


def _done_reply(body):
    return (
        "done",
        {
            "chunk": body["chunk"],
            "results": [spec.execute() for spec in body["specs"]],
        },
    )


def test_slow_shipment_does_not_trip_heartbeat(monkeypatch):
    # Regression: a shipment that itself outlasts the heartbeat
    # deadline must not condemn a healthy node.  Silence only counts
    # from the moment the coordinator resumed listening — not from the
    # last frame received before a long blocking send, during which no
    # ping was outstanding and the node owed nothing.  The fake node
    # replies late enough that the first post-ship poll sees a quiet
    # socket, which the stale basis would misread as a wedged node.
    def slow_done(body):
        time.sleep(2.75)  # pongs queue behind this too
        return _done_reply(body)

    server, address = _start_fake_node(slow_done)

    real_ship = ClusterRunner._ship_task

    def slow_ship(self, node, task):
        real_ship(self, node, task)
        time.sleep(2.25)  # > the 1.5s heartbeat deadline below

    monkeypatch.setattr(ClusterRunner, "_ship_task", slow_ship)
    try:
        with ClusterRunner(
            nodes=[address], chunksize=4, retries=0, heartbeat=1.5
        ) as runner:
            assert runner.run_values(kit.square_specs(4)) == [0, 1, 4, 9]
    finally:
        server.close()


def test_silent_node_is_dropped_while_a_peer_keeps_working():
    # One fake node welcomes the runner, then never answers, not even
    # a ping; beside it a node answers each chunk 0.1s late, so chunks
    # ship to it all batch long.  Those sends must not restart the
    # silent node's clock: it is dropped at the heartbeat deadline, and
    # its chunk requeues to the peer, long before the batch ends.
    server, port = _listener()
    closed = []

    def silent():
        try:
            conn, _ = server.accept()
        except OSError:
            return
        stream = MessageStream(conn)
        try:
            stream.recv(timeout=10)
            stream.send(_welcome())
            while True:
                stream.recv()
        except (ConnectionError, ProtocolError, OSError):
            closed.append(time.monotonic())
        finally:
            stream.close()

    def late_done(body):
        time.sleep(0.1)
        return _done_reply(body)

    threading.Thread(target=silent, daemon=True).start()
    peer, peer_address = _start_fake_node(late_done)
    try:
        with ClusterRunner(
            nodes=[f"127.0.0.1:{port}", peer_address],
            chunksize=1,
            heartbeat=1.0,
        ) as runner:
            start = time.monotonic()
            assert runner.run_values(kit.square_specs(40)) == [
                i * i for i in range(40)
            ]
            elapsed = time.monotonic() - start
    finally:
        server.close()
        peer.close()
    assert elapsed > 3.5  # forty 0.1s answers from one node
    assert closed, "the silent node's connection was never closed"
    assert closed[0] - start < 2.0


def test_a_batch_starts_no_thread(monkeypatch):
    # One loop on the calling thread runs the batch: once connected,
    # a run starts no thread, whatever the number of nodes and chunks.
    def refuse(thread):
        raise AssertionError(f"the batch started thread {thread.name}")

    fakes = [_start_fake_node(_done_reply, workers=2) for _ in range(2)]
    try:
        with ClusterRunner(
            nodes=[address for _, address in fakes], chunksize=1
        ) as runner:
            assert runner.run_values(kit.square_specs(2)) == [0, 1]
            monkeypatch.setattr(threading.Thread, "start", refuse)
            assert runner.run_values(kit.square_specs(12)) == [
                i * i for i in range(12)
            ]
    finally:
        for server, _ in fakes:
            server.close()


def test_heartbeat_zero_disables_supervision():
    # heartbeat=0 must be accepted (the old no-supervision behaviour)
    # and a healthy cluster must run normally under it.
    with ClusterRunner(workers=2, chunksize=1, heartbeat=0) as runner:
        assert runner.heartbeat == 0.0
        assert runner.run_values(kit.square_specs(6)) == [
            i * i for i in range(6)
        ]


# -- node width: chunks in flight and the batch split ----------------------


@pytest.mark.parametrize("width", [1, 2, 3])
def test_node_width_caps_its_chunks_in_flight(width):
    # A node that announces width w is sent w chunks at once, never
    # w + 1.  The fake answers each chunk 0.2s later from a timer
    # thread, so chunks shipped meanwhile pile up where the fake can
    # count them.  A stream has one sender in the program and takes no
    # lock, so this fake, which sends from several threads, serialises
    # its own sends.
    lock = threading.Lock()
    sending = threading.Lock()
    held = []
    peak = []
    server, port = _listener()

    def answer(stream, body):
        reply = _done_reply(body)
        with lock:
            # Before the send: the coordinator ships the next chunk as
            # soon as it reads this reply.
            held.remove(body["chunk"])
        try:
            with sending:
                stream.send(reply)
        except OSError:
            pass  # the run is over and the coordinator hung up

    def fake():
        try:
            conn, _ = server.accept()
        except OSError:
            return
        stream = MessageStream(conn)
        try:
            while True:
                kind, body = stream.recv()
                if kind == "hello":
                    stream.send(_welcome(workers=width))
                elif kind == "ping":
                    with sending:
                        stream.send(("pong", body))
                elif kind == "chunk":
                    with lock:
                        held.append(body["chunk"])
                        peak.append(len(held))
                    threading.Timer(0.2, answer, (stream, body)).start()
        except (ConnectionError, ProtocolError, OSError):
            pass
        finally:
            stream.close()

    threading.Thread(target=fake, daemon=True).start()
    total = 4 * width  # four waves of chunks
    try:
        with ClusterRunner(
            nodes=[f"127.0.0.1:{port}"], chunksize=1, retries=0
        ) as runner:
            assert runner.run_values(kit.square_specs(total)) == [
                i * i for i in range(total)
            ]
    finally:
        server.close()
    assert max(peak) == width


@pytest.mark.parametrize(
    "widths, sizes",
    [
        ((1,), [8] * 4),
        ((2,), [4] * 8),
        ((1, 3), [2] * 16),
        ((4, 4), [1] * 32),
    ],
    ids=["1", "2", "1+3", "4+4"],
)
def test_batch_splits_over_the_announced_widths(widths, sizes):
    # A 32-spec batch with no chunksize splits into about four chunks
    # per announced pool worker: the widths' sum sets the chunk size,
    # not the node count (widths 1 and 3 make 16 chunks of 2 specs).
    seen = []

    def recording_done(body):
        seen.append(len(body["specs"]))
        return _done_reply(body)

    started = [
        _start_fake_node(recording_done, workers=width) for width in widths
    ]
    try:
        with ClusterRunner(
            nodes=[address for _, address in started], retries=0
        ) as runner:
            assert runner.run_values(kit.square_specs(32)) == [
                i * i for i in range(32)
            ]
    finally:
        for server, _ in started:
            server.close()
    assert sorted(seen) == sizes


def test_healed_node_is_split_for_by_its_new_width():
    # Widths come from the latest handshakes: a node lost at width 1
    # that comes back announcing width 3 gets a share to match in the
    # next batch (1 + 3 pool workers: 16 chunks of 2 specs).
    seen = []

    def recording_done(body):
        seen.append(len(body["specs"]))
        return _done_reply(body)

    def slow_recording_done(body):
        # Slow enough that the first batch cannot finish on this node
        # before the other one has been shipped its first chunk.
        time.sleep(0.05)
        return recording_done(body)

    server, port = _listener()

    def fake():
        # First life: width 1, hangs up on its first chunk.
        try:
            conn, _ = server.accept()
        except OSError:
            return
        stream = MessageStream(conn)
        try:
            stream.recv(timeout=10)
            stream.send(_welcome(1))
            while stream.recv(timeout=10)[0] != "chunk":
                pass
        except (ConnectionError, ProtocolError, OSError, TypeError):
            pass
        finally:
            stream.close()
        # Second life, dialed by the heal: width 3.
        _serve_fake(server, recording_done, workers=3)

    threading.Thread(target=fake, daemon=True).start()
    steady, steady_address = _start_fake_node(slow_recording_done, workers=1)
    squares = [i * i for i in range(32)]
    try:
        with ClusterRunner(
            nodes=[f"127.0.0.1:{port}", steady_address], retries=3
        ) as runner:
            assert runner.run_values(kit.square_specs(32)) == squares
            assert [node.alive for node in runner._nodes] == [False, True]
            seen.clear()
            assert runner.run_values(kit.square_specs(32)) == squares
            assert [node.workers for node in runner._nodes] == [3, 1]
    finally:
        server.close()
        steady.close()
    assert sorted(seen) == [2] * 16


def test_node_pool_overlaps_blocking_trials():
    # One node of width 4 holds 4 chunks at once, so eight 0.5s
    # blocking trials run in two waves (~1s), not four (~2s).
    specs = [
        TrialSpec(key=("nap", i), fn=kit.sleep_return, args=(0.5, i))
        for i in range(8)
    ]
    with kit.local_nodes(1, node_workers=4) as addresses:
        with ClusterRunner(nodes=addresses, chunksize=1) as runner:
            start = time.monotonic()
            values = runner.run_values(specs)
            elapsed = time.monotonic() - start
    assert values == list(range(8))
    assert elapsed < 1.5, f"no overlap: {elapsed:.2f}s for 8x0.5s naps"


def test_pipelining_keeps_flat_node_busy():
    # A node of width 6 holds 6 chunks at once, and its pool finishes
    # them in any order; results must still come back in submission
    # order.  (Correctness, not timing: deep pipelines must not
    # reorder.)
    specs = kit.seeded_specs(12, label="deep")
    with kit.local_nodes(1, node_workers=6) as addresses:
        with ClusterRunner(nodes=addresses, chunksize=1) as runner:
            assert runner.run(specs) == SerialRunner().run(specs)


# -- the node loop: one thread serves every coordinator --------------------


def _thread_count(pid):
    return len(os.listdir(f"/proc/{pid}/task"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc"
)
def test_a_connection_starts_no_node_thread():
    # One loop on the node's main thread owns every connection: a
    # handshake adds no thread to the node process.  (Its pool, and
    # the pool's own threads, start with the first chunk.)
    nodes = spawn_local_nodes(1, node_workers=1)
    node = nodes[0]
    try:
        before = _thread_count(node.proc.pid)
        with closing(_handshake(node.address)) as stream:
            stream.send(("ping", {"at": 0.0}))
            assert stream.recv(timeout=10) == ("pong", {"at": 0.0})
            after = _thread_count(node.proc.pid)
        assert after <= before, f"{before} -> {after} node threads"
    finally:
        for spawned in nodes:
            spawned.terminate()


def test_a_malformed_message_closes_only_its_connection():
    # The node's loop serves every connection, so a peer whose message
    # does not parse is hung up on alone: a coordinator connected
    # beside it keeps its answers, and the node still welcomes others.
    with kit.local_nodes(1) as (address,):
        with closing(_handshake(address)) as steady:
            for message in (5, ("chunk", [1]), ("hello", None)):
                with closing(_handshake(address)) as rogue:
                    rogue.send(message)
                    with pytest.raises(ConnectionError):
                        rogue.recv(timeout=10)
                steady.send(("ping", {"after": repr(message)}))
                assert steady.recv(timeout=10) == (
                    "pong",
                    {"after": repr(message)},
                )
        _handshake(address).close()


def test_one_node_serves_two_coordinators_at_once():
    # Two coordinators, each on its own thread, run two 1s naps apiece
    # on one node of width 4.  Served side by side, both finish in
    # about 1s; served one after the other, the second would take 2s.
    specs = [
        TrialSpec(key=("nap", i), fn=kit.sleep_return, args=(1.0, i))
        for i in range(2)
    ]
    start = threading.Barrier(2)
    outcome = {}

    def drive(index, addresses):
        try:
            with ClusterRunner(nodes=addresses, chunksize=1) as runner:
                start.wait(timeout=30)
                began = time.monotonic()
                values = runner.run_values(specs)
                outcome[index] = (values, time.monotonic() - began)
        except Exception as exc:  # reported by the main thread
            outcome[index] = exc

    with kit.local_nodes(1, node_workers=4) as addresses:
        threads = [
            threading.Thread(target=drive, args=(index, addresses))
            for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(2):
        assert not isinstance(outcome[index], Exception), outcome[index]
        values, elapsed = outcome[index]
        assert values == [0, 1]
        assert elapsed < 1.7, f"coordinator {index} took {elapsed:.2f}s"


def test_busy_node_answers_pings_past_the_heartbeat():
    # A node of width 1 runs two 2s naps, one after the other, while
    # the coordinator drops any node silent for 0.6s.  The loop never
    # runs a trial and answers every ping meanwhile, so, with no
    # retries to spare, the run still returns both values.
    specs = [
        TrialSpec(key=("nap", i), fn=kit.sleep_return, args=(2.0, i))
        for i in range(2)
    ]
    with kit.local_nodes(1, node_workers=1) as addresses:
        with ClusterRunner(
            nodes=addresses, chunksize=1, retries=0, heartbeat=0.6
        ) as runner:
            assert runner.run_values(specs) == [0, 1]


def test_a_finished_chunk_is_answered_without_waiting_for_the_poll():
    # A chunk's done-callback wakes the node loop, so its reply leaves
    # as soon as it finishes rather than on the loop's next 0.2s poll:
    # twenty round trips of a trivial chunk take well under the 4s
    # that waiting for the poll would cost.
    with kit.local_nodes(1, node_workers=1) as (address,):
        with closing(_handshake(address)) as stream:

            def round_trip(chunk_id):
                specs = [
                    TrialSpec(
                        key=("sq", chunk_id), fn=kit.square, args=(chunk_id,)
                    )
                ]
                stream.send(("chunk", {"chunk": chunk_id, "specs": specs}))
                message = stream.recv(timeout=10)
                assert message is not None, "node went silent"
                kind, body = message
                assert (kind, body["chunk"]) == ("done", chunk_id), body

            round_trip(0)  # the first chunk forks the pool
            began = time.monotonic()
            for chunk_id in range(1, 21):
                round_trip(chunk_id)
            elapsed = time.monotonic() - began
    assert elapsed < 2.0, f"20 round trips took {elapsed:.2f}s"


def test_a_hung_up_coordinator_loses_only_its_replies():
    # A coordinator that hangs up with a chunk in hand is closed on its
    # own: the reply it can no longer read is dropped, never sent down
    # another connection, and the node keeps serving the coordinator
    # beside it and welcoming new ones.
    nap = [TrialSpec(key=("nap",), fn=kit.sleep_return, args=(0.5, "late"))]
    square = [TrialSpec(key=("sq",), fn=kit.square, args=(4,))]
    with kit.local_nodes(1, node_workers=2) as (address,):
        with closing(_handshake(address)) as steady:
            gone = _handshake(address)
            gone.send(("chunk", {"chunk": 0, "specs": nap}))
            gone.send(("ping", {"at": 0.0}))  # answered once the chunk
            assert gone.recv(timeout=10) == ("pong", {"at": 0.0})  # is in
            gone.close()
            steady.send(("chunk", {"chunk": 1, "specs": square}))
            assert steady.recv(timeout=10) == (
                "done",
                {"chunk": 1, "results": [TrialResult(key=("sq",), value=16)]},
            )
            time.sleep(1.0)  # the gone coordinator's nap ends meanwhile
            steady.send(("ping", {"at": 1.0}))
            assert steady.recv(timeout=10) == ("pong", {"at": 1.0})
        _handshake(address).close()


def test_draining_node_refuses_new_connections():
    # SIGTERM closes the node's listener at once: a new coordinator is
    # refused while the chunk in hand is still running, and that chunk
    # is answered before the node exits.
    nodes = spawn_local_nodes(1, node_workers=1)
    node = nodes[0]
    host, port = node.address.split(":")
    try:
        with closing(_handshake(node.address)) as work:
            slow = [
                TrialSpec(key=("slow",), fn=kit.sleep_return, args=(2.0, "ok"))
            ]
            work.send(("chunk", {"chunk": 0, "specs": slow}))
            time.sleep(0.3)  # let the chunk reach the pool
            node.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 1.0
            while True:
                try:
                    socket.create_connection((host, int(port)), 1.0).close()
                except ConnectionRefusedError:
                    break
                assert time.monotonic() < deadline, "listener still open"
                time.sleep(0.05)
            assert work.recv(timeout=0) is None  # still in hand
            done = [TrialResult(key=("slow",), value="ok")]
            assert work.recv(timeout=15) == (
                "done",
                {"chunk": 0, "results": done},
            )
            assert node.proc.wait(timeout=15) == 0
    finally:
        for spawned in nodes:
            spawned.terminate()


# -- stopping a node: SIGTERM drains it ------------------------------------


def _handshake(address):
    host, port = address.split(":")
    sock = socket.create_connection((host, int(port)), timeout=10)
    stream = MessageStream(sock)
    stream.send(("hello", {"version": PROTOCOL_VERSION}))
    kind, _body = stream.recv()
    assert kind == "welcome"
    return stream


def test_done_reply_is_exactly_the_result_list():
    # The one result encoding, checked on the raw wire of a spawned
    # node: a `done` body carries the chunk id and the pickled
    # TrialResult list — nothing else — and that list is what the
    # coordinator would have computed in process.
    from repro.core.complexity import complexity_specs
    from repro.core.traffic import PermutationTraffic, traffic_specs
    from repro.graphs.hypercube import Hypercube
    from repro.routers.bfs import LocalBFSRouter
    from repro.routers.waypoint import WaypointRouter
    from repro.runtime.chunkexec import execute_specs

    chunks = [
        complexity_specs(
            Hypercube(4), 0.6, WaypointRouter(), trials=4, seed=1
        ),
        traffic_specs(
            Hypercube(4),
            0.6,
            LocalBFSRouter(),
            PermutationTraffic(3),
            trials=3,
            seed=2,
        ),
        kit.seeded_specs(3, label="raw"),
    ]
    with kit.local_nodes(1, node_workers=1) as addresses:
        stream = _handshake(addresses[0])
        try:
            for chunk_id, specs in enumerate(chunks):
                stream.send(("chunk", {"chunk": chunk_id, "specs": specs}))
                message = stream.recv(timeout=30)
                assert message is not None, "node went silent"
                kind, body = message
                assert kind == "done", body
                assert set(body) == {"chunk", "results"}
                assert body["chunk"] == chunk_id
                assert repr(body["results"]) == repr(execute_specs(specs))
        finally:
            stream.close()


def test_draining_node_does_not_burn_retries():
    # A node mid-graceful-shutdown bounces chunks back in milliseconds.
    # Those refusals are not chunk failures: even with retries=0 the
    # batch must migrate to the healthy node and complete, instead of
    # failing because the draining node replied `lost` faster than the
    # survivor could work through the queue.  The retired connection
    # must also be CLOSED, so the next batch of a persistent runner
    # routes the address through the heal path rather than shipping
    # chunks to the corpse and burning retries one batch later.
    def drain_refusal(body):
        return (
            "lost",
            {
                "chunk": body["chunk"],
                "reason": "node draining for shutdown",
                "draining": True,
            },
        )

    server, drain_address = _start_fake_node(drain_refusal)
    try:
        with kit.local_nodes(1) as addresses:
            with ClusterRunner(
                nodes=[*addresses, drain_address],
                chunksize=1,
                retries=0,
                connect_timeout=1.0,
            ) as runner:
                assert runner.run_values(kit.square_specs(8)) == [
                    i * i for i in range(8)
                ]
                drained = [
                    node
                    for node in runner._nodes
                    if node.label() == drain_address
                ]
                assert drained and not drained[0].alive
                # Second batch: the gone node heals-or-backs-off; it
                # must not be shipped to over the retired connection.
                assert runner.run_values(kit.square_specs(6)) == [
                    i * i for i in range(6)
                ]
    finally:
        server.close()


def test_draining_node_finishing_the_last_chunk_is_still_retired():
    # Ordering regression: the draining node holds a chunk in hand and
    # that chunk is the batch's LAST completion, so state.finished is
    # set on the very iteration that empties inflight.  The retire
    # branch must still run (ahead of the finished early-return), or
    # the pump exits with the connection open and alive=True — and the
    # next batch ships to the corpse.
    calls = []

    def drain_then_slow_done(body):
        calls.append(body["chunk"])
        if len(calls) == 1:
            return (
                "lost",
                {
                    "chunk": body["chunk"],
                    "reason": "node draining for shutdown",
                    "draining": True,
                },
            )
        time.sleep(0.8)  # in-hand chunk finishes well after the
        return _done_reply(body)  # healthy node clears the queue

    server, drain_address = _start_fake_node(drain_then_slow_done)
    try:
        with kit.local_nodes(1) as addresses:
            with ClusterRunner(
                nodes=[*addresses, drain_address],
                chunksize=1,
                retries=0,
                connect_timeout=1.0,
            ) as runner:
                assert runner.run_values(kit.square_specs(8)) == [
                    i * i for i in range(8)
                ]
                drained = [
                    node
                    for node in runner._nodes
                    if node.label() == drain_address
                ]
                assert drained and not drained[0].alive
                assert runner.run_values(kit.square_specs(4)) == [
                    0, 1, 4, 9,
                ]
    finally:
        server.close()


class _StopRecorder:
    """Stands in for a LocalNode; logs the stop calls it receives."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def send_stop(self, force=False):
        self.log.append(("stop", self.name, force))

    def reap(self):
        self.log.append(("reap", self.name))


@pytest.mark.parametrize("force", [False, True], ids=["graceful", "forced"])
def test_every_node_is_signalled_before_any_is_reaped(force):
    # Drains run side by side: a slow drain on one node does not delay
    # the signal to the next.
    log = []
    _terminate_nodes([_StopRecorder(name, log) for name in "ab"], force)
    assert log == [
        ("stop", "a", force),
        ("stop", "b", force),
        ("reap", "a"),
        ("reap", "b"),
    ]


def _local_sleeper(code="import time; time.sleep(60)"):
    """A LocalNode around a plain child process (no node inside) that
    announces a made-up address, then runs ``code``."""
    ready = f"print({READY_PREFIX + '127.0.0.1:0'!r}, flush=True)"
    proc = subprocess.Popen(
        [sys.executable, "-c", f"{ready}; {code}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    node = LocalNode(proc)
    sent = []
    send = proc.send_signal

    def recording(signum):
        sent.append(signum)
        send(signum)

    proc.send_signal = recording
    return node, sent


@pytest.mark.parametrize(
    "force, stop",
    [(False, signal.SIGTERM), (True, signal.SIGKILL)],
    ids=["graceful", "forced"],
)
def test_send_stop_sends_one_stop_signal(force, stop):
    node, sent = _local_sleeper()
    try:
        node.send_stop(force)
        node.reap()
        assert node.proc.returncode == -stop
        assert [sig for sig in sent if sig != signal.SIGCONT] == [stop]
    finally:
        node.terminate(force=True)


def test_send_stop_leaves_an_exited_node_alone():
    # A node that already exited is never signalled: its pid may
    # belong to another process by now.
    node, sent = _local_sleeper(code="pass")
    node.proc.wait(timeout=30)
    node.send_stop()
    node.send_stop(force=True)
    node.reap()
    assert sent == []
    assert node.proc.returncode == 0


def test_close_lets_self_managed_nodes_exit_gracefully():
    # close() sends each node exactly one SIGTERM and lets it finish
    # its drain: a second TERM could land after serve() restored the
    # default action and kill the node mid-exit, and a SIGKILL would
    # cut the drain short.  A gracefully drained node exits 0; a kill
    # would leave -SIGTERM or -SIGKILL.
    runner = ClusterRunner(workers=2, chunksize=1)
    assert runner.run_values(kit.square_specs(4)) == [0, 1, 4, 9]
    procs = [local.proc for local in runner._local]
    sent = [[] for _ in procs]
    for proc, log in zip(procs, sent):

        def recording(signum, log=log, send=proc.send_signal):
            log.append(signum)
            send(signum)

        proc.send_signal = recording
    runner.close()
    assert [proc.poll() for proc in procs] == [0, 0]
    stops = [[sig for sig in log if sig != signal.SIGCONT] for log in sent]
    assert stops == [[signal.SIGTERM], [signal.SIGTERM]]


def test_sigterm_drains_inflight_chunks_before_exit():
    # SIGTERM — what ClusterRunner.close and init systems send — drains
    # the node: it finishes and delivers the chunk in hand, refuses a
    # chunk sent after the signal with a `draining` lost reply (which
    # coordinators requeue without charging a retry), then exits
    # cleanly, not mid-drain.
    nodes = spawn_local_nodes(1, node_workers=1)
    node = nodes[0]
    try:
        with closing(_handshake(node.address)) as work:
            slow = [
                TrialSpec(key=("slow",), fn=kit.sleep_return, args=(1.2, "ok"))
            ]
            work.send(("chunk", {"chunk": 0, "specs": slow}))
            time.sleep(0.3)  # let the chunk reach the pool
            node.proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)  # let the stop flag settle
            late = [TrialSpec(key=("late",), fn=kit.square, args=(3,))]
            work.send(("chunk", {"chunk": 1, "specs": late}))
            replies = {}
            while len(replies) < 2:
                message = work.recv(timeout=15)
                assert message is not None, "node went silent while draining"
                kind, body = message
                replies[body["chunk"]] = (kind, body)
            kind, body = replies[0]
            assert kind == "done"
            assert body["results"] == [TrialResult(key=("slow",), value="ok")]
            kind, body = replies[1]
            assert kind == "lost"
            assert body["draining"] is True
            assert "drain" in body["reason"]
            assert node.proc.wait(timeout=15) == 0
    finally:
        for spawned in nodes:
            spawned.terminate()


def test_node_answers_shutdown_as_an_unknown_kind():
    # SIGTERM is the only stop: a `shutdown` message gets the error
    # any unknown kind gets, then a hang-up, and the node keeps
    # welcoming new peers.
    with kit.local_nodes(1) as (address,):
        stream = _handshake(address)
        try:
            stream.send(("shutdown", {}))
            kind, body = stream.recv(timeout=10)
            assert kind == "error"
            assert "unknown message kind 'shutdown'" in body["detail"]
            with pytest.raises(ConnectionError):
                stream.recv(timeout=10)
        finally:
            stream.close()
        _handshake(address).close()


# -- spawn deadline --------------------------------------------------------


def test_spawn_hang_without_ready_line_is_reaped():
    # A "node" that prints output but never the READY line must not
    # hang the spawner forever: the deadline reaps it and the error
    # carries the captured output for diagnosis.
    proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-c",
            "print('warming up', flush=True); "
            "import time; time.sleep(600)",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="warming up"):
        LocalNode(proc, spawn_timeout=1.0)
    assert time.monotonic() - start < 10
    assert proc.poll() is not None  # reaped, not leaked
    assert proc.stdout.closed


def test_spawn_stdout_eof_with_live_process_is_reaped():
    # A "node" that closes its stdout but stays alive must not hang
    # the spawner in an unbounded wait() on the EOF branch: the spawn
    # deadline reaps it.  (stderr must NOT share the stdout pipe here,
    # or the parent would never see EOF.)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-c",
            "import os, time; os.close(1); time.sleep(600)",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="stayed alive"):
        LocalNode(proc, spawn_timeout=1.0)
    assert time.monotonic() - start < 10
    assert proc.poll() is not None  # reaped, not leaked
    assert proc.stdout.closed


def test_spawn_exit_before_ready_reports_output():
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", "print('boom', flush=True)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    with pytest.raises(RuntimeError, match="exited before announcing"):
        LocalNode(proc, spawn_timeout=10.0)
    assert proc.stdout.closed


# -- rogue node ------------------------------------------------------------


def test_short_done_reply_is_a_protocol_failure():
    # A node that returns fewer results than the chunk holds is not
    # speaking the protocol; the run must fail cleanly (via the
    # retry-cap path, since the rogue answer discredits the node), not
    # report a completed batch with holes or overwrite neighbours.
    def one_result_short(body):
        fabricated = [
            TrialResult(key=spec.key, value=0) for spec in body["specs"]
        ][:-1]
        return ("done", {"chunk": body["chunk"], "results": fabricated})

    servers = []
    addresses = []
    for _ in range(2):
        server, address = _start_fake_node(one_result_short)
        servers.append(server)
        addresses.append(address)
    try:
        runner = ClusterRunner(nodes=addresses, chunksize=2, retries=0)
        with runner:
            with pytest.raises(TrialExecutionError, match="retry cap"):
                runner.run(kit.square_specs(8))
    finally:
        for server in servers:
            server.close()


def _one_result_too_many(body):
    return [spec.execute() for spec in body["specs"]] + [
        TrialResult(key=("extra",), value=0)
    ]


def _one_forged_key(body):
    results = [spec.execute() for spec in body["specs"]]
    results[-1] = TrialResult(key=("forged",), value=results[-1].value)
    return results


def _bare_values(body):
    return [spec.execute().value for spec in body["specs"]]


@pytest.mark.parametrize(
    "forge", [_one_result_too_many, _one_forged_key, _bare_values]
)
def test_malformed_done_results_are_a_protocol_failure(forge):
    # A long reply could overwrite a neighbouring chunk, a forged key
    # would file a value under the wrong trial, and bare values are not
    # results at all: each discredits the node exactly as a short reply
    # does, so with no retries the run ends in the retry-cap error.
    def rogue(body):
        return ("done", {"chunk": body["chunk"], "results": forge(body)})

    servers = []
    addresses = []
    for _ in range(2):
        server, address = _start_fake_node(rogue)
        servers.append(server)
        addresses.append(address)
    try:
        runner = ClusterRunner(nodes=addresses, chunksize=2, retries=0)
        with runner:
            with pytest.raises(
                TrialExecutionError, match=r"retry cap 0\): ProtocolError"
            ):
                runner.run(kit.square_specs(8))
    finally:
        for server in servers:
            server.close()


MALFORMED_REPLIES = {
    "done-without-results": lambda c: ("done", {"chunk": c}),
    "done-results-not-a-list": lambda c: (
        "done",
        {"chunk": c, "results": 7},
    ),
    "miss-without-ids": lambda c: ("miss", {"chunk": c}),
    "failed-without-key": lambda c: (
        "failed",
        {"chunk": c, "detail": "x"},
    ),
    "done-without-body": lambda c: ("done",),
    "lost-with-list-body": lambda c: ("lost", [c]),
    # A well-formed answer to a chunk this node does not hold (the
    # next one: the honest node's, or none): the completion is
    # refused, not placed a second time.
    "done-for-another-chunk": lambda c: (
        "done",
        {
            "chunk": c + 1,
            "results": [TrialResult(key=("sq", c + 1), value=(c + 1) ** 2)],
        },
    ),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_REPLIES))
def test_malformed_reply_drops_the_node_instead_of_hanging(shape):
    # A reply whose body does not parse must drop the rogue node like
    # a lost one and requeue its chunk, so the honest node finishes the
    # batch.  The run is joined under a timeout: if the coordinator
    # ever waits forever again, this test fails instead of hanging.
    asked = []

    def rogue(body):
        asked.append(body["chunk"])
        return MALFORMED_REPLIES[shape](body["chunk"])

    rogue_server, rogue_address = _start_fake_node(rogue)
    honest_server, honest_address = _start_fake_node(_done_reply)
    specs = kit.square_specs(8)
    outcome = {}

    def drive():
        try:
            with ClusterRunner(
                nodes=[rogue_address, honest_address],
                chunksize=1,
                retries=2,
                heartbeat=0,
            ) as runner:
                outcome["values"] = runner.run_values(specs)
        except Exception as exc:  # reported by the main thread
            outcome["error"] = exc

    try:
        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), f"run hung on a {shape} reply"
        assert "error" not in outcome, outcome.get("error")
        assert outcome["values"] == [i * i for i in range(8)]
        assert asked, "the rogue node was never sent a chunk"
    finally:
        rogue_server.close()
        honest_server.close()


#: Handshake replies no node sends: each must be refused as a
#: ProtocolError, with the coordinator's socket closed.
BAD_WELCOMES = {
    "bare-string": encode_frame("ab"),
    "bare-int": encode_frame(5),
    "welcome-without-body": encode_frame(("welcome", None)),
    "undecodable-frame": b"RPRO" + (2).to_bytes(4, "big") + b"zz",
    "welcome-without-width": encode_frame(
        ("welcome", {"version": PROTOCOL_VERSION, "pid": 0})
    ),
    **{
        f"width-{name}": encode_frame(
            (
                "welcome",
                {"version": PROTOCOL_VERSION, "pid": 0, "workers": width},
            )
        )
        for name, width in (
            ("zero", 0), ("negative", -1), ("bool", True), ("text", "2"),
            ("float", 2.0), ("list", [2]),
        )
    },
}


def _answer_hello_with(server, reply: bytes, saw_hello=None, saw_close=None):
    """Accept one connection, read its hello and answer the raw frame
    ``reply``; then wait for the coordinator to hang up."""
    try:
        conn, _ = server.accept()
    except OSError:
        return
    stream = MessageStream(conn)
    try:
        stream.recv(timeout=10)
        if saw_hello is not None:
            saw_hello.set()
        conn.sendall(reply)
        stream.recv(timeout=10)
    except ConnectionError:
        if saw_close is not None:
            saw_close.set()
    except (ProtocolError, OSError):
        pass
    finally:
        stream.close()


def _listener():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen()
    return server, server.getsockname()[1]


@pytest.mark.parametrize("shape", sorted(BAD_WELCOMES))
def test_malformed_handshake_reply_is_a_protocol_error(shape):
    # ProtocolError is what the heal path catches to keep a peer out
    # under backoff; any other error would fail the batch instead.
    server, port = _listener()
    saw_close = threading.Event()
    threading.Thread(
        target=_answer_hello_with,
        args=(server, BAD_WELCOMES[shape]),
        kwargs={"saw_close": saw_close},
        daemon=True,
    ).start()
    node = _Node(("127.0.0.1", port))
    try:
        with pytest.raises(ProtocolError):
            node.connect(timeout=5.0)
        assert not node.alive
        assert node.stream._sock.fileno() == -1
        assert saw_close.wait(5), "the peer never saw the socket close"
    finally:
        server.close()


@pytest.mark.parametrize("width", [1, 2, 64])
def test_handshake_records_the_announced_width(width):
    server, port = _listener()
    threading.Thread(
        target=_answer_hello_with,
        args=(server, encode_frame(_welcome(width))),
        daemon=True,
    ).start()
    node = _Node(("127.0.0.1", port))
    try:
        node.connect(timeout=5.0)
        assert node.alive
        assert node.workers == width
    finally:
        node.close()
        server.close()


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_spawned_node_announces_its_pool_width(source, monkeypatch):
    # The width a real node announces is its pool's: --node-workers,
    # else $REPRO_NODE_WORKERS (the pool itself starts on the first
    # chunk, so announcing a wide one costs nothing here).
    width = 3 if source == "flag" else 5
    if source == "flag":
        spawn = {"node_workers": width}
    else:
        monkeypatch.setenv(NODE_WORKERS_ENV, str(width))
        spawn = {}
    with kit.local_nodes(1, **spawn) as (address,):
        host, port = address.split(":")
        node = _Node((host, int(port)))
        try:
            node.connect(timeout=10.0)
            assert node.workers == width
        finally:
            node.close()


#: Versions a v6 peer must refuse: v5 (no announced width), a newer
#: one, and a hello or welcome that names none.
OTHER_VERSIONS = [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, None]


@pytest.mark.parametrize("version", OTHER_VERSIONS)
def test_handshake_refuses_a_node_of_another_version(version):
    server, port = _listener()
    welcome = encode_frame(
        ("welcome", {"version": version, "pid": 0, "workers": 1})
    )
    threading.Thread(
        target=_answer_hello_with, args=(server, welcome), daemon=True
    ).start()
    node = _Node(("127.0.0.1", port))
    try:
        with pytest.raises(ProtocolError, match="handshake .* failed"):
            node.connect(timeout=5.0)
        assert not node.alive
        assert node.stream._sock.fileno() == -1
    finally:
        server.close()


def test_handshake_reports_why_a_node_refused():
    # A node of another version answers the hello with an `error`;
    # the coordinator's ProtocolError must carry the node's reason.
    server, port = _listener()
    refusal = encode_frame(
        ("error", {"detail": "protocol version mismatch: node speaks 4"})
    )
    threading.Thread(
        target=_answer_hello_with, args=(server, refusal), daemon=True
    ).start()
    node = _Node(("127.0.0.1", port))
    try:
        with pytest.raises(ProtocolError, match="node speaks 4"):
            node.connect(timeout=5.0)
        assert not node.alive
    finally:
        server.close()


def test_node_refuses_a_hello_of_another_version():
    # Each refusal is an `error` naming the mismatch, then a hang-up;
    # the node itself stays up and still welcomes a current peer.
    with kit.local_nodes(1) as (address,):
        host, port = address.split(":")
        for version in OTHER_VERSIONS:
            sock = socket.create_connection((host, int(port)), timeout=10)
            stream = MessageStream(sock)
            try:
                stream.send(("hello", {"version": version}))
                kind, body = stream.recv(timeout=10)
                assert kind == "error"
                assert "protocol version mismatch" in body["detail"]
                assert f"sent {version!r}" in body["detail"]
                with pytest.raises(ConnectionError):
                    stream.recv(timeout=10)
            finally:
                stream.close()
        _handshake(address).close()


def test_heal_keeps_out_a_node_that_answers_garbage():
    # A fake node welcomes the runner, then hangs up on its first
    # chunk; when the next batch tries to heal it, it answers the
    # hello with garbage.  The heal must treat that like a refused
    # connection (backoff), and the batch must finish on the real node.
    server, port = _listener()
    fake_address = f"127.0.0.1:{port}"
    saw_heal = threading.Event()

    def fake():
        try:
            conn, _ = server.accept()
        except OSError:
            return
        stream = MessageStream(conn)
        try:
            stream.recv(timeout=10)
            stream.send(_welcome())
            while stream.recv(timeout=10)[0] != "chunk":
                pass
        except (ConnectionError, ProtocolError, OSError, TypeError):
            pass
        finally:
            stream.close()
        _answer_hello_with(server, encode_frame("ab"), saw_hello=saw_heal)

    threading.Thread(target=fake, daemon=True).start()
    squares = [i * i for i in range(6)]
    try:
        with kit.local_nodes(1) as addresses:
            with ClusterRunner(
                nodes=[*addresses, fake_address],
                chunksize=1,
                connect_timeout=2.0,
            ) as runner:
                assert runner.run_values(kit.square_specs(6)) == squares
                assert [n.alive for n in runner._nodes] == [True, False]
                assert runner.run_values(kit.square_specs(6)) == squares
                assert saw_heal.wait(5), "the heal never re-dialed"
                healed = runner._nodes[1]
                assert not healed.alive
                assert healed.heal_backoff > 0  # a failed heal, backing off
    finally:
        server.close()


def test_close_is_idempotent_and_runner_reusable():
    runner = ClusterRunner(workers=2, chunksize=1)
    assert runner.run_values(kit.square_specs(6)) == [i * i for i in range(6)]
    runner.close()
    assert runner._nodes is None
    runner.close()  # no-op
    # a closed runner is still usable; it just pays start-up again
    assert runner.run_values(kit.square_specs(6)) == [i * i for i in range(6)]
    runner.close()


class TestClusterConfig:
    def test_default_node_count_is_two(self):
        assert ClusterRunner().workers == 2

    def test_workers_env_names_the_node_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ClusterRunner().workers == 3

    def test_explicit_nodes_win_over_workers(self):
        runner = ClusterRunner(nodes="h1:7000,h2:7000,h3:7000", workers=9)
        assert runner.workers == 3

    def test_nodes_env_consulted(self, monkeypatch):
        monkeypatch.setenv(NODES_ENV, "hostA:7001,hostB:7002")
        runner = ClusterRunner()
        assert runner.workers == 2
        assert runner._addresses == (("hostA", 7001), ("hostB", 7002))

    def test_malformed_nodes_env_rejected(self, monkeypatch):
        monkeypatch.setenv(NODES_ENV, "hostA:7001,hostB")
        with pytest.raises(ValueError):
            ClusterRunner()

    def test_duplicate_nodes_env_rejected(self, monkeypatch):
        monkeypatch.setenv(NODES_ENV, "hostA:7001,hostA:7001")
        with pytest.raises(ValueError, match="duplicate"):
            ClusterRunner()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ClusterRunner(retries=-1)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterRunner(workers=0)

    def test_chunksize_env_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNKSIZE", "0")
        with pytest.raises(ValueError):
            ClusterRunner(workers=2)

    def test_heartbeat_env_consulted(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "2.5")
        assert ClusterRunner().heartbeat == 2.5

    def test_heartbeat_env_validated(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "soon")
        with pytest.raises(ValueError):
            ClusterRunner()

    def test_negative_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            ClusterRunner(heartbeat=-1.0)

    def test_zero_node_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterRunner(node_workers=0)

    def test_default_heartbeat(self):
        assert ClusterRunner().heartbeat == 10.0

    def test_connection_refused_is_a_clean_error(self):
        # Nothing listens on these ports; construction is lazy, the
        # first parallel batch surfaces the connection failure.
        runner = ClusterRunner(
            nodes="127.0.0.1:1,127.0.0.1:2",
            chunksize=1,
            connect_timeout=0.5,
        )
        with pytest.raises(OSError):
            runner.run(kit.square_specs(8))


def test_wedge_kernel_cleanup_terminates_stopped_node(tmp_path):
    # Housekeeping for the wedge tests themselves: terminate() must be
    # able to reap a SIGSTOPped node (SIGCONT before the TERM/KILL
    # escalation), or every wedge test would leak a frozen process.
    nodes = spawn_local_nodes(1, node_workers=1)
    node = nodes[0]
    try:
        os.kill(node.proc.pid, signal.SIGSTOP)
    finally:
        start = time.monotonic()
        node.terminate()
        assert node.proc.poll() is not None
        assert time.monotonic() - start < 10
