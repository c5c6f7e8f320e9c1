"""Socket cluster executor: trials on TCP worker nodes.

The third runner backend.  A :class:`ClusterRunner` (coordinator)
connects to ``repro worker serve`` node processes — on this machine or
any other — and streams them **chunks** of specs over TCP:

* a chunk's pickle carries its own workloads (each written once per
  chunk, see :mod:`repro.runtime.workload`), so a node needs nothing
  from earlier chunks;
* a node announces its pool width in the handshake, and the
  coordinator keeps exactly that many chunks in flight on it and
  splits each batch into about four chunks per announced pool worker,
  as the process pool does per worker;
* trial results stream back per chunk and are reassembled by offset
  (:class:`ChunkBoard`), so completion order never leaks into the
  output and the determinism contract holds: byte-identical
  ``ResultTable``\\ s versus ``SerialRunner`` for the same master seed;
* a trial that raises on a node comes back as a
  :class:`~repro.runtime.trial.TrialExecutionError` with the node-side
  traceback preserved in ``detail``.

Node-side execution pool
------------------------

A node executes chunks on a **process pool** of ``--node-workers``
local workers (default ``os.cpu_count()``), so one many-core remote
machine runs as many chunks at once as it has pool workers.  The
connection thread only dispatches and replies — it never executes
trials — so heartbeats are answered promptly however busy the pool
is.  A pool worker that dies mid-chunk (crash, OOM kill) does not kill
the node: the pool is rebuilt and the affected chunks are answered
with ``lost``, which the coordinator requeues through the ordinary
retry path.  Each pool worker carries a watchdog that exits when its
owning node process dies, so a killed or wedged node never leaks
orphan workers.

Fault tolerance and heartbeats
------------------------------

Fault tolerance is at the **batch** level: a node that disconnects
mid-batch (crash, kill, network) has its outstanding chunks requeued
to the surviving nodes.  Trials are pure functions of their spec, so a
re-executed chunk reproduces its results exactly and the retry is
invisible in the output.  Each chunk carries a retry budget
(``retries`` requeues); exhausting it — or losing every node — raises
a clean ``TrialExecutionError`` naming the lost chunks.

A node that **wedges with its socket open** (paused VM, deadlocked
runtime, partition with no RST) is caught by heartbeat supervision:
the coordinator sends ``ping`` frames and expects traffic (``pong`` or
chunk replies) within the ``heartbeat`` deadline (argument, else
``$REPRO_HEARTBEAT`` seconds, else 10; ``0`` disables).  A silent node
is declared lost, its connection is dropped and its in-flight chunks
requeue exactly as if it had crashed.  Every post-handshake socket
read carries a timeout that feeds this supervision path — no
coordinator thread ever blocks forever on a wedged node.

Node discovery
--------------

``ClusterRunner(nodes=...)`` takes ``"host:port"`` strings; with no
argument it reads ``$REPRO_CLUSTER_NODES`` (comma-separated; duplicate
addresses are rejected — one node is one entry, use ``--node-workers``
for more concurrency per node).  With neither, the runner is
**self-managed**: it spawns ``workers`` (default 2) localhost ``repro
worker serve`` subprocesses on first use and reaps them on
``close()``.  External nodes are shared infrastructure — many runners
may connect to them in turn — and ``close()`` never shuts them down.

Wire format
-----------

Frames are ``b"RPRO" + big-endian uint32 length + pickle payload``;
:func:`encode_frame` / :class:`FrameReader` implement framing
independently of sockets (and are property-tested over torn and
partial reads).  :class:`MessageStream` serialises concurrent senders
with a lock, so replies raced by pool callbacks and pongs never
interleave mid-frame.  Messages are ``(kind, body)`` tuples; the
handshake is ``("hello", {"version"})`` → ``("welcome", {"version",
"pid", "workers"})`` (``workers``: the node's pool width, an ``int``
>= 1), then ``("chunk", {"chunk", "specs"})`` answered by one of
``("done", {"chunk", "results"})`` (the chunk's pickled
``TrialResult`` list — the coordinator accepts it only with one result
per spec, in order, each carrying its spec's key), ``("failed",
{"chunk", "key", "detail"})`` or ``("lost", {"chunk", "reason"})`` (the node
abandoned the chunk — requeue it elsewhere; a graceful drain refusal
carries ``"draining": True``, which requeues the chunk without
charging a retry and retires the connection).  ``("ping", {...})`` →
``("pong", {...})`` may interleave at any point.  A node whose reply
breaks any of these shapes is dropped like a lost one: its in-flight
chunks requeue under the retry cap.  A peer whose handshake reply is
malformed or undecodable is refused with :class:`ProtocolError`.

SIGTERM is the one way to stop a node: it refuses new chunks
(answering ``lost`` with ``"draining": True``), finishes the chunks in
hand, then exits.  ``ClusterRunner.close()`` sends it to each
self-managed node.

**Security note:** frames carry pickles, which execute arbitrary code
on unpickling.  A worker node must only listen where its coordinator
is trusted — the default bind is loopback; anything wider belongs on a
private network you control.
"""

from __future__ import annotations

import math
import os
import pickle
import queue
import select
import signal
import struct
import socket
import subprocess
import sys
import threading
import time
import weakref
from collections import deque
from collections.abc import Iterable, Sequence
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.runtime.chunkexec import execute_specs
from repro.runtime.runner import TrialRunner, pick_chunksize, split_chunks
from repro.runtime.trial import TrialExecutionError, TrialResult, TrialSpec
from repro.settings import resolve

__all__ = [
    "ChunkBoard",
    "ClusterRunner",
    "FrameReader",
    "LocalNode",
    "MessageStream",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_frame",
    "node_process_pid",
    "parse_nodes",
    "serve",
    "spawn_local_nodes",
]

#: Nodes a self-managed runner spawns when nothing names a count.
DEFAULT_LOCAL_NODES = 2

#: Seconds a spawned node gets to announce its READY line.
DEFAULT_SPAWN_TIMEOUT = 30.0

#: Seconds a shutting-down node waits for in-flight chunks to finish.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: Bound on a node-side reply send.  Replies go out on the execution
#: pool's callback thread, which is shared by every connection: with
#: no bound, one coordinator that stops reading (wedged, partitioned)
#: would block that thread in ``sendall`` forever and stall chunk
#: completions for *every* coordinator on a shared node.  A timed-out
#: send drops only the wedged coordinator's reply; its own retry
#: machinery re-runs the chunk elsewhere.
NODE_SEND_TIMEOUT = 60.0

#: Bumped on any incompatible wire change; checked in the handshake.
#: v2: ping/pong heartbeats, the "lost" chunk reply, node-side pools.
#: v3: the "done" reply could carry column arrays instead of a list.
#: v4: "done" always carries the pickled result list, checked against
#: its chunk.
#: v5: a "chunk" carries its workloads inline; no "miss" reply.
#: v6: "welcome" carries the node's pool width; SIGTERM is the only stop.
PROTOCOL_VERSION = 6

#: Stdout line a worker prints once its socket is bound (the spawner
#: parses it to learn an ephemeral port).
READY_PREFIX = "REPRO-WORKER LISTENING "

_MAGIC = b"RPRO"
_HEADER = struct.Struct(">4sI")

#: Upper bound on a single frame; a length beyond this means a corrupt
#: or hostile stream, not a real batch.
MAX_FRAME_BYTES = 1 << 31


class ProtocolError(RuntimeError):
    """The byte stream violated the cluster wire protocol."""


class _NodeLost(ConnectionError):
    """Heartbeat supervision declared a node dead (socket still open)."""


# --------------------------------------------------------------------------
# Framing (socket-independent; property-tested)
# --------------------------------------------------------------------------


def encode_frame(message) -> bytes:
    """Serialise one message into a self-delimiting frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_MAGIC, len(payload)) + payload


class FrameReader:
    """Incremental frame decoder tolerant of arbitrary read boundaries.

    ``feed`` accepts whatever bytes arrived — half a header, three
    frames and a torn fourth — buffers the remainder, and returns every
    message completed so far, in order.  A frame whose payload does
    not unpickle raises :class:`ProtocolError`, like a bad header.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def mid_frame(self) -> bool:
        """True when buffered bytes form an incomplete frame."""
        return bool(self._buffer)

    def feed(self, data: bytes) -> list:
        self._buffer.extend(data)
        messages = []
        while len(self._buffer) >= _HEADER.size:
            magic, length = _HEADER.unpack_from(self._buffer)
            if magic != _MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(magic)!r}; peer is not "
                    "speaking the repro cluster protocol"
                )
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            try:
                messages.append(pickle.loads(payload))
            except Exception as exc:
                raise ProtocolError(
                    f"undecodable frame: {type(exc).__name__}: {exc}"
                ) from exc
        return messages


def _wait_readable(readable, timeout: float | None) -> bool:
    """Block until ``readable`` (a socket or raw fd) is readable
    (True) or ``timeout`` seconds elapse (False; ``None`` waits
    forever).

    Uses ``poll`` where the platform has it: unlike ``select`` it has
    no ``FD_SETSIZE`` cap, so the cluster backend keeps working inside
    host processes that already hold >1024 descriptors.  Raises
    ``OSError``/``ValueError`` if the descriptor is closed under us.
    """
    if hasattr(select, "poll"):
        fd = readable if isinstance(readable, int) else readable.fileno()
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        ms = None if timeout is None else max(0, math.ceil(timeout * 1000))
        return bool(poller.poll(ms))
    return bool(select.select([readable], [], [], timeout)[0])


class MessageStream:
    """A connected socket carrying framed messages, both directions.

    ``send`` is safe under concurrency: a lock serialises senders, so a
    pool callback replying ``done`` and the connection thread replying
    ``pong`` can never interleave bytes mid-frame.  ``send_timeout``
    bounds how long a send may block on a peer that stopped reading
    (None = forever); a timed-out send leaves the stream torn and
    raises ``TimeoutError`` (an ``OSError``), which the coordinator
    treats as a lost node.  The bound is applied per ``send`` and the
    socket's previous timeout restored afterwards — reads never
    inherit it, so a connection that is simply idle between batches
    is not torn down after ``send_timeout`` seconds of quiet.
    """

    def __init__(
        self,
        sock: socket.socket,
        send_timeout: float | None = None,
    ) -> None:
        self._sock = sock
        self._reader = FrameReader()
        self._pending: deque = deque()
        self._send_lock = threading.Lock()
        self._send_timeout = send_timeout
        #: Total bytes ever read off the socket.  Heartbeat supervision
        #: compares it across polls: a frame larger than deadline ×
        #: bandwidth completes no message for a while, but advancing
        #: bytes are proof of life all the same.
        self.bytes_received = 0

    def send(self, message) -> None:
        frame = encode_frame(message)  # pickle before any byte ships
        with self._send_lock:
            if self._send_timeout is None:
                self._sock.sendall(frame)
                return
            previous = self._sock.gettimeout()
            self._sock.settimeout(self._send_timeout)
            try:
                self._sock.sendall(frame)
            finally:
                # Restore even after a timeout (the stream is torn
                # then, but the caller owns the close): the send bound
                # must never outlive the send, or the next blocking
                # ``recv`` would inherit it and tear down a perfectly
                # healthy connection that merely sat idle.
                try:
                    self._sock.settimeout(previous)
                except OSError:
                    pass  # racing close; the stream is finished anyway

    def recv(self, timeout: float | None = None):
        """Return the next message, or ``None`` on ``timeout`` seconds
        of quiet socket (``timeout=None`` blocks until a frame or EOF).

        Readiness is polled (:func:`_wait_readable`) rather than
        taken from the socket timeout, so a concurrent ``send`` (which
        briefly applies ``send_timeout`` to the socket) can never leak
        its bound into a blocking read — an idle connection stays up
        indefinitely.

        Raises :class:`ConnectionError` on orderly EOF between frames
        and :class:`ProtocolError` on EOF that tears a frame in half.
        """
        while not self._pending:
            try:
                if not _wait_readable(self._sock, timeout):
                    return None
            except (OSError, ValueError):
                # fd closed under us (peer teardown in another thread).
                raise ConnectionError("connection closed") from None
            try:
                data = self._sock.recv(1 << 16)
            except TimeoutError:
                # A racing send's bound expired between the readiness
                # poll and this read; the bytes are still there — poll
                # again rather than misreport a dead connection.
                continue
            if not data:
                if self._reader.mid_frame:
                    raise ProtocolError("connection closed mid-frame")
                raise ConnectionError("connection closed by peer")
            self.bytes_received += len(data)
            self._pending.extend(self._reader.feed(data))
        return self._pending.popleft()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def parse_nodes(nodes) -> tuple[tuple[str, int], ...]:
    """Normalise node addresses to ``((host, port), ...)``.

    Accepts a comma-separated string (the ``$REPRO_CLUSTER_NODES``
    form), an iterable of ``"host:port"`` strings, or an iterable of
    ``(host, port)`` pairs — rejecting empty hosts, out-of-range ports
    and duplicate addresses uniformly.  A duplicated address would
    give one physical node two connections and twice its share of
    chunks; one node is one entry — ``--node-workers`` adds
    concurrency *within* it.

    >>> parse_nodes("127.0.0.1:7101, 127.0.0.1:7102")
    (('127.0.0.1', 7101), ('127.0.0.1', 7102))
    """
    if isinstance(nodes, str):
        # Empty segments (trailing comma, doubled separator — easy
        # shell/templating artifacts) are skipped, not errors.
        nodes = [part for part in nodes.split(",") if part.strip()]
    out = []
    for node in nodes:
        if isinstance(node, str):
            text = node.strip()
            host, sep, port_text = text.rpartition(":")
            if not sep:
                raise ValueError(
                    f"node address {text!r} is not 'host:port'"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"node address {text!r} has a non-integer port"
                ) from None
        else:
            host, port = node
        host = str(host).strip()
        if not host:
            raise ValueError(f"node address {node!r} has an empty host")
        if not 1 <= int(port) <= 65535:
            raise ValueError(
                f"node address {node!r} has out-of-range port {port}"
            )
        out.append((host, int(port)))
    if not out:
        raise ValueError("no cluster node addresses given")
    duplicates = sorted(
        {address for address in out if out.count(address) > 1}
    )
    if duplicates:
        named = ", ".join(f"{h}:{p}" for h, p in duplicates)
        raise ValueError(
            f"duplicate cluster node address(es): {named}; list each "
            "node once (use --node-workers for more concurrency per "
            "node)"
        )
    return tuple(out)


# --------------------------------------------------------------------------
# Worker node (the `repro worker serve` side)
# --------------------------------------------------------------------------

#: Pid of the owning `repro worker serve` process, set in each pool
#: worker by the pool initializer (None outside a node pool).
_NODE_PID: int | None = None


def _orphan_watch(parent_pid: int) -> None:  # pragma: no cover - daemon
    # Reaps this pool worker if its node dies without pool shutdown
    # (SIGKILL, wedge-then-kill): re-parenting flips os.getppid().
    while True:
        if os.getppid() != parent_pid:
            os._exit(2)
        time.sleep(1.0)


def _node_pool_init(parent_pid: int) -> None:
    global _NODE_PID
    _NODE_PID = parent_pid
    threading.Thread(
        target=_orphan_watch,
        args=(parent_pid,),
        daemon=True,
        name="repro-node-orphan-watch",
    ).start()


def node_process_pid() -> int | None:
    """Pid of the ``repro worker serve`` process that owns this pool
    worker (None when not running inside a node's execution pool)."""
    return _NODE_PID


class _NodeServer:
    """Per-process state behind :func:`serve`: the execution pool and
    the drain bookkeeping, shared by every connection for the node's
    lifetime."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.stop = threading.Event()
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._active = 0
        self._idle = threading.Condition(self._lock)

    def pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_node_pool_init,
                    initargs=(os.getpid(),),
                )
            return self._pool

    def discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop ``pool`` if it is still current (post-breakage); the
        identity check keeps racing callbacks from killing a healthy
        replacement."""
        with self._lock:
            mine = self._pool is pool
            if mine:
                self._pool = None
        if mine:
            pool.shutdown(wait=False, cancel_futures=True)

    def chunk_started(self) -> None:
        with self._lock:
            self._active += 1

    def chunk_finished(self) -> None:
        with self._idle:
            self._active -= 1
            self._idle.notify_all()

    def drain(self, timeout: float) -> bool:
        """Wait until no chunk is in flight; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def shutdown_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


class _ChunkJob:
    """One chunk executing on the node pool, with its reply route."""

    __slots__ = ("server", "stream", "chunk_id", "pool")

    def __init__(self, server, stream, chunk_id) -> None:
        self.server = server
        self.stream = stream
        self.chunk_id = chunk_id
        self.pool = None  # executor the live future belongs to


def _reply(stream: MessageStream, message, chunk_id) -> None:
    """Send a chunk reply, surviving a gone coordinator and a reply
    that will not pickle (reported as the trial failure it is)."""
    try:
        stream.send(message)
    except (ConnectionError, OSError):
        # Coordinator hung up, or stopped reading long enough to time
        # the send out; either way its supervision owns the loss.  A
        # timed-out sendall may have torn a frame, so the stream is
        # dead: close it (which also unblocks the connection thread)
        # rather than follow with garbage.
        stream.close()
    except Exception as exc:
        import traceback

        try:
            stream.send(
                (
                    "failed",
                    {
                        "chunk": chunk_id,
                        "key": ("<node>",),
                        "detail": (
                            "chunk reply could not be serialised: "
                            f"{type(exc).__name__}: {exc}\n"
                            f"{traceback.format_exc()}"
                        ),
                    },
                )
            )
        except (ConnectionError, OSError):
            pass


def _job_done(job: _ChunkJob, future) -> None:
    """Pool completion callback: reply, or abandon the chunk
    (``lost``) when the pool broke under it."""
    chunk_id = job.chunk_id
    try:
        results = future.result()
    except (BrokenProcessPool, CancelledError) as exc:
        if job.pool is not None:
            job.server.discard_pool(job.pool)
        _finish_job(
            job,
            (
                "lost",
                {
                    "chunk": chunk_id,
                    "reason": (
                        "a node pool worker died mid-chunk "
                        f"({type(exc).__name__}); pool rebuilt"
                    ),
                },
            ),
        )
        return
    except TrialExecutionError as err:
        _finish_job(
            job,
            (
                "failed",
                {"chunk": chunk_id, "key": err.key, "detail": err.detail},
            ),
        )
        return
    except BaseException as exc:  # defensive: never die silently
        import traceback

        _finish_job(
            job,
            (
                "failed",
                {
                    "chunk": chunk_id,
                    "key": ("<node>",),
                    "detail": (
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}"
                    ),
                },
            ),
        )
        return
    _finish_job(job, ("done", {"chunk": chunk_id, "results": results}))


def _finish_job(job: _ChunkJob, message) -> None:
    try:
        _reply(job.stream, message, job.chunk_id)
    finally:
        job.server.chunk_finished()


def _start_chunk(server: _NodeServer, stream: MessageStream, body) -> None:
    chunk_id = body["chunk"]
    if server.stop.is_set():
        # Draining for shutdown: the chunks in hand finish, new ones
        # are refused so the coordinator requeues them elsewhere.
        _reply(
            stream,
            (
                "lost",
                {
                    "chunk": chunk_id,
                    "reason": "node draining for shutdown",
                    # Tells the coordinator this is a graceful refusal,
                    # not a chunk failure: requeue for free and stop
                    # feeding this connection.
                    "draining": True,
                },
            ),
            chunk_id,
        )
        return
    server.chunk_started()
    job = _ChunkJob(server, stream, chunk_id)
    try:
        job.pool = server.pool()
        future = job.pool.submit(execute_specs, body["specs"])
    except Exception as exc:
        _finish_job(
            job,
            (
                "lost",
                {
                    "chunk": chunk_id,
                    "reason": f"node pool unavailable: {exc}",
                },
            ),
        )
        return
    future.add_done_callback(lambda f: _job_done(job, f))


def _handle_connection(conn: socket.socket, server: _NodeServer) -> None:
    """Serve one coordinator connection until it hangs up.

    This thread only dispatches: chunks run on the node's process pool
    and reply from its callbacks, so pings are answered promptly
    however long the pool's chunks take.
    """
    stream = MessageStream(conn, send_timeout=NODE_SEND_TIMEOUT)
    try:
        while True:
            try:
                message = stream.recv()
            except (ConnectionError, ProtocolError, OSError):
                return
            kind, body = message
            try:
                if kind == "hello":
                    if body.get("version") != PROTOCOL_VERSION:
                        stream.send(
                            (
                                "error",
                                {
                                    "detail": (
                                        "protocol version mismatch: "
                                        "node speaks "
                                        f"{PROTOCOL_VERSION}, "
                                        f"coordinator sent "
                                        f"{body.get('version')!r}"
                                    )
                                },
                            )
                        )
                        return
                    stream.send(
                        (
                            "welcome",
                            {
                                "version": PROTOCOL_VERSION,
                                "pid": os.getpid(),
                                "workers": server.workers,
                            },
                        )
                    )
                elif kind == "chunk":
                    _start_chunk(server, stream, body)
                elif kind == "ping":
                    stream.send(("pong", dict(body or {})))
                else:
                    stream.send(
                        (
                            "error",
                            {"detail": f"unknown message kind {kind!r}"},
                        )
                    )
                    return
            except (ConnectionError, OSError):
                # The coordinator vanished mid-exchange; nothing left
                # to answer.  In-flight chunks reply through their own
                # guarded path.
                return
    finally:
        stream.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    node_workers: int | None = None,
    ready_stream=None,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
) -> None:
    """Run a worker node: execute trial chunks for cluster coordinators.

    Binds ``host:port`` (``port=0`` picks an ephemeral port), announces
    ``REPRO-WORKER LISTENING host:port`` on ``ready_stream`` (default
    stdout), then serves coordinator connections — each on its own
    thread — until the process is signalled.  Chunks execute on a
    process pool of ``node_workers`` (argument, else
    ``$REPRO_NODE_WORKERS``, else ``os.cpu_count()``) local workers;
    the welcome announces that width to each coordinator.

    On ``SIGTERM`` (caught when serving from the main thread) the node
    drains: it stops accepting connections, refuses new chunks
    (``lost`` replies let coordinators requeue them) and waits up to
    ``drain_timeout`` seconds for the chunks in hand to finish before
    exiting, so racing coordinators on a shared node never lose
    completed work.
    """
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    state = _NodeServer(resolve("node_workers", node_workers))
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    interrupted = False
    previous_term = None
    term_installed = False
    if threading.current_thread() is threading.main_thread():
        # SIGTERM (ClusterRunner.close, init systems, `kill`) starts
        # the drain: the accept loop notices the flag within its poll
        # interval, new chunks are refused, and the finally block
        # below waits for the chunks in hand.  Only installable from
        # the main thread.
        def _on_term(signum, frame):
            state.stop.set()

        try:
            previous_term = signal.signal(signal.SIGTERM, _on_term)
            term_installed = True
        except (ValueError, OSError):
            pass
    try:
        server.bind((host, port))
        server.listen()
        bound_host, bound_port = server.getsockname()[:2]
        out = ready_stream if ready_stream is not None else sys.stdout
        print(f"{READY_PREFIX}{bound_host}:{bound_port}", file=out, flush=True)
        server.settimeout(0.2)  # poll so the shutdown flag is noticed
        while not state.stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=_handle_connection,
                args=(conn, state),
                daemon=True,
                name="repro-worker-conn",
            ).start()
    except KeyboardInterrupt:
        interrupted = True
    finally:
        server.close()
        if not interrupted:
            state.drain(drain_timeout)
        state.shutdown_pool()
        # Restored only after the drain, so a repeated TERM during the
        # drain window re-enters the (idempotent) handler instead of
        # killing the node mid-drain; escalation stays available via
        # SIGKILL.
        if term_installed:
            try:
                signal.signal(signal.SIGTERM, previous_term)
            except (ValueError, TypeError, OSError):
                # TypeError: the previous handler was installed by
                # non-Python code, so signal() had returned None —
                # nothing restorable.
                pass


# --------------------------------------------------------------------------
# Local node processes (self-managed clusters, tests, benchmarks)
# --------------------------------------------------------------------------


class LocalNode:
    """A ``repro worker serve`` subprocess on this machine."""

    def __init__(
        self, proc: subprocess.Popen, host: str, port: int
    ) -> None:
        self.proc = proc
        self.host = host
        self.port = port
        #: Most recent output lines, for post-mortem diagnostics; the
        #: drain thread keeps the pipe from ever filling (a full 64KB
        #: pipe would block a chatty node mid-write and hang its run).
        self.output_tail: deque[str] = deque(maxlen=50)
        self._drainer = threading.Thread(
            target=self._drain, daemon=True, name=f"repro-node-drain-{port}"
        )
        self._drainer.start()

    def _drain(self) -> None:
        try:
            for line in self.proc.stdout:
                self.output_tail.append(line)
        except ValueError:
            pass  # stdout closed by terminate()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def terminate(self, force: bool = False) -> None:
        """Stop the node process (idempotent): :meth:`send_stop`, then
        :meth:`reap`."""
        self.send_stop(force)
        self.reap()

    def send_stop(self, force: bool = False) -> None:
        """Send a live node one stop signal: SIGTERM, which drains it,
        or SIGKILL when ``force``.

        The runner's fail-fast teardown paths force: on Ctrl-C or a
        failed batch the connections are already gone, so nobody could
        receive what a drain delivers.  Never TERM a node twice: on
        its way out ``serve()`` restores the default SIGTERM action,
        so a second TERM would kill it mid-exit.

        A wedged (SIGSTOPped) node cannot act on SIGTERM, so it is
        also sent SIGCONT — a no-op for a running process.
        """
        if self.proc.poll() is not None:
            return
        if force:
            self.proc.kill()
        else:
            self.proc.terminate()
        if hasattr(signal, "SIGCONT"):
            try:
                self.proc.send_signal(signal.SIGCONT)
            except OSError:
                pass

    def reap(self) -> None:
        """Wait for the node to exit, SIGKILLing it after 5 s.

        The bound caps — not honours — a node's ``drain_timeout``; a
        supervisor that grants the node its own grace period (systemd,
        Kubernetes) lets a drain run in full.
        """
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __repr__(self) -> str:
        state = "live" if self.proc.poll() is None else "dead"
        return f"LocalNode({self.address}, {state})"


def _terminate_nodes(
    nodes: Sequence[LocalNode], force: bool = False
) -> None:
    # Signal every node before waiting for any, so their drains run
    # side by side.
    for node in nodes:
        node.send_stop(force)
    for node in nodes:
        node.reap()


def _worker_env() -> dict:
    """Subprocess env whose PYTHONPATH can import repro."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    paths = [str(src_root)]
    existing = env.get("PYTHONPATH")
    if existing:
        paths.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _read_ready_line(
    proc: subprocess.Popen, timeout: float = DEFAULT_SPAWN_TIMEOUT
) -> tuple[str, int]:
    """Parse the READY line off a node's stdout, under a deadline.

    A node that prints output but never the READY line (import hang,
    wedged interpreter, wrong entry point) used to block the spawner
    in ``readline()`` forever; now it is reaped at ``timeout`` and the
    error carries the captured output tail.  Reads the raw fd
    non-blocking (restored before handing off to the LocalNode drain
    thread) so a partial line cannot stall the deadline.
    """
    fd = proc.stdout.fileno()
    os.set_blocking(fd, False)
    deadline = time.monotonic() + timeout
    buffer = b""
    lines: list[str] = []
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                proc.wait()
                tail = "".join(lines[-50:])
                raise RuntimeError(
                    "worker node produced no "
                    f"{READY_PREFIX.strip()!r} line within {timeout}s; "
                    "killed it; output so far:\n" + tail
                )
            if not _wait_readable(fd, min(remaining, 0.5)):
                if proc.poll() is not None and not buffer:
                    raise RuntimeError(
                        "worker node exited before announcing its "
                        f"address (exit code {proc.returncode}); "
                        "output:\n" + "".join(lines)
                    )
                continue
            try:
                data = os.read(fd, 1 << 16)
            except BlockingIOError:
                continue
            if not data:
                # stdout EOF: usually the node exited — but a child
                # that closed its stdout while staying alive must not
                # hang the spawner in an unbounded wait; reap it under
                # the same deadline instead.
                try:
                    proc.wait(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise RuntimeError(
                        "worker node closed stdout without announcing "
                        "its address and stayed alive past the "
                        f"{timeout}s spawn deadline; killed it; "
                        "output so far:\n" + "".join(lines)
                    ) from None
                raise RuntimeError(
                    "worker node exited before announcing its address "
                    f"(exit code {proc.returncode}); output:\n"
                    + "".join(lines)
                )
            buffer += data
            while b"\n" in buffer:
                raw, buffer = buffer.split(b"\n", 1)
                line = raw.decode(errors="replace") + "\n"
                if line.startswith(READY_PREFIX):
                    host, _, port_text = (
                        line[len(READY_PREFIX) :].strip().rpartition(":")
                    )
                    return host, int(port_text)
                lines.append(line)
    finally:
        os.set_blocking(fd, True)


def spawn_local_nodes(
    count: int,
    *,
    node_workers: int | None = None,
    spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
) -> list[LocalNode]:
    """Spawn ``count`` localhost worker nodes on ephemeral ports.

    Each node imports from this ``repro`` plus the caller's
    ``PYTHONPATH``.  ``node_workers`` sets each node's execution-pool
    size (None leaves the node's own env/default resolution in
    charge).  A node that fails to announce its address within
    ``spawn_timeout`` seconds is reaped and reported with its captured
    output.  On any spawn failure every already-started node is reaped
    before the error propagates.
    """
    if count < 1:
        raise ValueError(f"node count must be >= 1, got {count}")
    command = [sys.executable, "-u", "-m", "repro", "worker", "serve",
               "--host", "127.0.0.1", "--port", "0"]
    if node_workers is not None:
        command += ["--node-workers", str(node_workers)]
    env = _worker_env()
    nodes: list[LocalNode] = []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
                text=True,
            )
            host, port = _read_ready_line(proc, spawn_timeout)
            nodes.append(LocalNode(proc, host, port))
    except BaseException:
        _terminate_nodes(nodes)
        raise
    return nodes


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------


class ChunkBoard:
    """Reassembles chunk results into submission order, thread-safely.

    Chunks complete in whatever order nodes finish (and a requeued
    chunk may even complete twice — trials are pure, so duplicates are
    identical and placement is idempotent); the board keys everything
    by batch offset so the final list is always in submission order.
    """

    def __init__(self, total: int) -> None:
        self._results: list = [None] * total
        self._placed = [False] * total
        self._filled = 0
        self._lock = threading.Lock()

    def place(self, start: int, results: Sequence) -> None:
        if start < 0 or start + len(results) > len(self._results):
            raise ProtocolError(
                f"chunk at offset {start} with {len(results)} results "
                f"overflows a {len(self._results)}-trial batch"
            )
        with self._lock:
            for offset, result in enumerate(results):
                index = start + offset
                if not self._placed[index]:
                    self._placed[index] = True
                    self._filled += 1
                self._results[index] = result

    @property
    def complete(self) -> bool:
        return self._filled == len(self._results)

    def results(self) -> list:
        if not self.complete:
            missing = sum(1 for placed in self._placed if not placed)
            raise RuntimeError(f"batch incomplete: {missing} trials unplaced")
        return list(self._results)


class _Task:
    """One chunk in flight, with its retry count."""

    __slots__ = ("start", "chunk", "attempts")

    def __init__(self, start: int, chunk: list) -> None:
        self.start = start
        self.chunk = chunk
        self.attempts = 0  # requeues consumed so far

    def describe(self) -> str:
        first, last = self.chunk[0].key, self.chunk[-1].key
        span = f"{first!r}" if len(self.chunk) == 1 else f"{first!r}..{last!r}"
        return f"offset {self.start} (keys {span})"


def _checked_results(node: _Node, task: _Task, results) -> list:
    """A ``done`` reply's results, if they answer ``task`` exactly.

    One :class:`TrialResult` per spec, in order, each keyed as its
    spec.  A short reply would leave trials unplaced, a long one could
    overwrite a neighbouring chunk, and a mis-keyed one would file a
    value under the wrong trial: any of them means the node is not
    speaking the protocol, so :class:`ProtocolError` drops it and the
    chunk requeues.
    """
    if not isinstance(results, list) or len(results) != len(task.chunk):
        got = len(results) if isinstance(results, list) else results
        raise ProtocolError(
            f"node {node.label()} returned {got!r:.80} results for a "
            f"{len(task.chunk)}-spec chunk"
        )
    for spec, result in zip(task.chunk, results):
        if not isinstance(result, TrialResult) or result.key != spec.key:
            raise ProtocolError(
                f"node {node.label()} answered key {spec.key!r} with "
                f"{result!r:.80}"
            )
    return results


class _RunState:
    """Completion/failure bookkeeping shared by the node threads."""

    def __init__(self, total_chunks: int, live_nodes: int, retries: int):
        self.total = total_chunks
        self.retries = retries
        self.completed = 0
        self.live = live_nodes
        self.failure: BaseException | None = None
        self._cond = threading.Condition()

    @property
    def finished(self) -> bool:
        return self.failure is not None or self.completed == self.total

    def chunk_done(self) -> None:
        with self._cond:
            self.completed += 1
            self._cond.notify_all()

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            if self.failure is None:
                self.failure = exc
            self._cond.notify_all()

    def node_exit(self) -> None:
        with self._cond:
            self.live -= 1
            self._cond.notify_all()

    def wait(self) -> None:
        """Block until done, failed, or every node thread has exited."""
        with self._cond:
            while not self.finished and self.live > 0:
                self._cond.wait(timeout=0.5)


class _Node:
    """Coordinator-side handle on one worker node connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.stream: MessageStream | None = None
        self.alive = False
        #: Pool width the node announced: its chunks in flight.
        self.workers = 0
        self.local: LocalNode | None = None  # backing self-managed proc
        # Healing backoff: a node that keeps refusing to come back is
        # not re-dialed (at full connect_timeout) before every batch.
        self.heal_backoff = 0.0
        self.heal_at = 0.0  # monotonic deadline for the next attempt

    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def connect(self, timeout: float) -> None:
        sock = socket.create_connection(self.address, timeout=timeout)
        # Sends stay bounded for the stream's whole life: a peer that
        # stops reading (wedged node, full buffer) times the send out,
        # which the coordinator treats as a lost node.  Every read —
        # the handshake here, recv polling afterwards — carries its
        # own explicit timeout, so no coordinator thread can block
        # forever on a wedged node.
        self.stream = MessageStream(sock, send_timeout=timeout)
        try:
            self._handshake(timeout)
        except BaseException:
            # Peer accepted then hung up or answered garbage (port
            # squatter, restarting node): close explicitly rather than
            # leave the fd to GC.
            self.stream.close()
            raise
        self.alive = True

    def _handshake(self, timeout: float) -> None:
        try:
            self.stream.send(("hello", {"version": PROTOCOL_VERSION}))
            reply = self.stream.recv(timeout=timeout)
        except socket.timeout:  # the hello send timed out
            reply = None
        if reply is None:
            raise ProtocolError(
                f"handshake with {self.label()} timed out after {timeout}s"
            )
        if not (
            isinstance(reply, tuple)
            and len(reply) == 2
            and isinstance(reply[1], dict)
        ):
            raise ProtocolError(
                f"handshake with {self.label()} got a malformed reply "
                f"{reply!r:.80}"
            )
        kind, body = reply
        if kind != "welcome" or body.get("version") != PROTOCOL_VERSION:
            detail = body.get("detail", f"unexpected {kind!r} reply")
            raise ProtocolError(
                f"handshake with {self.label()} failed: {detail}"
            )
        workers = body.get("workers")
        if type(workers) is not int or workers < 1:  # a bool is no width
            raise ProtocolError(
                f"handshake with {self.label()} failed: pool width "
                f"{workers!r:.80} is not an int >= 1"
            )
        self.workers = workers

    def close(self) -> None:
        self.alive = False
        if self.stream is not None:
            self.stream.close()
            self.stream = None


class ClusterRunner(TrialRunner):
    """Run trials on TCP worker nodes (``repro worker serve``).

    Parameters
    ----------
    nodes:
        Worker addresses — a ``"host:port,host:port"`` string or an
        iterable of ``"host:port"`` / ``(host, port)``.  Default: the
        ``$REPRO_CLUSTER_NODES`` environment variable; with neither,
        the runner self-manages ``workers`` localhost node processes.
    workers:
        Node count for the self-managed case (argument, else
        ``$REPRO_WORKERS``, else 2); ignored when ``nodes`` names the
        cluster, whose size wins.
    chunksize:
        Specs per chunk (argument, else ``$REPRO_CHUNKSIZE``, else
        about four chunks per pool worker the live nodes announce).
    retries:
        Requeues a chunk survives when nodes disconnect mid-batch (or
        abandon it with a ``lost`` reply) before the run fails naming
        it.
    connect_timeout:
        Seconds allowed for each node connection + handshake (also the
        per-send bound afterwards).
    heartbeat:
        Seconds of node silence tolerated before the node is declared
        lost and its in-flight chunks requeue (argument, else
        ``$REPRO_HEARTBEAT``, else 10; ``0`` disables supervision).
        Pings go out every third of the deadline; a busy node answers
        them from its connection thread, so long chunks never trip it.
    node_workers:
        Execution-pool size for *self-managed* node processes (None
        lets each node resolve ``$REPRO_NODE_WORKERS``, else its CPU
        count).  External nodes choose their own pool size at
        ``repro worker serve`` time.

    Each node holds as many chunks in flight as the pool width it
    announced in its welcome: one per pool worker.

    Connections (and self-managed node processes) are lazy and
    persistent, mirroring :class:`ProcessPoolRunner`'s pool: the first
    parallel batch pays them, later batches reuse them, ``close()`` (or
    a ``with`` block) releases them.  A node lost mid-batch is healed
    before the *next* batch — reconnected at its address (external) or
    respawned (self-managed) — so a transient loss does not shrink the
    cluster for the runner's lifetime.  Errors tear connections down;
    external nodes themselves are never shut down by a coordinator.
    """

    def __init__(
        self,
        nodes=None,
        workers: int | None = None,
        chunksize: int | None = None,
        retries: int = 2,
        connect_timeout: float = 10.0,
        heartbeat: float | None = None,
        node_workers: int | None = None,
    ) -> None:
        self._addresses = resolve("cluster_nodes", nodes)
        if self._addresses is not None:
            # The named cluster's size wins, but the workers knob is
            # still *validated* — REPRO_WORKERS=0 must raise here as it
            # does on every other construction path.
            resolve("workers", workers)
            self.workers = len(self._addresses)
            self._spawn_count = 0
        else:
            self._spawn_count = resolve(
                "workers", workers, default=DEFAULT_LOCAL_NODES
            )
            self.workers = self._spawn_count
        self.chunksize = resolve("chunksize", chunksize)
        if not isinstance(retries, int) or retries < 0:
            raise ValueError(f"retries must be an integer >= 0, got {retries}")
        self.retries = retries
        self.connect_timeout = float(connect_timeout)
        self.heartbeat = resolve("heartbeat", heartbeat)
        if node_workers is not None:
            resolve("node_workers", node_workers)
        self.node_workers = node_workers
        self._nodes: list[_Node] | None = None
        # Self-managed node processes.  The list object is shared with
        # the GC finalizer and mutated in place, so whatever is spawned
        # at collection time is what gets reaped.
        self._local: list[LocalNode] = []
        self._finalizer = weakref.finalize(
            self, _terminate_nodes, self._local, True  # force: GC path
        )

    # -- node lifecycle ---------------------------------------------------

    def _spawn_one(self) -> LocalNode:
        local = spawn_local_nodes(1, node_workers=self.node_workers)[0]
        self._local.append(local)
        return local

    def _drop_local(self, local: LocalNode) -> None:
        # The node being dropped is dead or unhealthy; no drain to wait
        # for, and healing should not stall the batch.
        local.terminate(force=True)
        try:
            self._local.remove(local)
        except ValueError:
            pass

    def _connect_all(self) -> list[_Node]:
        nodes: list[_Node] = []
        try:
            if self._addresses is not None:
                for address in self._addresses:
                    node = _Node(address)
                    node.connect(self.connect_timeout)
                    nodes.append(node)
            else:
                for _ in range(self._spawn_count):
                    local = self._spawn_one()
                    node = _Node((local.host, local.port))
                    node.local = local
                    node.connect(self.connect_timeout)
                    nodes.append(node)
        except BaseException:
            for node in nodes:
                node.close()
            self._reap_local()
            raise
        self._nodes = nodes
        return nodes

    def _heal_nodes(self) -> None:
        """Best-effort recovery of nodes lost in an earlier batch.

        External nodes are reconnected at their address (an operator
        may have restarted them).  Self-managed processes are
        respawned.  A node that stays down just stays out of the pool;
        survivors carry the batch, and repeated failures back off
        exponentially so a permanently-dead address is not re-dialed
        (at full ``connect_timeout``) before every batch of a long
        sweep.
        """
        for index, node in enumerate(self._nodes):
            if node.alive:
                continue
            if time.monotonic() < node.heal_at:
                continue  # still backing off this address
            if node.local is not None:
                self._drop_local(node.local)
                try:
                    local = self._spawn_one()
                except (RuntimeError, OSError):
                    self._note_heal_failure(node)
                    continue
                fresh = _Node((local.host, local.port))
                fresh.local = local
            else:
                fresh = _Node(node.address)
            try:
                fresh.connect(self.connect_timeout)
            except (OSError, ProtocolError):
                if fresh.local is not None:
                    self._drop_local(fresh.local)
                self._note_heal_failure(node)
                continue
            self._nodes[index] = fresh

    @staticmethod
    def _note_heal_failure(node: _Node) -> None:
        node.heal_backoff = min(max(1.0, node.heal_backoff * 2), 60.0)
        node.heal_at = time.monotonic() + node.heal_backoff

    def _ensure_nodes(self) -> list[_Node]:
        """Connected live nodes: connect/spawn on first use, heal after
        losses, full restart only when nothing survived."""
        if self._nodes is None:
            return self._connect_all()
        if any(not node.alive for node in self._nodes):
            self._heal_nodes()
        live = [node for node in self._nodes if node.alive]
        if live:
            return live
        self._discard_nodes()
        return self._connect_all()

    def _reap_local(self, force: bool = True) -> None:
        # Force by default: the fail-fast callers (Ctrl-C, failed
        # batch) have already closed the connections, so a graceful
        # TERM would drain chunks whose results nobody can receive —
        # and stall the teardown doing it.  ``close()`` passes
        # ``force=False``: its TERM is the node's drain.
        _terminate_nodes(self._local, force=force)
        del self._local[:]

    def _discard_nodes(self, force: bool = True) -> None:
        """Drop connections (and self-managed processes) immediately."""
        if self._nodes is not None:
            for node in self._nodes:
                node.close()
            self._nodes = None
        self._reap_local(force)

    def close(self) -> None:
        """Release connections; stop self-managed node processes.

        External nodes just see the connection close and keep serving
        (they are shared infrastructure); each live self-managed node
        gets one SIGTERM, which drains it, and is reaped (SIGKILL after
        5 s).
        """
        self._discard_nodes(force=False)

    # -- scheduling -------------------------------------------------------

    def run(self, specs: Iterable[TrialSpec]) -> list[TrialResult]:
        specs = list(specs)
        if not specs:
            return []
        if self._addresses is None and (
            self.workers == 1
            or pick_chunksize(len(specs), self.workers, self.chunksize)
            >= len(specs)
        ):
            # No parallelism to extract and the nodes would be this
            # machine anyway: run inline, exactly as the process pool
            # does for a single chunk.  Explicitly-named nodes are
            # different — the user asked for the work to run *there*
            # (imports, memory, data locality may only exist on the
            # node) — so every non-empty batch ships, however small.
            return execute_specs(specs)
        nodes = self._ensure_nodes()
        width = sum(node.workers for node in nodes)
        chunks = split_chunks(
            specs, pick_chunksize(len(specs), width, self.chunksize)
        )
        board = ChunkBoard(len(specs))
        tasks: queue.Queue = queue.Queue()
        for start, chunk in chunks:
            tasks.put(_Task(start, chunk))
        state = _RunState(
            total_chunks=len(chunks),
            live_nodes=len(nodes),
            retries=self.retries,
        )
        threads = [
            threading.Thread(
                target=self._node_loop,
                args=(node, tasks, board, state),
                daemon=True,
                name=f"repro-cluster-{node.label()}",
            )
            for node in nodes
        ]
        for thread in threads:
            thread.start()
        try:
            state.wait()
        except BaseException:
            # Fail fast on Ctrl-C: drop connections (which unblocks any
            # thread mid-recv) instead of finishing the sweep first.
            self._discard_nodes()
            raise
        failure = state.failure
        if failure is None and not board.complete:
            lost = []
            while True:
                try:
                    lost.append(tasks.get_nowait())
                except queue.Empty:
                    break
            described = "; ".join(task.describe() for task in lost)
            failure = TrialExecutionError(
                ("<cluster>",),
                f"all cluster nodes lost with {len(lost)} chunk(s) "
                f"unfinished: {described or 'chunks still in flight'}",
            )
        if failure is not None:
            self._discard_nodes()  # unblocks threads stuck in recv
            for thread in threads:
                thread.join(timeout=5)
            raise failure
        for thread in threads:
            thread.join(timeout=5)
        return board.results()

    def _requeue(self, tasks, task: _Task, state: _RunState, cause) -> bool:
        """Give a lost chunk another node (False = retry cap blown)."""
        if task.attempts >= state.retries:
            state.fail(
                TrialExecutionError(
                    ("<cluster>",),
                    f"chunk at {task.describe()} lost after "
                    f"{task.attempts + 1} node failure(s) "
                    f"(retry cap {state.retries}): {cause}",
                )
            )
            return False
        task.attempts += 1
        tasks.put(task)
        return True

    def _node_loop(self, node, tasks, board, state) -> None:
        """One thread per node: ship chunks, collect, supervise."""
        inflight: dict[int, _Task] = {}
        try:
            try:
                self._pump_node(node, tasks, board, state, inflight)
            except TrialExecutionError as exc:
                # A poison chunk: the run is wrong, not the node.  The
                # connection may hold a half-written frame, so drop it
                # too.
                node.close()
                state.fail(exc)
            except Exception as exc:
                # Transport fault, heartbeat expiry, or a reply that
                # breaks the protocol (a ProtocolError, or a malformed
                # body raising KeyError, TypeError, ...): the node is
                # gone or not to be trusted, so drop it and requeue its
                # in-flight chunks to survivors under the retry cap.
                node.close()
                cause = f"{type(exc).__name__}: {exc}"
                if not state.finished:
                    for task in inflight.values():
                        if not self._requeue(tasks, task, state, cause):
                            break
        finally:
            state.node_exit()

    def _pump_node(self, node, tasks, board, state, inflight) -> None:
        """Drive one node until the batch finishes or the node fails.

        Keeps up to the node's announced pool width of chunks in
        flight, polls the socket with short timeouts (never a blocking
        read), pings on the heartbeat interval and raises
        :class:`_NodeLost` when the node goes silent past the deadline.
        """
        deadline = self.heartbeat
        interval = deadline / 3.0 if deadline else 0.0
        now = time.monotonic()
        # Start of the silence window the node is held accountable
        # for: reset on every frame received AND after every
        # potentially-long blocking chunk send, during which this
        # thread was not listening — silence while *we* were busy must
        # not condemn the node.
        # Deliberately NOT reset on ping sends: a tiny ping to a wedged
        # node still lands in kernel buffers, so resetting there would
        # let a wedged node evade the deadline forever.
        quiet_since = now
        last_ping = now
        seen_bytes = node.stream.bytes_received
        draining = False
        while True:
            if draining and not inflight:
                # Nothing left in hand on a node that refuses new
                # work: retire the connection — closed, so the next
                # batch on a persistent runner routes the address
                # through the heal/backoff path instead of shipping
                # chunks to a corpse.  Checked ahead of the finished
                # early-return: a draining node whose in-hand chunk
                # completed the batch must still be retired, not left
                # looking alive.
                node.close()
                return
            if state.finished:
                return
            while not draining and len(inflight) < node.workers:
                try:
                    task = tasks.get_nowait()
                except queue.Empty:
                    break
                if state.finished:
                    tasks.put(task)
                    return
                try:
                    self._ship_task(node, task)
                except (ConnectionError, ProtocolError, OSError):
                    # Transport: count the chunk with this node's
                    # losses so the outer handler requeues it.
                    inflight[task.start] = task
                    raise
                except TrialExecutionError:
                    raise
                except Exception as exc:
                    # Not a transport fault: the chunk itself is the
                    # problem (e.g. a spec that does not pickle).  A
                    # requeue would poison every node in turn, so fail
                    # fast naming the chunk.
                    raise TrialExecutionError(
                        ("<cluster>",),
                        f"chunk at {task.describe()} could not be "
                        f"shipped or collected: "
                        f"{type(exc).__name__}: {exc}",
                    ) from exc
                inflight[task.start] = task
                # The ship may have blocked past the deadline; the
                # node owes nothing for that stretch.
                quiet_since = time.monotonic()
            now = time.monotonic()
            if deadline and now - last_ping >= interval:
                node.stream.send(("ping", {"at": now}))
                last_ping = now
            message = node.stream.recv(timeout=0.05)
            received = node.stream.bytes_received
            if received != seen_bytes:
                # Bytes arrived even if no message completed yet: a
                # reply frame larger than deadline × bandwidth is mid
                # transfer, which is proof of life, not a wedge.
                seen_bytes = received
                quiet_since = time.monotonic()
            if message is None:
                now = time.monotonic()
                if deadline and now - quiet_since > deadline:
                    raise _NodeLost(
                        f"node {node.label()} sent nothing for "
                        f"{now - quiet_since:.1f}s (heartbeat deadline "
                        f"{deadline}s); presumed wedged"
                    )
                continue
            quiet_since = time.monotonic()
            kind, body = message
            if kind == "pong":
                continue
            if kind == "failed":
                state.fail(
                    TrialExecutionError(
                        tuple(body["key"]), body["detail"]
                    )
                )
                return
            task = inflight.get(body.get("chunk")) if body else None
            if task is None:
                raise ProtocolError(
                    f"unexpected reply kind {kind!r} from "
                    f"{node.label()} (no such chunk in flight)"
                )
            if kind == "done":
                results = _checked_results(node, task, body.get("results"))
                del inflight[task.start]
                board.place(task.start, results)
                state.chunk_done()
            elif kind == "lost":
                del inflight[task.start]
                if body.get("draining"):
                    # A graceful drain refusal is not a chunk failure:
                    # hand the chunk back without charging a retry and
                    # stop feeding this connection — otherwise a node
                    # mid-shutdown would bounce the chunk back in
                    # milliseconds, burn the whole retry budget and
                    # fail a batch its healthy peers could finish.
                    # Chunks already in hand still complete and reply.
                    draining = True
                    tasks.put(task)
                    continue
                reason = body.get("reason", "node abandoned the chunk")
                if not self._requeue(tasks, task, state, reason):
                    return
            else:
                raise ProtocolError(
                    f"unexpected reply kind {kind!r} from {node.label()}"
                )

    def _ship_task(self, node: _Node, task: _Task) -> None:
        """Send one chunk; its pickle carries the chunk's workloads."""
        node.stream.send(
            ("chunk", {"chunk": task.start, "specs": task.chunk})
        )

    def __repr__(self) -> str:
        if self._addresses is not None:
            where = ",".join(f"{h}:{p}" for h, p in self._addresses)
        else:
            where = f"self-managed x{self._spawn_count}"
        state = "live" if self._nodes else "cold"
        return (
            f"ClusterRunner(nodes={where}, chunksize={self.chunksize}, "
            f"retries={self.retries}, heartbeat={self.heartbeat}, {state})"
        )
