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
* trial results stream back per chunk and are placed by batch offset,
  so completion order never leaks into the output and the determinism
  contract holds: byte-identical ``ResultTable``\\ s versus
  ``SerialRunner`` for the same master seed;
* a trial that raises on a node comes back as a
  :class:`~repro.runtime.trial.TrialExecutionError` with the node-side
  traceback preserved in ``detail``.

Node-side execution pool
------------------------

A node executes chunks on a **process pool** of ``--node-workers``
local workers (default ``os.cpu_count()``), so one many-core remote
machine runs as many chunks at once as it has pool workers.  The
node's loop (below) only dispatches and replies — it never executes
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
requeue exactly as if it had crashed.

The coordinator loop
--------------------

One loop on the calling thread runs each batch and owns every live
node's socket.  Each pass applies the heartbeat deadline and pings the
nodes that are due, ships every node chunks up to its announced width,
waits on all node sockets at once for at most 50 ms and handles every
reply that arrived; the batch returns as soon as its last chunk is
placed.  A node is charged only for silence while the
loop was listening: each send's duration is added to the start of
every node's silence clock, which no send ever resets, so a wedged
node cannot hide behind a busy peer.  The price of one thread is that
a send blocked on a wedged peer's full buffer pauses every node, for
at most the send bound (``connect_timeout``); only a wedged peer can
block a send, because chunks are kilobytes and a healthy node's loop
reads every connection on each pass.

The node loop
-------------

One loop on the node's main thread owns the listener and every
coordinator connection.  Each pass waits at most 0.2 s on them and on
a wake socket, to which a chunk's pool done-callback and the SIGTERM
handler only write one byte; it accepts, answers ``hello`` and
``ping``, submits each ``chunk`` to the pool and sends every finished
chunk's reply itself.  The pool is forked from this thread,
and the node starts no thread of its own.  The price of one thread is
that a reply send blocked on a coordinator which stopped reading
pauses every connection on the node, pings included, for at most
:data:`NODE_SEND_TIMEOUT`.  A coordinator holds at most its announced
width of chunks on a node, so that send blocks only once the
coordinator's unread replies fill both sockets' buffers.

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
partial reads).  One thread drives each :class:`MessageStream` at
either end of a connection, so frames never interleave.  Messages are
``(kind, body)`` tuples; the handshake is ``("hello", {"version"})``
→ ``("welcome", {"version", "pid", "workers"})`` (``workers``: the
node's pool width, an ``int`` >= 1), then ``("chunk", {"chunk",
"specs"})`` answered by one of
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
import select
import signal
import struct
import socket
import subprocess
import sys
import threading
import time
import traceback
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

#: Bound on a node-side send.  One loop sends every reply on a node:
#: with no bound, one coordinator that stops reading (wedged,
#: partitioned) would block that loop in ``sendall`` forever and stop
#: the node serving *every* coordinator.  A timed-out send closes only
#: the wedged coordinator's connection; its own retry machinery re-runs
#: the chunks elsewhere.
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


def _wait_readable(streams: Sequence, timeout: float | None) -> list:
    """The members of ``streams`` (anything with ``fileno()``) that
    turn readable within ``timeout`` seconds (``None`` waits forever).

    Uses ``poll`` where the platform has it: unlike ``select`` it has
    no ``FD_SETSIZE`` cap, so the cluster backend keeps working inside
    host processes that already hold >1024 descriptors.  Raises
    ``OSError``/``ValueError`` if a descriptor is closed under us.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        by_fd = {}
        for stream in streams:
            by_fd[stream.fileno()] = stream
            poller.register(stream, select.POLLIN)
        ms = None if timeout is None else max(0, math.ceil(timeout * 1000))
        return [by_fd[fd] for fd, _event in poller.poll(ms)]
    return select.select(streams, [], [], timeout)[0]


class MessageStream:
    """A connected socket carrying framed messages, both directions.

    A stream takes no lock: one thread drives it at each end of a
    connection (a coordinator's loop, a node's loop), so frames never
    interleave.  ``send_timeout`` bounds how long a send may block on
    a peer that stopped reading (None = forever); a timed-out send
    leaves the stream torn and raises ``TimeoutError`` (an
    ``OSError``), which either end treats as a lost peer.  The bound
    is set on the socket once: every read polls for readiness first,
    so reads never feel it, and a connection that is simply idle
    between batches is not torn down after ``send_timeout`` seconds of
    quiet.
    """

    def __init__(
        self,
        sock: socket.socket,
        send_timeout: float | None = None,
    ) -> None:
        self._sock = sock
        if send_timeout is not None:
            sock.settimeout(send_timeout)
        self._reader = FrameReader()
        self._pending: deque = deque()
        #: Total bytes ever read off the socket.  Heartbeat supervision
        #: compares it across polls: a frame larger than deadline ×
        #: bandwidth completes no message for a while, but advancing
        #: bytes are proof of life all the same.
        self.bytes_received = 0

    def send(self, message) -> None:
        frame = encode_frame(message)  # pickle before any byte ships
        self._sock.sendall(frame)

    def recv(self, timeout: float | None = None):
        """Return the next message, or ``None`` on ``timeout`` seconds
        of quiet socket (``timeout=None`` blocks until a frame or EOF).

        Readiness is polled (:func:`_wait_readable`) before each read
        rather than taken from the socket timeout, so the send bound
        never reaches a read: an idle connection stays up indefinitely.

        Raises :class:`ConnectionError` on orderly EOF between frames
        and :class:`ProtocolError` on EOF that tears a frame in half.
        """
        while not self._pending:
            try:
                if not _wait_readable([self._sock], timeout):
                    return None
            except (OSError, ValueError):
                # The stream was closed before this read.
                raise ConnectionError("connection closed") from None
            data = self._sock.recv(1 << 16)
            if not data:
                if self._reader.mid_frame:
                    raise ProtocolError("connection closed mid-frame")
                raise ConnectionError("connection closed by peer")
            self.bytes_received += len(data)
            self._pending.extend(self._reader.feed(data))
        return self._pending.popleft()

    def fileno(self) -> int:
        return self._sock.fileno()

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


def _nudge(waker: socket.socket) -> None:
    """Wake the node loop with one byte on its wake socket; safe from a
    pool callback thread and from a signal handler."""
    try:
        waker.send(b"\0")
    except OSError:
        pass  # a full buffer wakes the loop anyway; a closed one has no loop


def _chunk_reply(chunk_id, future) -> tuple:
    """The reply to a finished chunk: ``done``, ``failed``, or ``lost``
    when the pool broke under it."""
    exc = CancelledError() if future.cancelled() else future.exception()
    if exc is None:
        return ("done", {"chunk": chunk_id, "results": future.result()})
    if isinstance(exc, (BrokenProcessPool, CancelledError)):
        return (
            "lost",
            {
                "chunk": chunk_id,
                "reason": (
                    "a node pool worker died mid-chunk "
                    f"({type(exc).__name__}); pool rebuilt"
                ),
            },
        )
    if isinstance(exc, TrialExecutionError):
        return (
            "failed",
            {"chunk": chunk_id, "key": exc.key, "detail": exc.detail},
        )
    return (
        "failed",
        {
            "chunk": chunk_id,
            "key": ("<node>",),
            "detail": (
                f"{type(exc).__name__}: {exc}\n"
                + "".join(traceback.format_exception(exc))
            ),
        },
    )


def _send(conns: set, stream: MessageStream, message) -> None:
    """Send ``message`` if ``stream`` is still open, surviving a gone
    coordinator and a reply that will not pickle (reported as the
    trial failure it is)."""
    if stream not in conns:
        return  # closed already: the coordinator's supervision owns the loss
    try:
        stream.send(message)
    except OSError:
        # Coordinator hung up, or stopped reading long enough to time
        # the send out.  A timed-out sendall may have torn a frame, so
        # the stream is dead: close it rather than follow with garbage.
        conns.discard(stream)
        stream.close()
    except Exception as exc:
        detail = (
            "chunk reply could not be serialised: "
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )
        failure = {"chunk": message[1].get("chunk"), "key": ("<node>",)}
        _send(conns, stream, ("failed", {**failure, "detail": detail}))


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    node_workers: int | None = None,
) -> None:
    """Run a worker node: execute trial chunks for cluster coordinators.

    Binds ``host:port`` (``port=0`` picks an ephemeral port), announces
    ``REPRO-WORKER LISTENING host:port`` on stdout, then serves every
    coordinator connection from one loop on the calling thread (*The
    node loop* above) until the process is signalled.  Chunks execute
    on a process pool of ``node_workers`` (argument, else
    ``$REPRO_NODE_WORKERS``, else ``os.cpu_count()``) local workers;
    the welcome announces that width to each coordinator.  A
    connection that breaks or sends a malformed message is closed on
    its own, and replies for its chunks are dropped.

    On ``SIGTERM`` (caught when serving from the main thread) the node
    drains: it stops accepting connections, refuses new chunks
    (``lost`` replies let coordinators requeue them) and returns once
    the chunks in hand are answered or ``DEFAULT_DRAIN_TIMEOUT`` seconds
    have passed, so racing coordinators on a shared node never lose
    completed work.
    """
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    workers = resolve("node_workers", node_workers)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    wake, waker = socket.socketpair()
    wake.setblocking(False)
    waker.setblocking(False)
    conns: set[MessageStream] = set()
    jobs: dict = {}  # chunks in hand: future -> (stream, chunk id, pool)
    pool: ProcessPoolExecutor | None = None
    stopping = False
    previous_term = None
    term_installed = False

    def on_term(signum, frame):
        # SIGTERM (ClusterRunner.close, init systems, `kill`) starts
        # the drain at the top of the loop's next pass.
        nonlocal stopping
        stopping = True
        _nudge(waker)

    def answer(stream: MessageStream, message) -> None:
        nonlocal pool
        kind, body = message
        if kind == "hello" and body.get("version") == PROTOCOL_VERSION:
            welcome = {
                "version": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "workers": workers,
            }
            _send(conns, stream, ("welcome", welcome))
        elif kind == "ping":
            _send(conns, stream, ("pong", dict(body or {})))
        elif kind == "chunk":
            chunk_id = body["chunk"]
            if stopping:
                # Draining for shutdown: the chunks in hand finish, new
                # ones are refused so the coordinator requeues them
                # elsewhere.
                refusal = {
                    "chunk": chunk_id,
                    "reason": "node draining for shutdown",
                    # Tells the coordinator this is a graceful refusal,
                    # not a chunk failure: requeue for free and stop
                    # feeding this connection.
                    "draining": True,
                }
                _send(conns, stream, ("lost", refusal))
                return
            try:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_node_pool_init,
                        initargs=(os.getpid(),),
                    )
                future = pool.submit(execute_specs, body["specs"])
            except Exception as exc:
                lost = {
                    "chunk": chunk_id,
                    "reason": f"node pool unavailable: {exc}",
                }
                _send(conns, stream, ("lost", lost))
                return
            jobs[future] = (stream, chunk_id, pool)
            future.add_done_callback(lambda _future: _nudge(waker))
        else:
            detail = f"unknown message kind {kind!r}"
            if kind == "hello":
                detail = (
                    "protocol version mismatch: node speaks "
                    f"{PROTOCOL_VERSION}, coordinator sent "
                    f"{body.get('version')!r}"
                )
            _send(conns, stream, ("error", {"detail": detail}))
            conns.discard(stream)
            stream.close()

    if threading.current_thread() is threading.main_thread():
        # A signal handler is only installable from the main thread.
        try:
            previous_term = signal.signal(signal.SIGTERM, on_term)
            term_installed = True
        except (ValueError, OSError):
            pass
    try:
        listener.bind((host, port))
        listener.listen()
        listener.setblocking(False)
        bound_host, bound_port = listener.getsockname()[:2]
        print(f"{READY_PREFIX}{bound_host}:{bound_port}", flush=True)
        drain_by = None  # monotonic deadline, once draining
        while True:
            if stopping and drain_by is None:
                # New connections are refused.  The pool's workers were
                # forked holding copies of the listener's descriptor,
                # so closing ours alone would leave the port accepting
                # into a backlog nobody reads: shut the socket down.
                try:
                    listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # a platform that cannot shut a listener down
                listener.close()
                drain_by = time.monotonic() + DEFAULT_DRAIN_TIMEOUT
            if drain_by is not None and (
                not jobs or time.monotonic() >= drain_by
            ):
                break
            waiting = [wake, *conns]
            if drain_by is None:
                waiting.append(listener)
            ready = _wait_readable(waiting, 0.2)
            if wake in ready:
                wake.recv(1 << 12)  # the finished chunks are found below
            for future in [future for future in jobs if future.done()]:
                stream, chunk_id, ran_on = jobs.pop(future)
                reply = _chunk_reply(chunk_id, future)
                if reply[0] == "lost" and ran_on is pool:
                    # The next chunk builds a fresh pool.  Only the
                    # current pool is dropped: a late failure from an
                    # older one must not shut down its replacement.
                    pool = None
                    ran_on.shutdown(wait=False, cancel_futures=True)
                _send(conns, stream, reply)
            if listener in ready:
                try:
                    conn, _addr = listener.accept()
                except (BlockingIOError, ConnectionError):
                    pass  # the peer gave up before it was accepted
                except OSError:
                    stopping = True  # a broken listener stops the node
                else:
                    conns.add(
                        MessageStream(conn, send_timeout=NODE_SEND_TIMEOUT)
                    )
            for stream in ready:
                try:
                    while stream in conns and (
                        message := stream.recv(timeout=0)
                    ) is not None:
                        answer(stream, message)
                except (ConnectionError, ProtocolError, OSError):
                    conns.discard(stream)  # hung up or broke: close it alone
                    stream.close()
                except Exception:
                    # A malformed message: reported, and this connection
                    # alone is closed.
                    traceback.print_exc()
                    conns.discard(stream)
                    stream.close()
    except KeyboardInterrupt:
        pass  # Ctrl-C stops at once, without the drain
    finally:
        listener.close()
        for stream in conns:
            stream.close()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        wake.close()
        waker.close()
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
    """A ``repro worker serve`` subprocess on this machine.

    Construction waits up to ``spawn_timeout`` seconds for the node to
    announce its address on ``proc.stdout``.  A node that exits, closes
    its stdout or never announces (an import hang, a wedged
    interpreter, a wrong entry point) cannot hang the spawner: it is
    reaped, its pipe closed, and a ``RuntimeError`` carries its output.
    """

    def __init__(
        self,
        proc: subprocess.Popen,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
    ) -> None:
        self.proc = proc
        self.host: str | None = None
        self.port: int | None = None
        #: Most recent output lines, for post-mortem diagnostics; the
        #: drain thread keeps the pipe from ever filling (a full 64KB
        #: pipe would block a chatty node mid-write and hang its run).
        self.output_tail: deque[str] = deque(maxlen=50)
        self._announced = threading.Event()  # READY line or EOF
        self._drainer = threading.Thread(
            target=self._drain, daemon=True, name=f"repro-drain-{proc.pid}"
        )
        self._drainer.start()
        deadline = time.monotonic() + spawn_timeout
        self._announced.wait(spawn_timeout)
        if self.port is not None:
            return
        if not self._announced.is_set():
            problem = (
                f"produced no {READY_PREFIX.strip()!r} line within "
                f"{spawn_timeout}s; killed it; output so far:\n"
            )
        else:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                problem = (
                    "exited before announcing its address (exit code "
                    f"{proc.returncode}); output:\n"
                )
            except subprocess.TimeoutExpired:
                problem = (
                    "closed stdout without announcing its address and "
                    f"stayed alive past the {spawn_timeout}s spawn "
                    "deadline; killed it; output so far:\n"
                )
        proc.kill()
        proc.wait()
        # EOF comes with the exit, unless a child of the node holds the
        # pipe too; the drainer then closes it when that child exits.
        self._drainer.join(timeout=5)
        raise RuntimeError(
            "worker node " + problem + "".join(self.output_tail)
        )

    def _drain(self) -> None:
        """The pipe's only reader: take the address off the READY line,
        keep every other line, close the pipe at EOF."""
        try:
            for line in self.proc.stdout:
                if self.port is None and line.startswith(READY_PREFIX):
                    host, _, port = (
                        line[len(READY_PREFIX) :].strip().rpartition(":")
                    )
                    self.host, self.port = host, int(port)
                    self._announced.set()
                else:
                    self.output_tail.append(line)
        finally:
            self.proc.stdout.close()
            self._announced.set()

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

        The bound caps — not honours — a node's drain
        (``DEFAULT_DRAIN_TIMEOUT``); a supervisor that grants the node
        its own grace period (systemd, Kubernetes) lets a drain run in
        full.
        """
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

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
            nodes.append(LocalNode(proc, spawn_timeout))
    except BaseException:
        _terminate_nodes(nodes)
        raise
    return nodes


# --------------------------------------------------------------------------
# Coordinator
# --------------------------------------------------------------------------


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


def _unbilled_send(nodes: Sequence[_Node], send, *args) -> None:
    """Call ``send(*args)``, then move the start of every node's
    silence clock on by the time it took: the loop was not listening
    meanwhile.  The clocks move, never reset, so a wedged node stays
    charged for the silence it kept while the loop listened."""
    started = time.monotonic()
    try:
        send(*args)
    finally:
        spent = time.monotonic() - started
        for node in nodes:
            node.quiet_since += spent


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
        # Its share of the batch in hand, reset by begin_batch.
        self.inflight: dict[int, _Task] = {}  # shipped, by offset
        self.draining = False  # refused a chunk: ship it nothing more
        self.quiet_since = 0.0  # start of the silence it is charged for
        self.last_ping = 0.0
        self.seen_bytes = 0  # stream.bytes_received when last looked

    def begin_batch(self, now: float) -> None:
        self.inflight = {}
        self.draining = False
        self.quiet_since = self.last_ping = now
        self.seen_bytes = self.stream.bytes_received

    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def connect(self, timeout: float) -> None:
        sock = socket.create_connection(self.address, timeout=timeout)
        # Sends stay bounded for the stream's whole life: a peer that
        # stops reading (wedged node, full buffer) times the send out,
        # which the coordinator treats as a lost node.  Every read —
        # the handshake here, the batch loop's polls afterwards —
        # carries its own explicit timeout, so the coordinator never
        # blocks forever on a wedged node.
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
        them from its loop, which never runs a trial, so long chunks
        never trip it.
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
        pending = deque(
            _Task(start, chunk)
            for start, chunk in split_chunks(
                specs, pick_chunksize(len(specs), width, self.chunksize)
            )
        )
        results: list = [None] * len(specs)
        unplaced = len(pending)
        now = time.monotonic()
        for node in nodes:
            node.begin_batch(now)
        try:
            while unplaced:
                self._supervise(nodes, pending)
                self._feed(nodes, pending)
                live = [node for node in nodes if node.alive]
                if not live:
                    described = "; ".join(t.describe() for t in pending)
                    raise TrialExecutionError(
                        ("<cluster>",),
                        f"all cluster nodes lost with {len(pending)} "
                        f"chunk(s) unfinished: {described}",
                    )
                ready = _wait_readable([n.stream for n in live], 0.05)
                for node in live:
                    if node.stream in ready:
                        unplaced -= self._collect(node, pending, results)
        except BaseException:
            # A failed batch or Ctrl-C fails fast and drops every
            # connection: the chunks still in flight would otherwise
            # answer into the next batch.
            self._discard_nodes()
            raise
        return results

    def _feed(self, nodes: list[_Node], pending: deque) -> None:
        """Ship each live node chunks up to its announced width."""
        for node in nodes:
            while pending and node.alive and not node.draining:
                if len(node.inflight) >= node.workers:
                    break
                task = pending.popleft()
                # In flight before the send: a transport fault requeues
                # it with the node's other chunks.
                node.inflight[task.start] = task
                try:
                    _unbilled_send(nodes, self._ship_task, node, task)
                except OSError as exc:
                    self._drop(node, exc, pending)
                except Exception as exc:
                    # Not a transport fault: the chunk itself is the
                    # problem (e.g. a spec that does not pickle).  A
                    # requeue would poison every node in turn, so fail
                    # fast naming the chunk.
                    raise TrialExecutionError(
                        ("<cluster>",),
                        f"chunk at {task.describe()} could not be "
                        f"shipped: {type(exc).__name__}: {exc}",
                    ) from exc

    def _collect(self, node: _Node, pending: deque, results: list) -> int:
        """Handle every reply ``node`` has sent; returns the number of
        chunks placed in ``results``.

        A broken connection or a reply that breaks the protocol (a
        :class:`ProtocolError`, or a malformed body raising
        ``KeyError``, ``TypeError``, ...) means the node is gone or not
        to be trusted: it is dropped and its chunks requeue.  A
        ``failed`` reply fails the run.
        """
        placed = 0
        try:
            while (message := node.stream.recv(timeout=0)) is not None:
                kind, body = message
                if kind == "pong":
                    continue
                if kind == "failed":
                    key, detail = tuple(body["key"]), body["detail"]
                    raise TrialExecutionError(key, detail)
                task = node.inflight.get(body.get("chunk"))
                if task is None:
                    raise ProtocolError(
                        f"unexpected reply kind {kind!r} from "
                        f"{node.label()} (no such chunk in flight)"
                    )
                if kind == "done":
                    done = _checked_results(node, task, body.get("results"))
                    del node.inflight[task.start]
                    results[task.start : task.start + len(done)] = done
                    placed += 1
                elif kind == "lost":
                    del node.inflight[task.start]
                    if body.get("draining"):
                        # A graceful drain refusal is not a chunk
                        # failure: hand the chunk back without charging
                        # a retry and ship this node nothing more, or a
                        # node mid-shutdown would bounce chunks back in
                        # milliseconds, burn the retry budget and fail
                        # a batch its healthy peers could finish.  The
                        # chunks in its hand still complete and reply.
                        node.draining = True
                        pending.append(task)
                    else:
                        reason = body.get("reason", "node abandoned the chunk")
                        self._requeue(task, pending, reason)
                else:
                    raise ProtocolError(
                        f"unexpected reply kind {kind!r} from "
                        f"{node.label()}"
                    )
        except TrialExecutionError:
            raise
        except Exception as exc:
            self._drop(node, exc, pending)
        if node.draining and not node.inflight:
            # Nothing left in hand on a node that refuses new work:
            # retire the connection, so the next batch routes the
            # address through the heal/backoff path instead of shipping
            # chunks to a corpse.  This runs before the batch can end,
            # so the node whose last chunk completes it is retired too.
            node.close()
        return placed

    def _supervise(self, nodes: list[_Node], pending: deque) -> None:
        """Drop each live node silent past the heartbeat deadline, and
        ping the others every third of it.

        Bytes that arrived count as life even when no message completed
        yet: a reply frame larger than deadline × bandwidth is mid
        transfer, not wedged.
        """
        if not self.heartbeat:
            return
        now = time.monotonic()
        for node in nodes:
            if not node.alive:
                continue
            if node.stream.bytes_received != node.seen_bytes:
                node.seen_bytes = node.stream.bytes_received
                node.quiet_since = now
            elif now - node.quiet_since > self.heartbeat:
                lost = TimeoutError(
                    f"node {node.label()} sent nothing for "
                    f"{now - node.quiet_since:.1f}s (heartbeat deadline "
                    f"{self.heartbeat}s); presumed wedged"
                )
                self._drop(node, lost, pending)
                continue
            if now - node.last_ping >= self.heartbeat / 3.0:
                node.last_ping = now
                try:
                    _unbilled_send(
                        nodes, node.stream.send, ("ping", {"at": now})
                    )
                except OSError as exc:
                    self._drop(node, exc, pending)

    def _drop(self, node: _Node, cause: Exception, pending: deque) -> None:
        """Close a failed node, then requeue its chunks under the cap."""
        node.close()
        lost, node.inflight = node.inflight, {}
        for task in lost.values():
            self._requeue(task, pending, f"{type(cause).__name__}: {cause}")

    def _requeue(self, task: _Task, pending: deque, cause) -> None:
        """Give a lost chunk another node; raise once its retries run out."""
        if task.attempts >= self.retries:
            raise TrialExecutionError(
                ("<cluster>",),
                f"chunk at {task.describe()} lost after "
                f"{task.attempts + 1} node failure(s) "
                f"(retry cap {self.retries}): {cause}",
            )
        task.attempts += 1
        pending.append(task)

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
