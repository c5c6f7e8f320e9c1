"""Backend-conformance kit: kernels and node helpers for runner tests.

The conformance suite (``tests/runtime/test_backend_conformance.py``)
runs one set of behavioural tests against **every** registered backend
— in-process, forked pool, spawned pool, TCP cluster node.  Its work
units must therefore be importable *by reference* in any process,
including a ``repro worker serve`` node that never saw the test file:
that is why the kernels live here, inside the installed package,
rather than in the test modules themselves.  A future backend's tests
should build their batches from this kit too.

Nothing here is imported by the runtime proper.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager

from repro.runtime.trial import TrialSpec
from repro.runtime.workload import Workload
from repro.util.rng import uniform_for

__all__ = [
    "boom",
    "exit_hard",
    "exit_once_then",
    "kill_node",
    "kill_node_once",
    "local_nodes",
    "make_workload",
    "process_id",
    "seeded_specs",
    "seeded_uniform",
    "shared_uniform",
    "sleep_return",
    "square",
    "square_specs",
    "unpicklable_value",
    "wedge_node_once",
    "workload_specs",
]


# -- kernels (module-level so they pickle by reference) --------------------


def square(x):
    return x * x


def seeded_uniform(seed, label):
    """A value that only the seed contract can make deterministic."""
    return uniform_for(seed, label)


def shared_uniform(payload, label, trial, seed):
    """Workload kernel: shared ``(payload, label)`` + per-trial tail."""
    return (len(payload), label, trial, uniform_for(seed, (label, trial)))


def boom(x):
    raise ValueError(f"boom {x}")


def exit_hard(code=3):  # pragma: no cover - kills its own process
    """Die without raising: simulates a crashed/killed worker node."""
    os._exit(code)


def exit_once_then(value, latch_path):
    """Die the first time any process runs this; return ``value`` after.

    The latch file makes the fault one-shot across a whole cluster:
    the first node to execute the spec creates the latch and dies
    mid-batch, and the retried chunk — on whatever node — finds the
    latch and completes normally.  Trials stay pure *given the latch
    state*, which is exactly what the requeue test needs.
    """
    try:
        with open(latch_path, "x"):
            pass
    except FileExistsError:
        return value
    os._exit(3)  # pragma: no cover - kills its own process


def sleep_return(seconds, value):
    """Block for ``seconds`` then return ``value``.

    Models a blocking (I/O-bound) trial: a flat node serialises a
    batch of these, a node-side pool overlaps them — which is what the
    node-pool concurrency tests and benchmark measure, independent of
    how many cores the host has.
    """
    time.sleep(seconds)
    return value


def _owning_node_pid():
    """Pid of the `repro worker serve` process owning this pool worker."""
    from repro.runtime.cluster import node_process_pid

    pid = node_process_pid()
    return pid if pid is not None and pid > 1 else None


def kill_node():  # pragma: no cover - kills its own node
    """Kill the node process that owns this pool worker, then die.

    Simulates a crashed/OOM-killed *node* (as distinct from a crashed
    pool worker, which the node survives): the coordinator sees a dead
    socket mid-batch and must requeue the node's chunks.  Outside a
    node pool it just kills the executing process.
    """
    pid = _owning_node_pid()
    if pid is not None:
        os.kill(pid, signal.SIGKILL)
    os._exit(3)


def kill_node_once(value, latch_path):
    """Kill the owning node the first time any process runs this;
    return ``value`` after.  The latch file makes the fault one-shot
    across a whole cluster, exactly like :func:`exit_once_then`."""
    try:
        with open(latch_path, "x"):
            pass
    except FileExistsError:
        return value
    kill_node()  # pragma: no cover - kills its own node


def wedge_node_once(value, latch_path):
    """Wedge the owning node (socket left open) once; return ``value``
    after.

    SIGSTOPs the node process — the hung-node shape a dead-socket
    trigger can never catch: the TCP connection stays healthy while
    the node goes silent.  Only heartbeat supervision detects it.  The
    latch makes the wedge one-shot cluster-wide, so the retried chunk
    completes on a survivor and the run's output must still be
    byte-identical to ``SerialRunner``'s.
    """
    try:
        with open(latch_path, "x"):
            pass
    except FileExistsError:
        return value
    pid = _owning_node_pid()  # pragma: no cover - wedges its own node
    if pid is not None and hasattr(signal, "SIGSTOP"):
        os.kill(pid, signal.SIGSTOP)
    os._exit(0)  # pragma: no cover - the stopped node never reaps this


def process_id(*_args):
    """Report the executing process — proves where a trial really ran."""
    return os.getpid()


def unpicklable_value(*_args):
    """Return a value no runner can ship back with plain pickle."""
    return lambda: None


# -- batch builders --------------------------------------------------------


def square_specs(count, tag="sq"):
    return [
        TrialSpec(key=(tag, i), fn=square, args=(i,)) for i in range(count)
    ]


def seeded_specs(count, label="x"):
    return [
        TrialSpec(key=("u", label, i), fn=seeded_uniform, args=(i, label))
        for i in range(count)
    ]


def make_workload(label, size=2048):
    """A content-addressed workload with a list payload of ``size``."""
    return Workload(fn=shared_uniform, args=(list(range(size)), label))


def workload_specs(workload, count, tag="w"):
    return [
        TrialSpec(key=(tag, t), args=(t, t * 31), workload=workload)
        for t in range(count)
    ]


# -- cluster node helpers --------------------------------------------------


@contextmanager
def local_nodes(count=2, node_workers=None):
    """Spawn localhost ``repro worker serve`` nodes; yield addresses.

    Yields ``["host:port", ...]`` ready for ``ClusterRunner(nodes=...)``
    or ``$REPRO_CLUSTER_NODES``; the node processes are terminated on
    exit however the block ends.  ``node_workers`` pins each node's
    execution-pool size (None: the node's own env/default resolution
    decides).
    """
    from repro.runtime.cluster import spawn_local_nodes

    nodes = spawn_local_nodes(count, node_workers=node_workers)
    try:
        yield [node.address for node in nodes]
    finally:
        for node in nodes:
            node.terminate()
