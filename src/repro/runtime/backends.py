"""Runner backends: how :func:`make_runner` builds a :class:`TrialRunner`.

The backend is one of a closed set, named by an explicit ``backend=``
argument, else ``$REPRO_BACKEND``, else ``"auto"`` (the ``backend``
row of :mod:`repro.settings`):

``auto``
    The historical behaviour: resolve the worker count (argument, else
    ``$REPRO_WORKERS``, else 1) and return a zero-overhead
    :class:`~repro.runtime.runner.SerialRunner` for one worker or a
    :class:`~repro.runtime.runner.ProcessPoolRunner` otherwise.
``serial``
    Always the in-process reference runner, whatever the worker count
    says (knobs are still validated, then ignored).
``process``
    Always a process pool, even for ``workers=1`` — useful for pinning
    the pool path in tests and CI.
``cluster``
    The TCP socket executor (:mod:`repro.runtime.cluster`): trials run
    on ``repro worker serve`` node processes, local or remote, each
    executing chunks on its own process pool (``--node-workers``) and
    holding one chunk in flight per pool worker.  The heartbeat
    deadline resolves from ``$REPRO_HEARTBEAT`` at construction,
    exactly as the worker and chunk-size knobs resolve from theirs.

Backend contract
----------------

Every backend honours the runtime's determinism contract — results in
submission order, byte-identical to ``SerialRunner`` for the same
specs — plus the later-batch workload and error-propagation behaviour
of the others.  ``tests/runtime/test_backend_conformance.py`` runs one
suite over every backend but ``auto`` (which builds one of the
others), and every backend validates its knobs through
:func:`repro.settings.resolve`, so argument and environment values
are rejected uniformly.
"""

from __future__ import annotations

from repro.runtime.runner import ProcessPoolRunner, SerialRunner, TrialRunner
from repro.settings import BACKENDS, resolve

__all__ = [
    "available_backends",
    "make_runner",
]


def available_backends() -> tuple[str, ...]:
    """The backend names, ``auto`` first."""
    return BACKENDS


def make_runner(
    workers: int | None = None,
    chunksize: int | None = None,
    backend: str | None = None,
) -> TrialRunner:
    """Build a runner of one backend.

    ``workers`` and ``chunksize`` resolve as ever (argument, else
    ``$REPRO_WORKERS`` / ``$REPRO_CHUNKSIZE``, both validated);
    ``backend`` picks the runner (argument, else ``$REPRO_BACKEND``,
    else ``auto``).  The historical two-argument call is unchanged:
    ``make_runner(8)`` still means "an 8-worker process pool".
    """
    name = resolve("backend", backend)
    if name == "cluster":
        # Imported lazily so the common serial/process paths never pay
        # for the socket machinery.
        from repro.runtime.cluster import ClusterRunner

        return ClusterRunner(workers=workers, chunksize=chunksize)
    if name == "process":
        return ProcessPoolRunner(workers=workers, chunksize=chunksize)
    # The knobs must be *valid* even where a serial runner ignores
    # them: backend choice never launders a bad REPRO_WORKERS/CHUNKSIZE.
    count = resolve("workers", workers)
    size = resolve("chunksize", chunksize)
    if name == "serial" or count == 1:
        return SerialRunner()
    return ProcessPoolRunner(workers=count, chunksize=size)
