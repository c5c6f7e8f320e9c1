"""Pluggable runner backends: how a :class:`TrialRunner` is built.

``make_runner`` used to hard-code the serial/process split; this module
turns that decision into a **registry**.  A backend is a named factory

    factory(workers=None, chunksize=None) -> TrialRunner

registered via :func:`register_backend` and selected by name — an
explicit ``backend=`` argument, else ``$REPRO_BACKEND``, else
``"auto"`` (the ``backend`` row of :mod:`repro.settings`).  Four
backends ship in-tree:

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
    executing chunks on its own process pool (``--node-workers``).
    The coordinator-only knobs — chunks in flight per connection and
    the heartbeat deadline — resolve from ``$REPRO_PIPELINE_DEPTH``
    and ``$REPRO_HEARTBEAT`` at construction, exactly as the worker
    and chunk-size knobs resolve from theirs.

Backend contract
----------------

A factory must return a :class:`TrialRunner` honouring the runtime's
determinism contract — results in submission order, byte-identical to
``SerialRunner`` for the same specs — plus the later-batch workload
and error-propagation behaviour of the built-ins.  The contract is
*enforced*, not just documented:
``tests/runtime/test_backend_conformance.py`` parametrises one suite
over every registered backend (it reads this registry), and any new
backend must pass it before it lands.  Factories must also validate
their knobs through :func:`repro.settings.resolve` so argument and
environment values are rejected uniformly.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from repro.runtime.runner import ProcessPoolRunner, SerialRunner, TrialRunner
from repro.settings import resolve

__all__ = [
    "available_backends",
    "make_runner",
    "register_backend",
]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")

_REGISTRY: dict[str, Callable[..., TrialRunner]] = {}


def register_backend(
    name: str,
    factory: Callable[..., TrialRunner],
    *,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name`` (lowercase token).

    Registering makes the backend constructible through
    :func:`make_runner` and automatically subjects it to the
    conformance suite.  Re-registering an existing name raises unless
    ``replace=True``.
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"backend name must be a lowercase token, got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    if not callable(factory):
        raise TypeError(f"backend factory must be callable, got {factory!r}")
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (tests; built-ins can return)."""
    _REGISTRY.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_runner(
    workers: int | None = None,
    chunksize: int | None = None,
    backend: str | None = None,
) -> TrialRunner:
    """Build a runner from the registry.

    ``workers`` and ``chunksize`` resolve as ever (argument, else
    ``$REPRO_WORKERS`` / ``$REPRO_CHUNKSIZE``, both validated);
    ``backend`` picks the factory (argument, else ``$REPRO_BACKEND``,
    else ``auto``).  The historical two-argument call is unchanged:
    ``make_runner(8)`` still means "an 8-worker process pool".
    """
    factory = _REGISTRY[resolve("backend", backend)]
    return factory(workers=workers, chunksize=chunksize)


def _auto_factory(
    workers: int | None = None, chunksize: int | None = None
) -> TrialRunner:
    count = resolve("workers", workers)
    size = resolve("chunksize", chunksize)
    if count == 1:
        return SerialRunner()
    return ProcessPoolRunner(workers=count, chunksize=size)


def _serial_factory(
    workers: int | None = None, chunksize: int | None = None
) -> TrialRunner:
    # The knobs are irrelevant serially but must still be *valid*:
    # backend choice never launders a bad REPRO_WORKERS/CHUNKSIZE.
    resolve("workers", workers)
    resolve("chunksize", chunksize)
    return SerialRunner()


def _process_factory(
    workers: int | None = None, chunksize: int | None = None
) -> TrialRunner:
    return ProcessPoolRunner(workers=workers, chunksize=chunksize)


def _cluster_factory(
    workers: int | None = None, chunksize: int | None = None
) -> TrialRunner:
    # Imported lazily so the common serial/process paths never pay for
    # the socket machinery.
    from repro.runtime.cluster import ClusterRunner

    return ClusterRunner(workers=workers, chunksize=chunksize)


register_backend("auto", _auto_factory)
register_backend("serial", _serial_factory)
register_backend("process", _process_factory)
register_backend("cluster", _cluster_factory)
