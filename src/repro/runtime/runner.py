"""Trial runners: serial reference implementation and a process pool.

Both runners satisfy the same contract: ``run(specs)`` returns one
:class:`TrialResult` per spec, in submission order, raising
:class:`TrialExecutionError` if any trial fails.  The process pool
schedules *chunks* of consecutive specs onto workers to amortise IPC,
then reassembles results by chunk offset — so completion order never
leaks into the output (see the package docstring for the full
determinism contract).

The pool is **persistent**: it spins up on the first batch that needs
parallelism and is reused by every later ``run``/``run_grouped`` call
on the same runner, so consecutive batches stop paying process
start-up.  Shared payloads (:mod:`repro.runtime.workload`) ship to each
worker at most once — via the pool initializer for workloads known when
the pool spawns, and via a first-touch miss/resubmit round-trip for
workloads that appear later.  Call :meth:`ProcessPoolRunner.close` (or
use the runner as a context manager) to reap the workers; an unclosed
pool is torn down when the runner is garbage-collected or the
interpreter exits.

Experiments whose sweeps consist of many independent measurements use
:meth:`TrialRunner.run_grouped` to flatten all their per-trial specs
into **one** batch: a single sweep point's trials then interleave with
every other point's across the pool, instead of parallelism stopping at
the point boundary.

Runner *construction* lives in :mod:`repro.runtime.backends` (the
backend registry behind ``make_runner``); this module provides the
in-process runners plus the chunking/payload helpers every batch
scheduler shares — :func:`pick_chunksize`, :func:`split_chunks`,
:func:`batch_payloads` and :func:`resolve_miss_payload` are also what
the socket executor in :mod:`repro.runtime.cluster` builds on.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.runtime.chunkexec import execute_specs
from repro.runtime.trial import TrialExecutionError, TrialResult, TrialSpec
from repro.runtime.workload import (
    Workload,
    WorkloadMissError,
    WorkloadRef,
    install_workloads,
    resolve_workload,
)
from repro.settings import resolve

__all__ = [
    "ProcessPoolRunner",
    "SerialRunner",
    "TrialRunner",
    "batch_payloads",
    "pick_chunksize",
    "resolve_miss_payload",
    "split_chunks",
]

#: Target number of chunks handed to each worker (load-balance factor).
_CHUNKS_PER_WORKER = 4


def pick_chunksize(
    total: int, workers: int, chunksize: int | None = None
) -> int:
    """The specs-per-chunk for a batch: explicit size, else balance the
    batch into about four chunks per worker.
    """
    if chunksize is not None:
        return chunksize
    return max(1, -(-total // (workers * _CHUNKS_PER_WORKER)))


def split_chunks(
    specs: Sequence, size: int
) -> list[tuple[int, list]]:
    """Split a batch into ``(start_offset, chunk)`` pairs of ``size``.

    The offsets are what let any scheduler reassemble results in
    submission order however chunks complete.

    >>> split_chunks(["a", "b", "c"], 2)
    [(0, ['a', 'b']), (2, ['c'])]
    """
    if size < 1:
        raise ValueError(f"chunksize must be >= 1, got {size}")
    return [
        (start, list(specs[start : start + size]))
        for start in range(0, len(specs), size)
    ]


def batch_payloads(specs: Sequence[TrialSpec]) -> dict[str, Workload]:
    """The workload table of a batch: every payload, by content id."""
    return {
        spec.workload.workload_id: spec.workload
        for spec in specs
        if isinstance(spec.workload, Workload)
    }


def resolve_miss_payload(
    workload_id: str,
    batch: Mapping[str, Workload],
    scheduler: str = "<pool>",
) -> Workload:
    """Find the payload for a worker-reported miss, scheduler-side.

    The batch table covers every directly-referenced workload; the
    constructed-workload registry covers specs nested inside other
    specs.  Failing both means the emitter dropped the workload
    while its specs were still running — an ownership-contract bug,
    reported as such (keyed by ``scheduler`` so the error names the
    runner that actually hit it).
    """
    workload = batch.get(workload_id)
    if workload is not None:
        return workload
    try:
        return resolve_workload(workload_id)
    except WorkloadMissError:
        raise TrialExecutionError(
            (scheduler,),
            f"worker requested workload {workload_id} but no live "
            "Workload with that id exists in the parent; the "
            "emitting code must keep workloads alive while their "
            "specs run (see repro.runtime.workload)",
        ) from None


class TrialRunner(ABC):
    """Executes :class:`TrialSpec` batches; results in submission order."""

    #: Number of worker processes this runner schedules onto.
    workers: int = 1

    @abstractmethod
    def run(self, specs: Iterable[TrialSpec]) -> list[TrialResult]:
        """Execute every spec; return results in submission order."""

    def close(self) -> None:
        """Release any resources held by the runner (default: none)."""

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_values(self, specs: Iterable[TrialSpec]) -> list[Any]:
        """Like :meth:`run` but unwraps each result's ``value``."""
        return [result.value for result in self.run(specs)]

    def run_grouped(
        self, groups: Iterable[tuple[Any, Iterable[TrialSpec]]]
    ) -> dict[Any, list[Any]]:
        """Execute labelled spec groups as one flat batch; re-group values.

        ``groups`` is an iterable of ``(label, specs)`` pairs — e.g. one
        group of per-trial specs per sweep point.  All specs run in a
        single :meth:`run` batch (so chunking spreads *within* a group
        across workers, not just across groups), and the values come
        back as ``{label: [value, ...]}`` with each group's values in
        its own submission order.  Labels must be hashable and unique.
        """
        labels: list[Any] = []
        bounds: list[tuple[int, int]] = []
        flat: list[TrialSpec] = []
        for label, specs in groups:
            batch = list(specs)
            labels.append(label)
            bounds.append((len(flat), len(flat) + len(batch)))
            flat.extend(batch)
        if len(set(labels)) != len(labels):
            raise ValueError("group labels must be unique")
        values = self.run_values(flat)
        return {
            label: values[start:stop]
            for label, (start, stop) in zip(labels, bounds)
        }


class SerialRunner(TrialRunner):
    """Run trials in the calling process (chunk kernels apply).

    "Serial" means one process and submission order — not one trial at
    a time: consecutive specs sharing a kernel-capable workload execute
    through :func:`repro.runtime.chunkexec.execute_specs` as vectorized
    chunks, exactly as they would on a pool worker.  Results are
    bit-identical either way.
    """

    workers = 1

    def run(self, specs: Iterable[TrialSpec]) -> list[TrialResult]:
        return execute_specs(specs)

    def __repr__(self) -> str:
        return "SerialRunner()"


def _execute_chunk(
    chunk: Sequence[TrialSpec],
    payloads: Mapping[str, Workload] | None = None,
) -> list[TrialResult]:
    """Worker entry point: execute one chunk of consecutive specs.

    ``payloads`` carries workloads this worker reported missing (the
    first-touch resubmission); they are cached for the rest of the
    worker's life.  A chunk whose workload ids are still unresolved
    raises :class:`WorkloadMissError` *before* executing anything, so a
    resubmitted chunk always recomputes from scratch — trials are pure,
    making the retry invisible in the results.

    This is the one executable shape of a chunk everywhere: the
    process pool submits it directly, and a cluster node's execution
    pool (:mod:`repro.runtime.cluster`) submits the same function to
    its own workers, answering their misses out of the node-wide
    payload cache before falling back to the coordinator.

    Execution itself goes through the batch-kernel seam
    (:func:`repro.runtime.chunkexec.execute_specs`): runs of
    consecutive specs sharing a kernel-capable workload execute as one
    vectorized chunk, everything else per trial — so every backend
    (serial, process pool, cluster nodes) gets the kernels from this
    single wiring point.
    """
    if payloads:
        install_workloads(payloads)
    missing = set()
    for spec in chunk:
        if isinstance(spec.workload, WorkloadRef):
            try:
                resolve_workload(spec.workload.workload_id)
            except WorkloadMissError:
                missing.add(spec.workload.workload_id)
    if missing:
        raise WorkloadMissError(tuple(sorted(missing)))
    return execute_specs(chunk)


class ProcessPoolRunner(TrialRunner):
    """Run trials on a persistent pool of worker processes.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``$REPRO_WORKERS`` if set, else
        ``os.cpu_count()``.
    chunksize:
        Specs per work unit; defaults to ``$REPRO_CHUNKSIZE`` if set,
        else splits the batch into about 4 chunks per worker, a
        standard balance between scheduling slack (small chunks) and
        IPC overhead (large chunks).
    mp_context:
        A :mod:`multiprocessing` context, e.g. for forcing ``spawn``
        in tests; platform default when ``None``.

    Both knobs resolve through :func:`repro.settings.resolve`, so an
    invalid environment value (``REPRO_CHUNKSIZE=0``, say) is rejected
    here exactly as it is in ``make_runner`` — never silently ignored.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunksize: int | None = None,
        mp_context=None,
    ) -> None:
        self.workers = resolve(
            "workers", workers, default=os.cpu_count() or 1
        )
        self.chunksize = resolve("chunksize", chunksize)
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        # The worker initializer's payload table.  The dict *instance*
        # is fixed for the pool's lifetime (it is what initargs
        # references); run() fills it for the duration of a batch and
        # empties it afterwards, so a worker spawning mid-batch starts
        # with the batch's workloads cached, while the runner retains
        # no payload between batches (the emitter owns payload
        # lifetime, not the pool).
        self._init_payloads: dict[str, Workload] = {}

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the live pool, creating it on first parallel batch.

        Workers read ``_init_payloads`` as they spawn (fork snapshots
        it; spawn pickles it per worker), so the batch in hand pays no
        first-touch round-trips.  Workloads of *later* batches reach
        the already-running workers via first-touch instead.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self.mp_context,
                initializer=install_workloads,
                initargs=(self._init_payloads,),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down without waiting (error/interrupt path)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool down and reap its worker processes."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- scheduling -------------------------------------------------------

    def _pick_chunksize(self, total: int) -> int:
        return pick_chunksize(total, self.workers, self.chunksize)

    def run(self, specs: Iterable[TrialSpec]) -> list[TrialResult]:
        specs = list(specs)
        if not specs:
            return []
        size = self._pick_chunksize(len(specs))
        chunks = split_chunks(specs, size)
        if self.workers == 1 or len(chunks) == 1:
            # A single worker, or a batch that folds into one chunk
            # (e.g. fewer trials than an explicit chunksize): there is
            # no parallelism to extract, so skip the pool entirely
            # rather than shipping the lone chunk to a worker.
            return execute_specs(specs)
        payloads = batch_payloads(specs)
        results: list[TrialResult | None] = [None] * len(specs)
        # Per chunk offset: ids already shipped with a resubmission.
        # Retries are cumulative — a retry carries every id its chunk
        # has ever reported missing — so the worker that executes it
        # (whichever one) installs them all, and a repeat report of a
        # shipped id is impossible.  Each miss therefore names at
        # least one *new* id (nested specs can reveal them in stages),
        # which bounds retries by the chunk's distinct workloads.
        shipped: dict[int, set[str]] = {}
        pending: dict = {}
        try:
            self._init_payloads.update(payloads)
            pool = self._ensure_pool()
            for start, chunk in chunks:
                pending[pool.submit(_execute_chunk, chunk)] = (start, chunk)
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    start, chunk = pending.pop(future)
                    try:
                        chunk_results = future.result()
                    except WorkloadMissError as miss:
                        already = shipped.setdefault(start, set())
                        if already and not (
                            set(miss.workload_ids) - already
                        ):
                            raise TrialExecutionError(
                                ("<pool>",),
                                "workload shipping did not converge "
                                f"for chunk at offset {start} (ids "
                                f"{miss.workload_ids} were already "
                                "shipped); this is a runtime bug",
                            ) from miss
                        already.update(miss.workload_ids)
                        # Ship only what this chunk is known to need —
                        # never the whole batch table, which would
                        # re-pickle every payload once per missing
                        # chunk on a warm pool.
                        needed = {
                            workload_id: resolve_miss_payload(
                                workload_id, payloads
                            )
                            for workload_id in sorted(already)
                        }
                        pending[
                            pool.submit(_execute_chunk, chunk, needed)
                        ] = (start, chunk)
                    else:
                        for offset, result in enumerate(chunk_results):
                            results[start + offset] = result
        except BrokenProcessPool as exc:
            self._discard_pool()
            raise TrialExecutionError(
                ("<pool>",),
                "a worker process died before finishing its chunk "
                "(crash or kill); re-run serially to isolate the trial",
            ) from exc
        except BaseException:
            # Fail fast — including on Ctrl-C: drop queued chunks (and
            # the pool, whose queue state is now suspect) instead of
            # finishing a long sweep before surfacing the error.
            self._discard_pool()
            raise
        finally:
            self._init_payloads.clear()
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "cold"
        return (
            f"ProcessPoolRunner(workers={self.workers}, "
            f"chunksize={self.chunksize}, pool={state})"
        )
