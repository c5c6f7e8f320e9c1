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
start-up.  A chunk travels as one pickle carrying its own workloads
(:mod:`repro.runtime.workload`), and a worker keeps one live copy per
recently used workload, so a graph's cached index serves its next
chunk too.
Call :meth:`ProcessPoolRunner.close` (or use the runner as a context
manager) to reap the workers; an unclosed pool is torn down when the
runner is garbage-collected or the interpreter exits.

Experiments whose sweeps consist of many independent measurements use
:meth:`TrialRunner.run_grouped` to flatten all their per-trial specs
into **one** batch: a single sweep point's trials then interleave with
every other point's across the pool, instead of parallelism stopping at
the point boundary.

Runner *construction* lives in :mod:`repro.runtime.backends`
(``make_runner`` over a closed set of backends); this module provides
the in-process runners plus the chunking helpers every batch scheduler
shares — :func:`pick_chunksize` and :func:`split_chunks` are also what
the socket executor in :mod:`repro.runtime.cluster` builds on.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.runtime.chunkexec import execute_specs
from repro.runtime.trial import TrialExecutionError, TrialResult, TrialSpec
from repro.settings import resolve

__all__ = [
    "ProcessPoolRunner",
    "SerialRunner",
    "TrialRunner",
    "pick_chunksize",
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

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the live pool, creating it on first parallel batch."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self.mp_context
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
        results: list[TrialResult | None] = [None] * len(specs)
        try:
            pool = self._ensure_pool()
            futures = {
                pool.submit(execute_specs, chunk): start
                for start, chunk in chunks
            }
            for future in as_completed(futures):
                start = futures[future]
                for offset, result in enumerate(future.result()):
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
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "cold"
        return (
            f"ProcessPoolRunner(workers={self.workers}, "
            f"chunksize={self.chunksize}, pool={state})"
        )
