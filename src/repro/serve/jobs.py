"""Job state machine and single-flight submission for the service.

A **job** is one experiment run — ``(experiment, scale, seed,
overrides)`` — moving through a four-state machine::

    queued ──> running ──> done
                  └──────> failed

Submissions validate eagerly (unknown experiment, bad scale/seed,
overrides the definition does not accept → :class:`JobRequestError`
before a job exists), then coalesce: an in-flight job with the same
:func:`~repro.serve.digest.job_key` absorbs the duplicate submission
and both callers watch the same computation (**single-flight** — two
identical concurrent POSTs cost one run).  A *finished* key does not
coalesce: resubmitting a completed job creates a fresh job, which then
reads the finished table from the result cache — that path is the
"repeated query is O(lookup)" product behaviour, and its counters
(``trials_executed == 0``) are how tests assert it.

A job that finishes files its table in the result cache under its job
key, as a :class:`FiledTable` with the job's point and trial counts,
before it is marked done.  A later job with that key reads this one
entry instead of calling the definition: no spec emission, no point
digests or reads, no summary, and its snapshot reports every point
cached and no trial executed, as the cold run's counts say.  An entry
that is missing, damaged or not a well-formed record is a miss: the
job runs the definition, which reads its sweep points from the cache
as before, and files the table again.  A failed job files nothing.

Jobs execute on a single worker thread over one persistent backend
runner (pool/cluster connections stay warm across jobs), each wrapped
in a per-job :class:`~repro.serve.cached_runner.CachedRunner` so the
per-point counters are the job's own.  Clients streaming a job's
progress hold no lock on it: disconnecting a watcher never touches
the computation, which completes and populates the cache regardless.

A ``job_ttl`` (seconds) bounds the ledger: a *finished* job older than
the TTL is reaped — dropped from the job table — on the next
submission or query, so a long-lived service does not grow its job
dict forever.  Reaping forgets only the bookkeeping entry: the filed
table and the sweep points live on in the result cache, so
resubmitting a reaped job is the cheap cached path.  A reaped job id
answers 404, exactly like an id that never existed; ``job_ttl=None``
(the default) keeps every job for the life of the process.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.experiments.registry import get_experiment
from repro.experiments.results import ResultTable
from repro.experiments.spec import SCALES
from repro.runtime.runner import TrialRunner
from repro.serve.cache import ResultCache
from repro.serve.cached_runner import CachedRunner
from repro.serve.digest import code_version, job_key

__all__ = ["FiledTable", "Job", "JobManager", "JobRequestError"]

#: Terminal job states.
FINISHED = ("done", "failed")


class JobRequestError(ValueError):
    """A submission that can be rejected before a job exists (HTTP 400)."""


def accepted_overrides(spec) -> tuple[str, ...]:
    """The override names a definition accepts: its keyword-only
    parameters beyond the ``(scale, seed, runner)`` contract."""
    try:
        parameters = inspect.signature(spec.run).parameters
    except (TypeError, ValueError):  # pragma: no cover - defensive
        return ()
    return tuple(
        name
        for name, parameter in parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        and name not in ("scale", "seed", "runner")
    )


@dataclass(frozen=True)
class FiledTable:
    """A finished job's table, as the result cache keeps it under the
    job key, with the point and trial counts the job reported."""

    table: ResultTable
    points_total: int
    trials_total: int

    def counters(self) -> dict:
        """The progress counters of a job answered from this entry."""
        return {
            "points_total": self.points_total,
            "points_cached": self.points_total,
            "trials_total": self.trials_total,
            "trials_executed": 0,
        }


def _is_filed(entry) -> bool:
    """Whether ``entry`` is a well-formed :class:`FiledTable`: a value
    that passed its checksum but has another shape (a point's value
    list, a bare table, a count that is not an integer) must be
    recomputed, not served."""
    return (
        type(entry) is FiledTable
        and isinstance(entry.table, ResultTable)
        and type(entry.points_total) is int
        and type(entry.trials_total) is int
    )


@dataclass
class Job:
    """One experiment run owned by the service."""

    job_id: str
    key: str
    experiment: str
    scale: str
    seed: int
    overrides: dict
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    table: ResultTable | None = None
    progress: dict = field(default_factory=dict)
    #: Submissions absorbed by this in-flight job (single-flight).
    coalesced: int = 0

    def snapshot(self) -> dict:
        """A JSON-safe view of the job for status responses."""
        counters = dict(self.progress)
        executed = counters.get("trials_executed")
        snap = {
            "job_id": self.job_id,
            "key": self.key,
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "overrides": self.overrides,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "coalesced": self.coalesced,
            "cached": self.state == "done" and executed == 0,
            "rows": None if self.table is None else len(self.table),
            **counters,
        }
        if self.started_at is not None:
            end = self.finished_at or time.time()
            snap["elapsed_seconds"] = round(end - self.started_at, 6)
        return snap


class JobManager:
    """Validates, coalesces, schedules and tracks jobs."""

    def __init__(
        self,
        runner: TrialRunner,
        cache: ResultCache,
        job_ttl: float | None = None,
        clock=time.time,
    ) -> None:
        if job_ttl is not None and job_ttl <= 0:
            raise ValueError(f"job_ttl must be positive, got {job_ttl!r}")
        self.runner = runner
        self.cache = cache
        self.job_ttl = job_ttl
        self._clock = clock
        self.version = code_version()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}  # job key -> queued/running job
        self._ids = itertools.count(1)
        # One worker thread: the backend runner (a process pool or a
        # cluster connection set) is not safe for concurrent batches,
        # so jobs serialise here and parallelise inside the runner.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-job"
        )
        self._closed = False

    # -- submission -------------------------------------------------------

    def _validate(self, experiment, scale, seed, overrides):
        if not isinstance(experiment, str) or not experiment.strip():
            raise JobRequestError("experiment must be a non-empty string")
        try:
            spec = get_experiment(experiment)
        except KeyError as exc:
            raise JobRequestError(str(exc.args[0])) from None
        if scale not in SCALES:
            raise JobRequestError(
                f"unknown scale {scale!r}; expected one of {SCALES}"
            )
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise JobRequestError(f"seed must be an integer, got {seed!r}")
        if overrides is None:
            overrides = {}
        if not isinstance(overrides, dict) or any(
            not isinstance(k, str) for k in overrides
        ):
            raise JobRequestError(
                "overrides must be an object with string keys"
            )
        accepted = accepted_overrides(spec)
        unknown = sorted(set(overrides) - set(accepted))
        if unknown:
            raise JobRequestError(
                f"experiment {spec.experiment_id} does not accept "
                f"override(s) {unknown}; accepted: "
                f"{sorted(accepted) or 'none'}"
            )
        return spec, overrides

    def submit(
        self,
        experiment: str,
        scale: str = "small",
        seed: int = 0,
        overrides: dict | None = None,
    ) -> tuple[Job, bool]:
        """Validate and enqueue a job; returns ``(job, created)``.

        ``created=False`` means the submission coalesced onto an
        in-flight job with the same key (single-flight).
        """
        spec, overrides = self._validate(experiment, scale, seed, overrides)
        try:
            key = job_key(
                spec.experiment_id,
                scale,
                seed,
                overrides,
                version=self.version,
            )
        except (TypeError, ValueError) as exc:
            raise JobRequestError(
                f"overrides are not JSON-serialisable: {exc}"
            ) from None
        with self._lock:
            if self._closed:
                raise JobRequestError("service is shutting down")
            self._reap_locked()
            inflight = self._inflight.get(key)
            if inflight is not None and inflight.state not in FINISHED:
                inflight.coalesced += 1
                return inflight, False
            job = Job(
                job_id=f"j{next(self._ids):04d}-{key[:8]}",
                key=key,
                experiment=spec.experiment_id,
                scale=scale,
                seed=seed,
                overrides=dict(overrides),
            )
            self._jobs[job.job_id] = job
            self._inflight[key] = job
            self._executor.submit(self._execute, job, spec)
        return job, True

    # -- execution --------------------------------------------------------

    def _execute(self, job: Job, spec) -> None:
        with self._lock:
            if job.state != "queued":  # pragma: no cover - defensive
                return
            job.state = "running"
            job.started_at = time.time()
        filed = self.cache.get(job.key, accept=_is_filed)
        if filed is not None:
            self._finish(job, "done", filed.counters(), table=filed.table)
            return

        def _on_progress(counters: dict) -> None:
            with self._lock:
                job.progress.update(counters)

        cached_runner = CachedRunner(
            self.runner,
            self.cache,
            version=self.version,
            on_progress=_on_progress,
        )
        try:
            table = spec(
                scale=job.scale,
                seed=job.seed,
                runner=cached_runner,
                **job.overrides,
            )
        except BaseException as exc:
            self._finish(
                job,
                "failed",
                cached_runner.counters(),
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        counters = cached_runner.counters()
        # Filed before the job reads done, so a client that sees it
        # done and resubmits reads this entry.
        self.cache.put(
            job.key,
            FiledTable(
                table, counters["points_total"], counters["trials_total"]
            ),
        )
        self._finish(job, "done", counters, table=table)

    def _finish(
        self,
        job: Job,
        state: str,
        counters: dict,
        table: ResultTable | None = None,
        error: str | None = None,
    ) -> None:
        with self._lock:
            job.progress.update(counters)
            job.table = table
            job.error = error
            job.state = state
            job.finished_at = time.time()
            self._inflight.pop(job.key, None)

    # -- reaping ----------------------------------------------------------

    def _reap_locked(self) -> None:
        """Drop finished jobs past the TTL (caller holds the lock).

        Only terminal states age out — a queued or running job is
        always reachable, however old its submission.
        """
        if self.job_ttl is None:
            return
        cutoff = self._clock() - self.job_ttl
        stale = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in FINISHED
            and job.finished_at is not None
            and job.finished_at < cutoff
        ]
        for job_id in stale:
            del self._jobs[job_id]

    # -- queries ----------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            self._reap_locked()
            return self._jobs.get(job_id)

    def snapshot(self, job_id: str) -> dict | None:
        with self._lock:
            self._reap_locked()
            job = self._jobs.get(job_id)
            return None if job is None else job.snapshot()

    def jobs(self) -> list[dict]:
        with self._lock:
            self._reap_locked()
            return [job.snapshot() for job in self._jobs.values()]

    def counts(self) -> dict:
        with self._lock:
            self._reap_locked()
            states = [job.state for job in self._jobs.values()]
        return {
            "total": len(states),
            "queued": states.count("queued"),
            "running": states.count("running"),
            "done": states.count("done"),
            "failed": states.count("failed"),
        }

    def close(self) -> None:
        """Finish the job in hand, reject new ones, release the runner."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.runner.close()
