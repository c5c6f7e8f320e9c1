"""The experiment service: ``repro serve`` and its result cache.

Phase 1 of the serving layer from the ROADMAP: turn the runtime into a
long-lived process that answers repeated and overlapping experiment
queries in O(lookup) instead of recomputing them.  Three pieces:

* **content-addressed result cache** (:mod:`repro.serve.cache`,
  :mod:`repro.serve.digest`) — finished trial values stored on disk
  under a BLAKE2b digest of everything that determines them: the
  workload content ids of the sweep point (graph, router, percolation
  factory, conditioning — the PR-3 addressing was built for this key),
  the trial plan (count, per-trial seeds, spec keys/args) and the code
  version.  Granularity is the **sweep point**: a sweep that shares
  points with a cached sweep computes only the delta and stitches the
  rest from cache.  A finished job's table is filed too, under its job
  key, so a repeated job is one read.
* **caching runner** (:mod:`repro.serve.cached_runner`) — a
  :class:`~repro.runtime.runner.TrialRunner` wrapper that intercepts
  ``run_grouped`` (one group per sweep point in every registered
  definition) and ``run``, so *any* experiment gains point-level
  caching without touching its definition, over *any* backend.
* **HTTP front-end** (:mod:`repro.serve.http`,
  :mod:`repro.serve.jobs`) — a stdlib-asyncio HTTP/1.1 server over a
  persistent :func:`~repro.runtime.backends.make_runner` backend:
  ``POST /jobs`` submits (experiment, scale, seed, overrides),
  ``GET /jobs/<id>`` streams progress as NDJSON,
  ``GET /jobs/<id>/table`` fetches the finished table byte-identical
  to ``repro run``, plus ``/healthz`` and ``/cache/stats``.
  Identical in-flight submissions coalesce to one computation
  (single-flight); a corrupted cache entry is recomputed and
  repaired, never fatal.

Everything runs on the standard library — no new runtime
dependencies.  ``repro serve --port --backend --cache-dir`` is the CLI
entry; :func:`repro.serve.testing.start_service` boots the same server
in-process for tests and benchmarks.  The cache directory, its caps and
the code version are rows of :mod:`repro.settings` (``$REPRO_CACHE_DIR``,
``$REPRO_CACHE_CAP``, ``$REPRO_CACHE_CAP_BYTES``,
``$REPRO_CODE_VERSION``).
"""

from repro.serve.cache import ResultCache
from repro.serve.cached_runner import CachedRunner
from repro.serve.digest import (
    code_version,
    job_key,
    point_digest,
    sweep_digest,
)
from repro.serve.http import ExperimentService
from repro.serve.jobs import Job, JobManager

__all__ = [
    "CachedRunner",
    "ExperimentService",
    "Job",
    "JobManager",
    "ResultCache",
    "code_version",
    "job_key",
    "point_digest",
    "sweep_digest",
]
