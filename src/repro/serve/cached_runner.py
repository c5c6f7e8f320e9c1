"""A runner wrapper that serves sweep points from the result cache.

Every registered experiment executes its trials through
:meth:`~repro.runtime.runner.TrialRunner.run_grouped` — one labelled
group per sweep point — so wrapping the runner is all it takes to give
the *whole registry* point-level caching without touching a single
definition.  :class:`CachedRunner` digests each group
(:func:`repro.serve.digest.point_digest`), answers the hits from the
:class:`~repro.serve.cache.ResultCache`, runs only the missing groups
through the inner runner (as **one** flat batch, so the delta still
parallelises across points), stores their values, and stitches the
result dict back in submission order.  A sweep that shares points with
a cached sweep therefore computes only the delta — the overlap comes
from cache byte-identically.

Plain :meth:`run` is one anonymous group through :meth:`run_grouped`,
so direct ``runner.run(...)`` callers get whole-batch memoisation from
the same lookup, store and counters.

The cache stores *values* only; ``TrialResult`` wrappers are rebuilt
from the specs in hand, and a batch whose values do not pickle is
executed normally and simply not cached (the cache declines, the run
succeeds).  Counters (``points_total``, ``points_cached``,
``trials_total``, ``trials_executed``) feed the service's progress
reports and the test instrumentation asserting "zero trials executed"
on a repeat job.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from repro.runtime.runner import TrialRunner
from repro.runtime.trial import TrialResult, TrialSpec
from repro.serve.cache import ResultCache
from repro.serve.digest import code_version, point_digest

__all__ = ["CachedRunner"]

_MISS = object()


class CachedRunner(TrialRunner):
    """Serve cached sweep points; delegate the delta to ``inner``.

    ``on_progress`` (optional) is called with a dict snapshot of the
    counters whenever they advance — the service wires it to the job's
    progress stream.  The wrapper does not own ``inner`` unless
    ``own_inner=True``; a service shares one persistent backend runner
    across many per-job wrappers.
    """

    def __init__(
        self,
        inner: TrialRunner,
        cache: ResultCache,
        *,
        version: str | None = None,
        on_progress: Callable[[dict], None] | None = None,
        own_inner: bool = False,
    ) -> None:
        self.inner = inner
        self.cache = cache
        self.version = version if version is not None else code_version()
        self.on_progress = on_progress
        self.own_inner = own_inner
        self.workers = inner.workers
        self.reset_counters()

    # -- instrumentation --------------------------------------------------

    def reset_counters(self) -> None:
        self.points_total = 0
        self.points_cached = 0
        self.trials_total = 0
        self.trials_executed = 0

    def counters(self) -> dict:
        return {
            "points_total": self.points_total,
            "points_cached": self.points_cached,
            "trials_total": self.trials_total,
            "trials_executed": self.trials_executed,
        }

    def _progress(self) -> None:
        if self.on_progress is not None:
            self.on_progress(self.counters())

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self.own_inner:
            self.inner.close()

    # -- execution --------------------------------------------------------

    def _lookup(self, specs: list[TrialSpec]):
        """The cached values for one point, or ``_MISS``.

        A digest failure (an argument that does not pickle) or an
        entry that is not one value per spec (a stale entry written by
        a buggier past) both mean "execute normally"; the cache counts
        the rejected entry as a miss.
        """
        try:
            digest = point_digest(specs, version=self.version)
        except Exception:
            return None, _MISS
        values = self.cache.get(
            digest,
            accept=lambda stored: (
                type(stored) is list and len(stored) == len(specs)
            ),
        )
        if values is None:
            return digest, _MISS
        return digest, values

    def run(self, specs: Iterable[TrialSpec]) -> list[TrialResult]:
        specs = list(specs)
        values = self.run_grouped([(None, specs)])[None]
        return [
            TrialResult(key=spec.key, value=value)
            for spec, value in zip(specs, values)
        ]

    def run_grouped(
        self, groups: Iterable[tuple[Any, Iterable[TrialSpec]]]
    ) -> dict[Any, list[Any]]:
        plan: list[tuple[Any, list[TrialSpec], str | None, Any]] = []
        for label, specs in groups:
            specs = list(specs)
            digest, values = self._lookup(specs)
            plan.append((label, specs, digest, values))
        labels = [label for label, _, _, _ in plan]
        if len(set(labels)) != len(labels):
            raise ValueError("group labels must be unique")
        self.points_total += len(plan)
        self.points_cached += sum(
            1 for _, _, _, values in plan if values is not _MISS
        )
        self.trials_total += sum(len(specs) for _, specs, _, _ in plan)
        self._progress()
        misses = [
            (label, specs)
            for label, specs, _, values in plan
            if values is _MISS
        ]
        # The delta executes as ONE flat batch on the inner runner, so
        # missing points still interleave across every worker instead
        # of parallelism stopping at the point boundary.
        executed = self.inner.run_grouped(misses) if misses else {}
        self.trials_executed += sum(len(specs) for _, specs in misses)
        out: dict[Any, list[Any]] = {}
        for label, specs, digest, values in plan:
            if values is _MISS:
                group_values = executed[label]
                if digest is not None:
                    self.cache.put(digest, list(group_values))
                out[label] = group_values
            else:
                out[label] = list(values)
        self._progress()
        return out

    def __repr__(self) -> str:
        return (
            f"CachedRunner({self.inner!r}, cache={self.cache!r}, "
            f"cached={self.points_cached}/{self.points_total} points)"
        )
