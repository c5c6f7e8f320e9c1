"""The routing-algorithm interface.

A :class:`Router` encapsulates one algorithm from the paper (or a
baseline).  Concrete routers implement :meth:`Router._route`, which sees
only a :class:`~repro.core.probe.ProbeOracle` — they cannot inspect edge
states any other way, so the query count is trustworthy by construction.

``Router.route`` wraps ``_route`` with the bookkeeping every experiment
needs: oracle construction (local or oracle-model according to the
router's declared locality), budget enforcement, loop erasure, and path
validation.  A router bug that emits a closed or disconnected path is an
:class:`~repro.core.result.InvalidPathError`, never a silently wrong
measurement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

from repro.core.probe import (
    LocalProbeOracle,
    ProbeBudgetExceeded,
    ProbeOracle,
)
from repro.core.result import (
    FailureReason,
    RoutingResult,
    erase_loops,
    validate_path,
)
from repro.graphs.base import Vertex
from repro.percolation.models import PercolationModel

__all__ = ["Router"]


class Router(ABC):
    """Base class for routing algorithms.

    Class attributes:

    ``is_local``
        Whether the algorithm obeys Definition 1.  Local routers get a
        :class:`LocalProbeOracle` (locality is *enforced*, not assumed).
    ``is_complete``
        Whether failure-without-budget certifies that no open path
        exists.  Complete routers can double as connectivity oracles
        (used by the conditioning ablation A1).
    """

    name: str = "router"
    is_local: ClassVar[bool] = True
    is_complete: ClassVar[bool] = False

    @abstractmethod
    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        """Find an open ``source → target`` path using only ``oracle``.

        Return the path as a vertex list (may contain transient loops —
        they are erased by the caller) or ``None`` to give up.
        """

    def route(
        self,
        model: PercolationModel,
        source: Vertex,
        target: Vertex,
        budget: int | None = None,
    ) -> RoutingResult:
        """Run the algorithm on one percolated graph; validate the outcome."""
        model.graph._require_vertex(source)
        model.graph._require_vertex(target)
        oracle = self.make_oracle(model, source, budget)
        try:
            path = self._route(oracle, source, target)
        except ProbeBudgetExceeded:
            return self._outcome(
                model, source, target, None, oracle.queries, censored=True
            )
        return self._outcome(model, source, target, path, oracle.queries)

    def _outcome(
        self,
        model: PercolationModel,
        source: Vertex,
        target: Vertex,
        path: list[Vertex] | None,
        queries: int,
        censored: bool = False,
    ) -> RoutingResult:
        """Classify one finished attempt; loop-erase and validate a path.

        ``path`` is ``None`` for a failed attempt; ``censored`` marks one
        stopped by the probe budget.  Routers that replay their probe
        sequence without an oracle (:mod:`repro.routers.gnp`) finish
        through here too, so both paths share one failure taxonomy and
        one path check.
        """
        if path is None:
            if censored:
                failure = FailureReason.BUDGET
            elif self.is_complete:
                failure = FailureReason.EXHAUSTED
            else:
                failure = FailureReason.GAVE_UP
            return RoutingResult(
                source=source,
                target=target,
                success=False,
                queries=queries,
                failure=failure,
                router=self.name,
            )
        path = erase_loops(path)
        validate_path(model.graph, model, path, source, target)
        return RoutingResult(
            source=source,
            target=target,
            success=True,
            queries=queries,
            path=path,
            router=self.name,
        )

    def make_oracle(
        self,
        model: PercolationModel,
        source: Vertex,
        budget: int | None = None,
    ) -> ProbeOracle:
        """Build the probe oracle matching this router's locality class."""
        if self.is_local:
            return LocalProbeOracle(model, source, budget=budget)
        return ProbeOracle(model, budget=budget)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
