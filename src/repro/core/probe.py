"""The probe model: query-counted access to a percolated graph.

The paper's complexity measure (Definition 2) counts the number of
*distinct edges probed* by a routing algorithm.  A :class:`ProbeOracle`
wraps a percolation model and is the **only** way routers may learn edge
states; it memoises answers (re-examining known information is free, as
in the paper, which does not charge for computation) and counts each
edge once.

:class:`LocalProbeOracle` additionally enforces Definition 1: the first
probe must touch the source, and every probe must touch a vertex to
which an open path from the source has already been established.  The
framework — not router discipline — guarantees locality: an illegal
probe raises :class:`LocalityViolation`.

A consequence of the locality rule is that the established ("reached")
set grows one endpoint at a time: an open probed edge always touches the
reached set at probe time, so no detached open clusters can form and
enforcement is O(1) per probe.
"""

from __future__ import annotations

from repro.graphs.base import Edge, Graph, Vertex
from repro.percolation.models import PercolationModel

__all__ = [
    "LocalProbeOracle",
    "LocalityViolation",
    "ProbeBudgetExceeded",
    "ProbeOracle",
]


class ProbeBudgetExceeded(Exception):
    """Raised when a new probe would exceed the oracle's query budget."""

    def __init__(self, budget: int) -> None:
        super().__init__(f"probe budget of {budget} queries exhausted")
        self.budget = budget


class LocalityViolation(Exception):
    """Raised when a local router probes an edge it has not reached."""


class ProbeOracle:
    """Query-counted, memoised access to edge states (oracle model).

    Any edge of the graph may be probed in any order — this is the
    paper's *oracle routing* model (Section 5).

    >>> from repro.graphs.hypercube import Hypercube
    >>> from repro.percolation.models import HashPercolation
    >>> oracle = ProbeOracle(HashPercolation(Hypercube(4), 1.0, seed=0))
    >>> oracle.probe(0, 1)
    True
    >>> oracle.queries
    1
    >>> _ = oracle.probe(1, 0)   # re-probe is free
    >>> oracle.queries
    1
    """

    is_local = False

    def __init__(
        self, model: PercolationModel, budget: int | None = None
    ) -> None:
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        self.model = model
        self.budget = budget
        self._results: dict[Edge, bool] = {}

    @property
    def graph(self) -> Graph:
        """The underlying (non-faulty) topology."""
        return self.model.graph

    @property
    def queries(self) -> int:
        """Number of distinct edges probed so far."""
        return len(self._results)

    def probe(self, u: Vertex, v: Vertex) -> bool:
        """Probe the edge ``{u, v}``; return whether it is open.

        Counts one query the first time this edge is probed; repeats are
        free.  A new probe is checked in a fixed order: locality (the
        local subclass's :class:`LocalityViolation`), then the budget
        (:class:`ProbeBudgetExceeded`), then the edge itself — one
        :meth:`~repro.percolation.models.PercolationModel.edge_state`
        call answers it, and a non-edge raises :class:`ValueError`.
        """
        key = self.graph.edge_key(u, v)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        self._check_allowed(u, v)
        if self.budget is not None and len(self._results) >= self.budget:
            raise ProbeBudgetExceeded(self.budget)
        result = self.model.edge_state(u, v)
        if result is None:
            raise ValueError(f"{u!r}-{v!r} is not an edge of {self.graph.name}")
        self._results[key] = result
        self._note_result(u, v, result)
        return result

    def known_state(self, u: Vertex, v: Vertex) -> bool | None:
        """Return the memoised state of an edge, or ``None`` if unprobed.

        Free: does not count a query.
        """
        return self._results.get(self.graph.edge_key(u, v))

    def probed_edges(self) -> dict[Edge, bool]:
        """Return a copy of all probed edges and their states."""
        return dict(self._results)

    # -- hooks for the local subclass ------------------------------------------

    def _check_allowed(self, u: Vertex, v: Vertex) -> None:
        """Subclass hook: raise if this (new) probe is not permitted."""

    def _note_result(self, u: Vertex, v: Vertex, result: bool) -> None:
        """Subclass hook: observe the outcome of a counted probe."""


class LocalProbeOracle(ProbeOracle):
    """Probe oracle that enforces the paper's locality rule.

    A probe is legal iff one endpoint is *reached* — connected to the
    source by a path of probed open edges.  The source starts reached.

    >>> from repro.graphs.explicit import path_graph
    >>> from repro.percolation.models import HashPercolation
    >>> oracle = LocalProbeOracle(
    ...     HashPercolation(path_graph(3), 1.0, seed=0), source=0)
    >>> oracle.probe(0, 1)
    True
    >>> oracle.probe(2, 3)
    Traceback (most recent call last):
        ...
    repro.core.probe.LocalityViolation: probe 2-3 touches no reached vertex
    """

    is_local = True

    def __init__(
        self,
        model: PercolationModel,
        source: Vertex,
        budget: int | None = None,
    ) -> None:
        super().__init__(model, budget)
        model.graph._require_vertex(source)
        self.source = source
        self._reached: set[Vertex] = {source}

    @property
    def reached(self) -> frozenset[Vertex]:
        """Vertices with an established open path from the source."""
        return frozenset(self._reached)

    def is_reached(self, v: Vertex) -> bool:
        """Return whether ``v`` has an established path from the source."""
        return v in self._reached

    def _check_allowed(self, u: Vertex, v: Vertex) -> None:
        if u not in self._reached and v not in self._reached:
            raise LocalityViolation(
                f"probe {u!r}-{v!r} touches no reached vertex"
            )

    def _note_result(self, u: Vertex, v: Vertex, result: bool) -> None:
        if result:
            # At least one endpoint was reached (checked above), so the
            # open edge extends the established cluster by the other.
            self._reached.add(u)
            self._reached.add(v)
