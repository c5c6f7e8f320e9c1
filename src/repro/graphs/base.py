"""Abstract graph interface.

All topologies in the paper are *implicit* graphs: a vertex is a small
hashable value (an int, or a tuple of ints/strings) and adjacency is
computed, never stored.  This is essential — the ``n``-dimensional
hypercube at ``n = 20`` has ``n·2^{n-1} ≈ 10^7`` edges, and a routing
trial touches only a vanishing fraction of them.

Conventions
-----------

* Vertices within one graph are mutually comparable (``<``), which gives
  every edge a canonical key ``edge_key(u, v) = (min, max)``.  Percolation
  states are functions of that key, so both orientations of an edge agree.
* ``neighbors`` returns a sequence in a deterministic order; all routers
  rely on this for reproducibility.
* ``distance``/``shortest_path`` refer to the metric of the *non-faulty*
  graph.  Subclasses override them with closed forms where the paper uses
  them (hypercube geodesics for Theorem 3(ii), lattice geodesics for
  Theorem 4); the base class falls back to breadth-first search.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Hashable, Iterator, Sequence
from typing import Any

__all__ = ["Edge", "Graph", "Vertex"]

#: A vertex is any hashable, orderable value.
Vertex = Hashable
#: Canonical (sorted) endpoint pair.
Edge = tuple

#: Instance attribute holding the graph's compiled edge index
#: (:func:`repro.kernels.topology.edge_index_for`) — process-local
#: state, left out of pickles by :meth:`Graph.__getstate__`.
EDGE_INDEX_ATTR = "_edge_index"
#: Instance attribute holding the routers' per-target neighbour orders
#: (:func:`repro.routers.orders.target_orders`) — process-local too.
TARGET_ORDERS_ATTR = "_target_orders"
_PROCESS_LOCAL = (EDGE_INDEX_ATTR, TARGET_ORDERS_ATTR)


class Graph(ABC):
    """A finite undirected graph with computed adjacency.

    Subclasses must implement :meth:`neighbors`, :meth:`has_vertex`,
    :meth:`num_vertices` and :meth:`vertices`; everything else has a
    generic default.
    """

    #: Short human-readable identifier used in experiment tables.
    name: str = "graph"

    # -- required topology ------------------------------------------------

    @abstractmethod
    def neighbors(self, v: Vertex) -> Sequence[Vertex]:
        """Return the neighbours of ``v`` in deterministic order."""

    @abstractmethod
    def has_vertex(self, v: Any) -> bool:
        """Return whether ``v`` is a vertex of this graph."""

    @abstractmethod
    def num_vertices(self) -> int:
        """Return the number of vertices."""

    @abstractmethod
    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (deterministic order)."""

    # -- derived topology --------------------------------------------------

    def degree(self, v: Vertex) -> int:
        """Return the degree of ``v``."""
        return len(self.neighbors(v))

    def is_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether ``{u, v}`` is an edge."""
        return self.has_vertex(u) and v in self.neighbors(u)

    def edge_key(self, u: Vertex, v: Vertex) -> Edge:
        """Return the canonical key of the edge ``{u, v}``.

        Both orientations map to the same key, so percolation states and
        probe memoisation are orientation-independent.
        """
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, each exactly once, canonically keyed."""
        for v in self.vertices():
            for w in self.neighbors(v):
                key = self.edge_key(v, w)
                if key[0] == v:
                    yield key

    def num_edges(self) -> int:
        """Return the number of edges (default: handshake lemma)."""
        return sum(self.degree(v) for v in self.vertices()) // 2

    # -- metric -------------------------------------------------------------

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Return the graph distance between ``u`` and ``v``.

        The default runs a BFS; subclasses override with closed forms.
        Raises :class:`ValueError` if the vertices are disconnected or
        absent.
        """
        path = self.shortest_path(u, v)
        return len(path) - 1

    def shortest_path(self, u: Vertex, v: Vertex) -> list[Vertex]:
        """Return one shortest ``u → v`` path, inclusive of endpoints.

        The default runs a bidirectionless BFS over :meth:`neighbors`.
        Deterministic because neighbour order is.
        """
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            return [u]
        parent: dict[Vertex, Vertex] = {u: u}
        queue: deque[Vertex] = deque([u])
        while queue:
            x = queue.popleft()
            for y in self.neighbors(x):
                if y in parent:
                    continue
                parent[y] = x
                if y == v:
                    return self._backtrack(parent, u, v)
                queue.append(y)
        raise ValueError(f"{u!r} and {v!r} are not connected in {self.name}")

    @staticmethod
    def _backtrack(
        parent: dict[Vertex, Vertex], u: Vertex, v: Vertex
    ) -> list[Vertex]:
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    # -- experiment support ---------------------------------------------------

    def canonical_pair(self) -> tuple[Vertex, Vertex]:
        """Return the standard (source, target) pair for experiments.

        Subclasses pick the pair the paper routes between (antipodal
        hypercube corners, the two roots of the double tree, ...).  The
        default takes the two extreme vertices in iteration order.
        """
        it = iter(self.vertices())
        first = next(it)
        last = first
        for last in it:  # noqa: B007 — want the final element
            pass
        if first == last:
            raise ValueError("graph has a single vertex; no pair exists")
        return first, last

    def _require_vertex(self, v: Any) -> None:
        if not self.has_vertex(v):
            raise ValueError(f"{v!r} is not a vertex of {self.name}")

    def __getstate__(self) -> dict | None:
        # Pickle exactly what a graph without a compiled index or
        # router memo pickles (no state at all for an empty __dict__),
        # so workload ids and serve cache keys never depend on what
        # this process has run.
        state = {
            k: v
            for k, v in self.__dict__.items()
            if k not in _PROCESS_LOCAL
        }
        return state or None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
