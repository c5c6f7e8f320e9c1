"""Best-first (A*-flavoured) local router.

A third member of the "natural local algorithms" suite: instead of
BFS's indiscriminate flood or DFS's commit-and-backtrack, expand the
frontier edge whose far endpoint looks closest to the target under the
non-faulty metric.  This is the strongest *generic* local heuristic one
would deploy in practice, so its failure to beat the Theorem 3(i)/7
lower bounds is the most convincing empirical evidence that the bounds
bite all reasonable algorithms, not just naive ones.

Complete: every edge adjacent to the reached cluster eventually gets
probed if the search runs dry.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.probe import ProbeOracle
from repro.core.router import Router
from repro.graphs.base import Vertex
from repro.routers.orders import target_orders

__all__ = ["BestFirstRouter"]


class BestFirstRouter(Router):
    """Greedy best-first search over probed-open edges (local, complete).

    The priority of a candidate probe ``(x, y)`` is
    ``d(y, target)`` under the graph's analytic metric, with ties broken
    by insertion order (deterministic).
    """

    name = "best-first"
    is_local = True
    is_complete = True

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        graph = oracle.graph
        distance = target_orders(graph, target).distance
        counter = itertools.count()  # FIFO tie-break, deterministic
        parent: dict[Vertex, Vertex | None] = {source: None}
        heap: list[tuple[int, int, Vertex, Vertex]] = []

        def push_candidates(x: Vertex) -> None:
            for y in graph.neighbors(x):
                if y not in parent:
                    heapq.heappush(
                        heap, (distance(graph, y), next(counter), x, y)
                    )

        push_candidates(source)
        while heap:
            _, _, x, y = heapq.heappop(heap)
            if y in parent:
                continue  # reached via a better edge meanwhile
            if not oracle.probe(x, y):
                continue
            parent[y] = x
            if y == target:
                path = [y]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            push_candidates(y)
        return None
