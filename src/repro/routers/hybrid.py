"""Hybrid greedy router — the remark after Theorem 3(ii), implemented.

The paper: *"A natural approach would be to use greedy routing ...
While this strategy may work most of the way, in the final steps a more
extensive search is required.  It may be the case though that a greedy
approach at the early stages of the routing would reduce the exponent
in the complexity of the algorithm."*

:class:`HybridGreedyRouter` does exactly that: strictly-monotone greedy
descent (with backtracking) while the current vertex is farther than
``switch_distance`` from the target, then an unrestricted local BFS
from everything reached so far for the final approach.  Complete —
if greedy strands itself, the BFS phase inherits the whole reached
cluster and finishes the job exhaustively.
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.probe import ProbeOracle
from repro.core.router import Router
from repro.graphs.base import Vertex
from repro.routers.orders import target_orders

__all__ = ["HybridGreedyRouter"]


class HybridGreedyRouter(Router):
    """Greedy descent far from the target, best-first search near it."""

    is_local = True
    is_complete = True

    def __init__(self, switch_distance: int = 2) -> None:
        if switch_distance < 0:
            raise ValueError(
                f"switch distance must be >= 0, got {switch_distance}"
            )
        self.switch_distance = switch_distance
        self.name = f"hybrid-greedy(switch={switch_distance})"

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        graph = oracle.graph
        orders = target_orders(graph, target)
        distance, descending = orders.distance, orders.descending
        # Phase 1: greedy monotone DFS while far from the target.
        parent: dict[Vertex, Vertex | None] = {source: None}
        path = [source]
        stack = [iter(descending(graph, source))]
        while stack:
            x = path[-1]
            if distance(graph, x) <= self.switch_distance:
                break  # close enough; switch to exhaustive search
            advanced = False
            for y in stack[-1]:
                if y in parent:
                    continue
                if not oracle.probe(x, y):
                    continue
                parent[y] = x
                path.append(y)
                if y == target:
                    return path
                stack.append(iter(descending(graph, y)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                path.pop()
        # Phase 2: goal-directed best-first search over open edges,
        # seeded with everything phase 1 reached (greedy may have
        # stranded; the whole reached set participates).  Complete: every
        # edge off the reached cluster eventually enters the heap.
        counter = itertools.count()
        heap: list[tuple[int, int, Vertex, Vertex]] = []

        def push_candidates(x: Vertex) -> None:
            for y in graph.neighbors(x):
                if y not in parent:
                    heapq.heappush(
                        heap, (distance(graph, y), next(counter), x, y)
                    )

        for x in list(parent):
            push_candidates(x)
        while heap:
            _, _, x, y = heapq.heappop(heap)
            if y in parent:
                continue
            if not oracle.probe(x, y):
                continue
            parent[y] = x
            if y == target:
                return self._backtrack(parent, y)
            push_candidates(y)
        return None

    @staticmethod
    def _backtrack(parent: dict, v: Vertex) -> list[Vertex]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return path
