"""Depth-first local routers.

Two members of the "natural local algorithms" suite used to exhibit the
lower bounds (a lower bound on *every* local algorithm cannot be tested
directly; we test a representative suite and the Lemma 5 certificate):

* :class:`DirectedDFSRouter` — depth-first search that always explores
  the neighbour closest to the target first (by the non-faulty metric).
  On the double tree this is exactly the strategy Theorem 7 defeats:
  dive through the first tree, climb the second while lucky, backtrack
  on a closed edge.  Complete, because a vertex-marked DFS eventually
  visits the whole open cluster.
* :class:`GreedyRouter` — only ever moves strictly closer to the target
  (with backtracking over the descent DAG).  This is the "natural
  approach" the paper's remark after Theorem 3(ii) discusses: it works
  most of the way but gets stuck near the target, so it is *incomplete*;
  the A1/E1 ablations quantify how often.
"""

from __future__ import annotations

from repro.core.probe import ProbeOracle
from repro.core.router import Router
from repro.graphs.base import Vertex
from repro.routers.orders import target_orders

__all__ = ["DirectedDFSRouter", "GreedyRouter"]


class DirectedDFSRouter(Router):
    """Target-directed depth-first search (local, complete)."""

    name = "directed-dfs"
    is_local = True
    is_complete = True

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        graph = oracle.graph
        # Neighbours by (metric distance to target, canonical repr).
        ordered = target_orders(graph, target).nearest_first
        visited = {source}
        path = [source]
        stack = [iter(ordered(graph, source))]
        while stack:
            advanced = False
            for y in stack[-1]:
                x = path[-1]
                if y in visited:
                    continue
                if not oracle.probe(x, y):
                    continue
                visited.add(y)
                path.append(y)
                if y == target:
                    return path
                stack.append(iter(ordered(graph, y)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                path.pop()
        return None


class GreedyRouter(Router):
    """Monotone greedy descent with backtracking (local, incomplete).

    Explores only edges that strictly decrease the metric distance to
    the target, depth-first.  Finds a path iff a *monotone* open path
    exists; fails (returns ``None``) otherwise.
    """

    name = "greedy"
    is_local = True
    is_complete = False

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        graph = oracle.graph
        descending = target_orders(graph, target).descending
        visited = {source}
        path = [source]
        stack = [iter(descending(graph, source))]
        while stack:
            advanced = False
            for y in stack[-1]:
                x = path[-1]
                if y in visited:
                    continue
                if not oracle.probe(x, y):
                    continue
                visited.add(y)
                path.append(y)
                if y == target:
                    return path
                stack.append(iter(descending(graph, y)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                path.pop()
        return None
