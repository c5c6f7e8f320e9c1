"""Target-directed neighbour orders, memoised per graph and target.

The directed routers (:class:`~repro.routers.dfs.DirectedDFSRouter`,
:class:`~repro.routers.dfs.GreedyRouter`,
:class:`~repro.routers.hybrid.HybridGreedyRouter`,
:class:`~repro.routers.bestfirst.BestFirstRouter`) rank a vertex's
neighbours by their metric distance to the target.  Those rankings
depend only on the graph and the target, never on the percolation, so
:func:`target_orders` keeps them across trials: each entry is computed
per vertex on first use, through ``graph.distance`` exactly as the
routers computed it per expansion, so every order is the one they
computed before.

Like the graph's :class:`~repro.kernels.topology.EdgeIndex`, the memo
is process-local state on the graph object: ``Graph.__getstate__``
leaves it out (graph pickles, workload ids and serve cache keys never
see it), it holds no reference back to its graph (callers pass the
graph in), and it keeps the :data:`MAX_TARGETS` most recently used
targets, so a demand matrix routing toward many targets cannot grow
it without bound.  Every entry is a pure function of the graph, the
target and the vertex, so two threads routing on one graph can at
worst compute an entry twice.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.graphs.base import TARGET_ORDERS_ATTR, Graph, Vertex

__all__ = ["MAX_TARGETS", "TargetOrders", "target_orders"]

#: Targets remembered per graph; the least recently used is dropped.
MAX_TARGETS = 64


class TargetOrders:
    """Per-vertex distances and neighbour orders toward one target."""

    __slots__ = ("target", "_distance", "_nearest_first", "_descending")

    def __init__(self, target: Vertex) -> None:
        self.target = target
        self._distance: dict[Vertex, int] = {}
        self._nearest_first: dict[Vertex, tuple] = {}
        self._descending: dict[Vertex, tuple] = {}

    def distance(self, graph: Graph, v: Vertex) -> int:
        """``graph.distance(v, target)``."""
        d = self._distance.get(v)
        if d is None:
            d = self._distance[v] = graph.distance(v, self.target)
        return d

    def nearest_first(self, graph: Graph, v: Vertex) -> tuple:
        """``v``'s neighbours by ``(distance to target, repr)``."""
        order = self._nearest_first.get(v)
        if order is None:
            distance = self.distance
            order = self._nearest_first[v] = tuple(
                sorted(
                    graph.neighbors(v),
                    key=lambda w: (distance(graph, w), repr(w)),
                )
            )
        return order

    def descending(self, graph: Graph, v: Vertex) -> tuple:
        """``v``'s neighbours strictly closer to the target, by ``repr``."""
        order = self._descending.get(v)
        if order is None:
            distance = self.distance
            here = distance(graph, v)
            order = self._descending[v] = tuple(
                sorted(
                    (
                        w
                        for w in graph.neighbors(v)
                        if distance(graph, w) < here
                    ),
                    key=repr,
                )
            )
        return order


def target_orders(graph: Graph, target: Vertex) -> TargetOrders:
    """Return ``graph``'s memo of orders toward ``target``.

    Made on first use and kept on the graph, most recently used last;
    one target more than :data:`MAX_TARGETS` drops the stalest.
    """
    memo = graph.__dict__.get(TARGET_ORDERS_ATTR)
    if memo is None:
        memo = graph.__dict__[TARGET_ORDERS_ATTR] = OrderedDict()
    orders = memo.pop(target, None)
    if orders is None:
        orders = TargetOrders(target)
    memo[target] = orders
    if len(memo) > MAX_TARGETS:
        memo.popitem(last=False)
    return orders
