"""Structured fault models: node, correlated and adversarial failures.

The paper percolates every edge i.i.d.; its neighbouring literature
studies *structured* faults, and this module is the seam where those
models plug into the same :class:`~repro.percolation.models.
PercolationModel` interface — every router, probe oracle, the
complexity harness and every runtime backend work on them unchanged.

* :class:`NodeFaultPercolation` — a failed node removes **all** of its
  incident links at once (Safaei & ValadBeigi's router-failure model).
  Sample-for-sample it closes exactly the edges a
  :class:`~repro.percolation.site.SitePercolation` with the same seed
  would close — the two are independent implementations of the same
  coin stream, and the property suite in ``tests/percolation/``
  asserts the equivalence edge by edge.
* :class:`CorrelatedFaultPercolation` — clustered failures: seeded
  epicenters each kill a graph-metric ball whose radius is drawn
  geometrically, modelling the spatially correlated outages (shared
  power, shared conduit) that i.i.d. models miss.  At ``spread=0``
  every epicenter kills only itself, recovering i.i.d. node faults —
  the controlled baseline experiment E16 compares against.
* :class:`AdversarialCutPercolation` — non-benign faults (Lenzen et
  al.): a budget-``k`` adversary greedily removes the edges that hurt
  a given ``(source, target)`` probe most, targeting the small cut
  rather than spreading damage uniformly.

All three follow the library's determinism contract: every random
decision is a pure function of ``(seed, structured key)`` through the
keyed BLAKE2b streams of :mod:`repro.util.rng`, so a trial replays
bit-for-bit in any process and the background edge coins stay
monotone-coupled in ``p`` (the same ``"edge"`` stream as
:class:`~repro.percolation.models.HashPercolation`).

Each model has one draw implementation, its
:meth:`~repro.percolation.models.PercolationModel.chunk_draw`: the
chunk kernel draws a whole chunk of trials through it, and a model
built per trial is row 0 of its own one-seed draw.  Construction only
checks parameters; the row is drawn on the first query, over the
graph's :class:`~repro.kernels.topology.EdgeIndex` — so the graph must
be enumerable, the regime every structured-fault experiment runs in.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.base import Edge, Graph, Vertex
from repro.percolation.models import PercolationModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.topology import EdgeIndex

__all__ = [
    "AdversarialCutPercolation",
    "CorrelatedFaultPercolation",
    "NodeFaultPercolation",
]


class _DrawnRow(PercolationModel):
    """A per-trial model that is row 0 of its own one-seed chunk draw.

    Construction only checks parameters; the first query draws the
    row through :meth:`chunk_draw` — the one draw implementation the
    chunk kernel runs too — and serves it as a
    :class:`~repro.kernels.percolation.MaskEdgePercolation` row.
    """

    def __init__(self, graph: Graph, p: float, seed: int) -> None:
        super().__init__(graph, p)
        self.seed = seed

    @cached_property
    def _index(self) -> EdgeIndex:
        from repro.kernels.topology import edge_index_for

        index = edge_index_for(self.graph)
        if index is None:
            raise ValueError(
                f"{type(self).__name__} needs an enumerable graph, "
                f"got {self.graph.name}"
            )
        return index

    @cached_property
    def _draw(self):
        return self.chunk_draw(self._index, [self.seed])

    @cached_property
    def _row(self) -> PercolationModel:
        return self._draw.model(0)

    def _vertex_set(self, row: np.ndarray) -> frozenset:
        verts = self._index.verts
        return frozenset(verts[c] for c in np.flatnonzero(row).tolist())

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return self._row.is_open(u, v)

    def edge_state(self, u: Vertex, v: Vertex) -> bool | None:
        return self._row.edge_state(u, v)

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._row.open_neighbors(v)

    def num_open_edges(self) -> int:
        """Return the number of open edges."""
        return self._row.num_open_edges()

    def open_edges(self) -> set:
        """Return the set of open edge keys."""
        return self._row.open_edges()


class NodeFaultPercolation(_DrawnRow):
    """Router failures: a failed node kills all incident edges.

    Each vertex survives independently with probability ``p`` (pinned
    vertices always survive); an edge is open iff **both** endpoints
    survived.  The per-vertex coin is the same ``"site"`` stream
    :class:`~repro.percolation.site.SitePercolation` flips, so the two
    models agree sample for sample — this class adds the failure view
    (failed set, killed edge set) that node-fault experiments and the
    property suite need.  Its chunk draw is the site model's
    :class:`~repro.kernels.percolation.LazySiteDraw`, viewed as edges.

    >>> from repro.graphs.clos import FatTree
    >>> model = NodeFaultPercolation(FatTree(4), p=1.0, seed=0)
    >>> model.failed_nodes()
    frozenset()
    >>> model.num_open_edges()
    32
    """

    def __init__(
        self,
        graph: Graph,
        p: float,
        seed: int,
        pinned: Iterable[Vertex] = (),
    ) -> None:
        super().__init__(graph, p, seed)
        self._pinned = frozenset(pinned)
        for v in self._pinned:
            graph._require_vertex(v)

    def chunk_draw(self, index: EdgeIndex, seeds: Sequence[int]):
        from repro.kernels.percolation import LazySiteDraw

        pinned = [index.code[v] for v in self._pinned]
        return LazySiteDraw(index, self.p, seeds, pinned, node_view=True)

    @cached_property
    def _failed(self) -> frozenset:
        return self._vertex_set(~self._draw.up_masks()[0])

    def is_up(self, v: Vertex) -> bool:
        """Return whether vertex ``v`` survived."""
        return v not in self._failed

    def failed_nodes(self) -> frozenset:
        """Return the failed vertex set."""
        return self._failed

    def killed_edges(self) -> set:
        """Return exactly the edges incident to a failed node."""
        return set(self._index.edge_keys) - self.open_edges()


class CorrelatedFaultPercolation(_DrawnRow):
    """Clustered failures: epicenters kill graph-metric balls.

    Every vertex is an outage *epicenter* independently with
    probability ``epicenter_rate``; epicenter ``e`` kills the ball of
    radius ``r_e`` around itself, where ``r_e`` is geometric —
    ``Pr[r_e >= j] = spread**j`` — drawn from the per-epicenter
    ``"radius"`` stream.  Pinned vertices never die.  Surviving edges
    (both endpoints alive) are then open independently with probability
    ``p`` through the monotone-coupled ``"edge"`` coin stream.

    ``spread=0`` makes every ball a single vertex: i.i.d. node faults
    at rate ``epicenter_rate``.  Raising ``spread`` grows the *same*
    epicenters into clusters (coupled radii), so sweeps isolate the
    effect of correlation from the effect of epicenter density.  Its
    chunk draw is an :class:`~repro.kernels.percolation.OutageDraw`.

    >>> from repro.graphs.hypercube import Hypercube
    >>> m = CorrelatedFaultPercolation(
    ...     Hypercube(4), p=1.0, seed=3, epicenter_rate=0.0, spread=0.5
    ... )
    >>> m.dead_nodes()
    frozenset()
    """

    def __init__(
        self,
        graph: Graph,
        p: float,
        seed: int,
        epicenter_rate: float,
        spread: float,
        pinned: Iterable[Vertex] = (),
    ) -> None:
        super().__init__(graph, p, seed)
        if not 0.0 <= epicenter_rate <= 1.0:
            raise ValueError(
                f"epicenter_rate must be in [0,1], got {epicenter_rate!r}"
            )
        if not 0.0 <= spread < 1.0:
            raise ValueError(
                f"spread must be in [0,1) (1 would grow unbounded "
                f"clusters), got {spread!r}"
            )
        self.epicenter_rate = epicenter_rate
        self.spread = spread
        self._pinned = frozenset(pinned)
        for v in self._pinned:
            graph._require_vertex(v)

    def chunk_draw(self, index: EdgeIndex, seeds: Sequence[int]):
        from repro.kernels.percolation import OutageDraw

        return OutageDraw(
            index,
            self.p,
            seeds,
            self.epicenter_rate,
            self.spread,
            [index.code[v] for v in self._pinned],
        )

    @cached_property
    def _dead(self) -> frozenset:
        return self._vertex_set(self._draw.dead[0])

    def is_up(self, v: Vertex) -> bool:
        """Return whether vertex ``v`` survived every outage ball."""
        return v not in self._dead

    def epicenters(self) -> frozenset:
        """Return the outage epicenters (dead unless pinned)."""
        return self._vertex_set(self._draw.epicenters[0])

    def dead_nodes(self) -> frozenset:
        """Return the union of all outage balls (minus pinned)."""
        return self._dead


class AdversarialCutPercolation(_DrawnRow):
    """Budget-``k`` adversarial edge removal targeting a probe pair.

    The adversary knows the topology and the ``(source, target)``
    probe, but not the random coins.  It spends its budget greedily:
    at each step it computes the current shortest surviving
    ``source → target`` path and removes the path edge whose removal
    lengthens the remaining shortest path the most (one-step
    lookahead; disconnection beats every finite length; earliest path
    edge wins ties).  On a fat-tree this walks straight into the
    ``k/2``-edge uplink cut instead of wasting budget on the ``(k/2)²``
    redundant core paths.  After the removals, surviving edges are
    open i.i.d. with probability ``p`` through the monotone-coupled
    ``"edge"`` stream (``p=1.0`` isolates the pure adversary).

    Placement is deterministic given ``(graph, pair, budget)`` — the
    removal sequence for budget ``k`` is a prefix of the sequence for
    ``k+1``, so raising the budget only removes more.

    >>> from repro.graphs.clos import FatTree
    >>> m = AdversarialCutPercolation(FatTree(4), p=1.0, seed=0, budget=2)
    >>> len(m.removed_edges())
    2
    >>> from repro.percolation.cluster import connected
    >>> connected(m, *m.pair)  # k/2 = 2 removals sever the source cut
    False
    """

    def __init__(
        self,
        graph: Graph,
        p: float,
        seed: int,
        budget: int,
        pair: tuple[Vertex, Vertex] | None = None,
    ) -> None:
        super().__init__(graph, p, seed)
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget!r}")
        self.budget = budget
        self.pair = pair if pair is not None else graph.canonical_pair()
        for v in self.pair:
            graph._require_vertex(v)

    def chunk_draw(self, index: EdgeIndex, seeds: Sequence[int]):
        # The cut depends only on the graph, the pair and the budget:
        # one per model, ANDed into every row's edge coins.
        from repro.kernels.percolation import MaskDraw, edge_coin_masks

        alive = np.ones(index.num_edges, dtype=bool)
        alive[[index.eid[e] for e in self._removed]] = False
        masks = edge_coin_masks(index, self.p, seeds, alive)
        return MaskDraw(index, self.p, masks)

    @cached_property
    def _removed(self) -> tuple[Edge, ...]:
        # The greedy cut, on first use; no coin is involved.
        removed: set[Edge] = set()
        sequence: list[Edge] = []
        for _ in range(self.budget):
            path = self._shortest_avoiding(removed)
            if path is None or len(path) < 2:
                break  # severed (or a self-probe); further budget is moot
            best_edge, best_cost = None, -1
            for a, b in zip(path, path[1:]):
                edge = self.graph.edge_key(a, b)
                trial = self._shortest_avoiding(removed | {edge})
                cost = float("inf") if trial is None else len(trial)
                if cost > best_cost:
                    best_edge, best_cost = edge, cost
            removed.add(best_edge)
            sequence.append(best_edge)
        return tuple(sequence)

    def _shortest_avoiding(self, removed: set) -> list[Vertex] | None:
        """One shortest source→target path using no removed edge."""
        source, target = self.pair
        if source == target:
            return [source]
        graph = self.graph
        parent: dict[Vertex, Vertex] = {source: source}
        queue: deque[Vertex] = deque([source])
        while queue:
            x = queue.popleft()
            for y in graph.neighbors(x):
                if y in parent or graph.edge_key(x, y) in removed:
                    continue
                parent[y] = x
                if y == target:
                    return Graph._backtrack(parent, source, target)
                queue.append(y)
        return None

    def removed_edges(self) -> tuple[Edge, ...]:
        """Return the adversary's removals, in removal order."""
        return self._removed
