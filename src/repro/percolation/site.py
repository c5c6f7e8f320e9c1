"""Site (vertex) percolation.

The paper studies *edge* failures, but its related work is largely
about *node* failures (Håstad–Leighton–Newman's faulty-hypercube
computation, Cole–Maggs–Sitaraman's butterfly emulation assume failing
processors).  :class:`SitePercolation` models that: each vertex is up
independently with probability ``p``; an edge is traversable iff both
endpoints are up.

It plugs into the same :class:`~repro.percolation.models.PercolationModel`
interface, so every router, the probe oracles and the complexity
harness work unchanged — extension experiment E13 uses this to check
that the hypercube's routing phase transition persists under node
faults.

Convention: the routing endpoints are typically *conditioned up* (a
query between dead hosts is meaningless); pass them as ``pinned`` to
exempt them from failure.

Its chunk draw is a :class:`~repro.kernels.percolation.LazySiteDraw`
over the model's own pinned vertices: the chunk kernel flips the same
``"site"`` coins, only as its frontiers demand them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.graphs.base import Graph, Vertex
from repro.percolation.models import PercolationModel
from repro.util.rng import uniform_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.topology import EdgeIndex

__all__ = ["SitePercolation"]


class SitePercolation(PercolationModel):
    """Vertex percolation: edge open iff both endpoints are up.

    >>> from repro.graphs.hypercube import Hypercube
    >>> model = SitePercolation(Hypercube(4), p=1.0, seed=0)
    >>> model.is_open(0, 1)
    True
    """

    def __init__(
        self,
        graph: Graph,
        p: float,
        seed: int,
        pinned: Iterable[Vertex] = (),
    ) -> None:
        super().__init__(graph, p)
        self.seed = seed
        self._pinned = frozenset(pinned)
        for v in self._pinned:
            graph._require_vertex(v)

    def is_up(self, v: Vertex) -> bool:
        """Return whether vertex ``v`` survived."""
        if v in self._pinned:
            return True
        return uniform_for(self.seed, "site", v) < self.p

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return self.is_up(u) and self.is_up(v)

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        if not self.is_up(v):
            return []
        return [w for w in self.graph.neighbors(v) if self.is_up(w)]

    def chunk_draw(self, index: EdgeIndex, seeds: Sequence[int]):
        from repro.kernels.percolation import LazySiteDraw

        pinned = [index.code[v] for v in self._pinned]
        return LazySiteDraw(index, self.p, seeds, pinned)
