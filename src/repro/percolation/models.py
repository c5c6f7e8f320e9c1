"""Edge-percolation models.

A :class:`PercolationModel` fixes, for one random experiment, the
open/closed state of every edge of a graph.  Three implementations cover
the paper's needs:

* :class:`HashPercolation` — *lazy*: the state of an edge is a pure hash
  of ``(seed, edge)``.  Nothing is materialised, so it scales to the
  implicit hypercube; and the coupling is monotone in ``p`` (raising the
  retention probability only opens edges).
* :class:`TablePercolation` — *materialised*: samples every edge of an
  (enumerable) graph with numpy on the first query and keeps an
  open-adjacency index.  Used when ground-truth connectivity must be
  computed for many vertices, where per-edge hashing would dominate.
* :class:`GnpPercolation` — the Erdős–Rényi graph ``G(n, p)`` sampled
  *sparsely*: only the open pairs are drawn, so cost is proportional to
  the number of open edges rather than to ``n²``.  This is the substrate
  of Theorems 10 and 11.

All models answer :meth:`~PercolationModel.is_open` for any vertex pair
of the graph; states are functions of the *canonical* edge key, so both
orientations agree.  A model with a batched counterpart returns it from
:meth:`~PercolationModel.chunk_draw` — the one hook the chunk kernel
reads (``TablePercolation`` has one; the lazy and sparse models do
not).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.graphs.complete import CompleteGraph
from repro.util.rng import derive_seed, edge_coin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels.topology import EdgeIndex

__all__ = [
    "GnpPercolation",
    "HashPercolation",
    "PercolationModel",
    "TablePercolation",
]


class PercolationModel(ABC):
    """The open/closed state of every edge for one random experiment."""

    def __init__(self, graph: Graph, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"retention probability must be in [0,1], got {p!r}")
        self.graph = graph
        self.p = p

    @abstractmethod
    def is_open(self, u: Vertex, v: Vertex) -> bool:
        """Return whether the edge ``{u, v}`` is open."""

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        """Return neighbours of ``v`` reachable through open edges.

        Default: filter ``graph.neighbors``.  Materialised models
        override this with an index lookup.
        """
        return [w for w in self.graph.neighbors(v) if self.is_open(v, w)]

    def open_degree(self, v: Vertex) -> int:
        """Return the number of open edges at ``v``."""
        return len(self.open_neighbors(v))

    def path_is_open(self, path: list[Vertex]) -> bool:
        """Return whether every consecutive edge of ``path`` is open."""
        return all(self.is_open(a, b) for a, b in zip(path, path[1:]))

    def chunk_draw(self, index: EdgeIndex, seeds: Sequence[int]):
        """Draw this model's class and parameters under every seed at once.

        The batched counterpart of building the model once per seed,
        or ``None`` when there is none (the chunk kernel then runs the
        per-trial loop).  ``index`` is the graph's
        :class:`~repro.kernels.topology.EdgeIndex`; the model's own
        seed plays no part.  The returned draw has two methods:

        * ``edge_masks()`` — the ``(trials, edges)`` open matrix, row
          ``i`` the model seeded ``seeds[i]``, edges in ``index``
          order;
        * ``model(i)`` — a model answering ``is_open`` and
          ``open_neighbors`` exactly like that seed's model.

        It may add ``connected(source_code, target_code)`` (per-row
        conditioning verdicts without drawing every coin) and
        ``edge_masks_for(rows)`` (mask rows for the routed trials
        only); the chunk kernel prefers them when present.  A subclass
        that changes which edges are open must override this too.
        """
        return None


class HashPercolation(PercolationModel):
    """Lazy percolation: edge states are keyed hashes, never stored.

    >>> from repro.graphs.hypercube import Hypercube
    >>> model = HashPercolation(Hypercube(10), p=0.5, seed=1)
    >>> model.is_open(0, 1) == model.is_open(1, 0)
    True
    """

    def __init__(self, graph: Graph, p: float, seed: int) -> None:
        super().__init__(graph, p)
        self.seed = seed

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return edge_coin(self.seed, self.graph.edge_key(u, v), self.p)


class TablePercolation(PercolationModel):
    """Materialised percolation with an open-adjacency index.

    Samples all edges of ``graph`` in one vectorised pass, on the first
    query.  Requires the graph to be enumerable in memory (used for
    meshes, moderate hypercubes, trees).

    >>> from repro.graphs.mesh import Mesh
    >>> model = TablePercolation(Mesh(2, 4), p=1.0, seed=0)
    >>> model.open_degree((0, 0))
    2
    """

    def __init__(self, graph: Graph, p: float, seed: int) -> None:
        super().__init__(graph, p)
        self.seed = seed

    @cached_property
    def _open(self) -> set:
        # Imported here: repro.kernels imports this module.
        from repro.kernels.topology import edge_index_for

        # The graph's shared index lists its edges in edges() order, so
        # the draw neither re-enumerates the graph per trial nor moves
        # a coin; graphs too large to index are walked as before.
        index = edge_index_for(self.graph)
        edges = (
            index.edge_keys if index is not None else list(self.graph.edges())
        )
        seed = derive_seed(self.seed, "table-percolation")
        mask = np.random.default_rng(seed).random(len(edges)) < self.p
        return set(compress(edges, mask.tolist()))

    @cached_property
    def _adjacency(self) -> dict[Vertex, list[Vertex]]:
        adjacency: dict[Vertex, list[Vertex]] = {}
        for u, v in self._open:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        return adjacency

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return self.graph.edge_key(u, v) in self._open

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._adjacency.get(v, [])

    def num_open_edges(self) -> int:
        """Return the number of open edges."""
        return len(self._open)

    def open_edges(self) -> set:
        """Return the set of open edge keys (do not mutate)."""
        return self._open

    def chunk_draw(self, index: EdgeIndex, seeds: Sequence[int]):
        from repro.kernels.percolation import MaskDraw, table_edge_masks

        masks = table_edge_masks(self.p, seeds, index.num_edges)
        return MaskDraw(index, self.p, masks)


class GnpPercolation(PercolationModel):
    """The Erdős–Rényi graph ``G(n, p)`` sampled in O(open edges).

    The number of open pairs is drawn ``Binomial(C(n,2), p)`` and the
    pairs themselves uniformly without replacement, which is exactly the
    ``G(n, p)`` distribution (a ``G(n, M)`` mixture), on the first
    query.  Probing any pair — including closed ones — is an O(1) set
    lookup.

    >>> model = GnpPercolation(n=50, p=0.1, seed=3)
    >>> isinstance(model.graph, CompleteGraph)
    True
    """

    def __init__(self, n: int, p: float, seed: int) -> None:
        super().__init__(CompleteGraph(n), p)
        self.n = n
        self.seed = seed

    @cached_property
    def _pairs(self) -> tuple[list[int], list[int]]:
        """The open pairs as ascending ``(low, high)``, on first query."""
        n = self.n
        total_pairs = n * (n - 1) // 2
        rng = np.random.default_rng(derive_seed(self.seed, "gnp-percolation"))
        count = int(rng.binomial(total_pairs, self.p))
        chosen: set[int] = set()
        # Draw-with-replacement + dedupe is distributionally identical to
        # without-replacement sampling and costs O(count) when p is small.
        while len(chosen) < count:
            batch = rng.integers(0, total_pairs, size=count - len(chosen))
            chosen.update(batch.tolist())
        indices = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
        indices.sort()
        low, high = (half.tolist() for half in _pairs_from_indices(indices))
        return low, high

    @cached_property
    def _open(self) -> set[tuple[int, int]]:
        return set(zip(*self._pairs))

    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        adjacency: dict[int, list[int]] = {}
        for i, j in zip(*self._pairs):
            adjacency.setdefault(i, []).append(j)
            adjacency.setdefault(j, []).append(i)
        return adjacency

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self._open

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._adjacency.get(v, [])

    def num_open_edges(self) -> int:
        """Return the number of open pairs."""
        return len(self._open)


def _pairs_from_indices(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.util.bitops.pair_from_index`.

    Maps triangular indices ``j(j-1)/2 + i`` back to ``(i, j)``,
    ``i < j``, as two int64 arrays.
    """
    # j is the largest integer with j*(j-1)/2 <= index; the float root
    # can be off by one near perfect squares, so correct it.
    high = ((np.sqrt(8 * indices + 1) + 1) * 0.5).astype(np.int64)
    high -= (high * (high - 1)) >> 1 > indices
    high += ((high + 1) * high) >> 1 <= indices
    return indices - ((high * (high - 1)) >> 1), high
