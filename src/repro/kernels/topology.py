"""Implicit topologies as index arrays.

The vectorized kernels never walk object graphs: a topology is compiled
into an :class:`EdgeIndex` — flat integer arrays in which vertex ``i``
is the ``i``-th element of ``graph.vertices()`` and edge ``e`` is the
``e``-th element of ``graph.edges()``.  Everything downstream (mask
drawing, cluster labels, the mask-backed percolation models) is
array indexing on those codes.

**One index per graph per process.**  :func:`edge_index_for` compiles a
graph on first use and keeps the index on the graph object, so the
chunk kernels and the per-trial path — every ``TablePercolation`` draw,
every coupled-threshold sweep — share it instead of re-enumerating the
graph per trial.  The index is process-local state: ``Graph``'s pickle
state leaves it out (workload ids and serve cache keys never see it),
each worker process compiles its own copy, and it is freed with its
graph (the index holds the graph only weakly).

**Order parity is the contract.**  ``TablePercolation`` draws one
uniform per edge *in enumeration order*, so the batched mask kernel
reproduces its draws bit-for-bit only if ``edge_u``/``edge_v`` list the
edges in exactly the order ``graph.edges()`` yields them.  The builders
for the paper's implicit topologies (:class:`~repro.graphs.hypercube.
Hypercube`, :class:`~repro.graphs.mesh.Mesh`, :class:`~repro.graphs.
mesh.Torus`, :class:`~repro.graphs.debruijn.DeBruijn`) derive that
order arithmetically — no per-edge Python — and
``tests/kernels/test_topology.py`` pins each one against the real
enumeration.  Every other enumerable graph gets the generic builder,
which walks ``graph.edges()`` once.

>>> from repro.graphs.hypercube import Hypercube
>>> index = build_edge_index(Hypercube(3))
>>> index.num_edges
12
>>> (index.verts[index.edge_u[0]], index.verts[index.edge_v[0]])
(0, 1)
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.graphs.base import EDGE_INDEX_ATTR, Graph
from repro.graphs.debruijn import DeBruijn
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus

__all__ = [
    "EdgeIndex",
    "build_edge_index",
    "edge_index_for",
    "edge_index_or_walk",
]

#: Refuse to materialise indexes beyond this many vertices — the same
#: bound ``repro.core.complexity._default_factory`` uses to switch from
#: ``TablePercolation`` to lazy hashing.
MAX_INDEX_VERTICES = 2_000_000


class EdgeIndex:
    """A graph compiled to integer arrays, edges in ``edges()`` order.

    ``edge_u``/``edge_v`` hold the canonical endpoints (``u < v``) of
    edge ``e`` as vertex codes — positions in ``graph.vertices()``
    order.  Vertex objects, the code map, the edge keys, the edge-id
    map and the padded incidence arrays are derived lazily, so
    workloads that never route (e.g. every trial disconnected) never
    pay for the lookup dicts.
    """

    def __init__(
        self, graph: Graph, edge_u: np.ndarray, edge_v: np.ndarray
    ) -> None:
        self._graph = graph
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.num_vertices = int(graph.num_vertices())
        self.num_edges = int(len(edge_u))
        self._verts: list | None = None
        self._code: dict | None = None
        self._edge_keys: list | None = None
        self._level_keys: list | None = None
        self._vertex_keys: dict[str, list[bytes]] = {}
        self._eid: dict | None = None
        self._incidence: tuple | None = None
        self._adjacency: list | None = None

    @classmethod
    def walk(cls, graph: Graph) -> EdgeIndex:
        """Compile any enumerable graph by one walk of ``edges()``."""
        verts = list(graph.vertices())
        code = {v: i for i, v in enumerate(verts)}
        pairs = [(code[a], code[b]) for a, b in graph.edges()]
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            edge_u, edge_v = arr[:, 0].copy(), arr[:, 1].copy()
        else:
            edge_u = edge_v = np.zeros(0, dtype=np.int64)
        index = cls(graph, edge_u, edge_v)
        index._verts = verts
        index._code = code
        return index

    @property
    def graph(self) -> Graph:
        """The compiled graph; held weakly once the graph owns the index."""
        graph = self._graph
        return graph() if isinstance(graph, weakref.ref) else graph

    @property
    def verts(self) -> list:
        """Vertex objects, position = code (``graph.vertices()`` order)."""
        if self._verts is None:
            self._verts = list(self.graph.vertices())
        return self._verts

    @property
    def code(self) -> dict:
        """Vertex object -> vertex code."""
        if self._code is None:
            self._code = {v: i for i, v in enumerate(self.verts)}
        return self._code

    @property
    def edge_keys(self) -> list:
        """Canonical edge keys, position = edge id: ``list(graph.edges())``.

        Built from the vertex objects in :attr:`verts` (never numpy
        scalars, whose ``repr`` differs), so each key equals — and
        ``repr``\\ s like — the one ``edges()`` yields.
        """
        if self._edge_keys is None:
            verts = self.verts
            self._edge_keys = [
                (verts[u], verts[v])
                for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist())
            ]
        return self._edge_keys

    @property
    def level_keys(self) -> list[bytes]:
        """Per edge, the bytes ``uniform_for(seed, "edge", key)`` hashes.

        ``repr(("edge", key)).encode("utf-8")`` — serialised once per
        graph, so a coupled sweep hashes every edge without re-``repr``
        ing its key (:func:`~repro.util.rng.uniforms_for`).
        """
        if self._level_keys is None:
            self._level_keys = [
                repr(("edge", key)).encode("utf-8") for key in self.edge_keys
            ]
        return self._level_keys

    def vertex_keys(self, tag: str) -> list[bytes]:
        """Per vertex, the bytes ``uniform_for(seed, tag, v)`` hashes.

        The vertex analogue of :attr:`level_keys`, serialised once per
        graph and tag (``"site"``, ``"epicenter"``, ``"radius"``).
        """
        keys = self._vertex_keys.get(tag)
        if keys is None:
            keys = self._vertex_keys[tag] = [
                repr((tag, v)).encode("utf-8") for v in self.verts
            ]
        return keys

    @property
    def eid(self) -> dict:
        """Canonical edge key -> edge id (``graph.edges()`` order)."""
        if self._eid is None:
            verts = self.verts
            self._eid = {
                (verts[u], verts[v]): e
                for e, (u, v) in enumerate(
                    zip(self.edge_u.tolist(), self.edge_v.tolist())
                )
            }
        return self._eid

    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded incidence arrays ``(inc_nbr, inc_eid, inc_valid)``.

        Row ``v`` lists the codes of ``v``'s neighbours and the ids of
        the connecting edges, padded to the maximum degree;
        ``inc_valid`` masks the padding.  Built vectorised from the
        edge arrays (no Python per edge) and cached.
        """
        if self._incidence is None:
            self._incidence = _build_incidence(
                self.edge_u, self.edge_v, self.num_vertices
            )
        return self._incidence

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex code, its ``(neighbour code, edge id)`` pairs in
        ``graph.neighbors(v)`` order.

        For searches that step one vertex at a time (list reads beat
        numpy scalar indexing there).  The order is the routers' probe
        order, which is observable — ``queries`` stops counting
        mid-neighbourhood on discovery or budget exhaustion — so the
        routing engines replay from it.  Built on first use by one walk
        of ``neighbors()`` against per-vertex edge-id maps; cached.
        """
        if self._adjacency is None:
            ids: list[dict[int, int]] = [{} for _ in range(self.num_vertices)]
            for e, (u, v) in enumerate(
                zip(self.edge_u.tolist(), self.edge_v.tolist())
            ):
                ids[u][v] = e
                ids[v][u] = e
            graph, code = self.graph, self.code
            self._adjacency = [
                [(code[w], ids[u][code[w]]) for w in graph.neighbors(v)]
                for u, v in enumerate(self.verts)
            ]
        return self._adjacency


def _build_incidence(
    edge_u: np.ndarray, edge_v: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    num_edges = len(edge_u)
    if num_edges == 0:
        shape = (num_vertices, 1)
        return (
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=np.int64),
            np.zeros(shape, dtype=bool),
        )
    ends = np.concatenate([edge_u, edge_v])
    others = np.concatenate([edge_v, edge_u])
    eids = np.tile(np.arange(num_edges, dtype=np.int64), 2)
    order = np.argsort(ends, kind="stable")
    ends_sorted = ends[order]
    degree = np.bincount(ends, minlength=num_vertices)
    width = int(degree.max())
    starts = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degree, out=starts[1:])
    slot = np.arange(2 * num_edges, dtype=np.int64) - starts[ends_sorted]
    inc_nbr = np.zeros((num_vertices, width), dtype=np.int64)
    inc_eid = np.zeros((num_vertices, width), dtype=np.int64)
    inc_valid = np.zeros((num_vertices, width), dtype=bool)
    inc_nbr[ends_sorted, slot] = others[order]
    inc_eid[ends_sorted, slot] = eids[order]
    inc_valid[ends_sorted, slot] = True
    return inc_nbr, inc_eid, inc_valid


# -- per-topology edge arrays (exact ``graph.edges()`` order) -----------


def _hypercube_edges(graph: Hypercube) -> tuple[np.ndarray, np.ndarray]:
    # edges() iterates v ascending, flips bit i ascending, keeps the
    # orientation where v is the smaller endpoint — i.e. bit i unset.
    n = graph.n
    size = 1 << n
    v = np.repeat(np.arange(size, dtype=np.int64), n)
    bit = np.int64(1) << np.tile(np.arange(n, dtype=np.int64), size)
    keep = (v & bit) == 0
    return v[keep], (v | bit)[keep]


def _mesh_places(graph: Mesh) -> tuple[np.ndarray, np.ndarray]:
    # Vertex code = mixed-radix value of the coordinate tuple, which is
    # exactly the lexicographic position itertools.product yields.
    d, side = graph.d, graph.side
    place = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    codes = np.arange(side**d, dtype=np.int64)
    digits = (codes[:, None] // place[None, :]) % side
    return place, digits


def _mesh_edges(graph: Mesh) -> tuple[np.ndarray, np.ndarray]:
    # Per vertex, per coordinate i ascending: neighbors() yields the -1
    # neighbour (canonical key starts at *it*, so edges() skips it)
    # then the +1 neighbour (kept when in range).
    d, side = graph.d, graph.side
    place, digits = _mesh_places(graph)
    codes = np.arange(side**d, dtype=np.int64)
    keep = (digits < side - 1).ravel()
    u = np.repeat(codes, d)[keep]
    w = (codes[:, None] + place[None, :]).ravel()[keep]
    return u, w


def _torus_edges(graph: Torus) -> tuple[np.ndarray, np.ndarray]:
    # Per vertex, per coordinate i: neighbors() yields (v_i - 1) mod s
    # first, then (v_i + 1) mod s.  The -1 edge survives canonical
    # filtering only at digit 0 (the wraparound, where v is smaller);
    # the +1 edge survives below side - 1.  Slot order (wrap, then +1)
    # matches the neighbour order, so ravel reproduces edges().
    d, side = graph.d, graph.side
    place, digits = _mesh_places(graph)
    codes = np.arange(side**d, dtype=np.int64)
    wrap_w = codes[:, None] + (side - 1) * place[None, :]
    step_w = codes[:, None] + place[None, :]
    w = np.stack([wrap_w, step_w], axis=2).reshape(-1)
    keep = np.stack(
        [digits == 0, digits < side - 1], axis=2
    ).reshape(-1)
    u = np.repeat(codes, 2 * d)[keep]
    return u, w[keep]


def _debruijn_edges(graph: DeBruijn) -> tuple[np.ndarray, np.ndarray]:
    # neighbors() = the four shift candidates, deduped as a set, minus
    # self-loops, sorted; edges() keeps neighbours greater than v, in
    # that sorted order.  Sorting candidate rows makes duplicates
    # adjacent, so the dedupe is a shifted comparison.
    size = 1 << graph.n
    mask = size - 1
    half = size >> 1
    v = np.arange(size, dtype=np.int64)
    cand = np.stack(
        [
            (v << 1) & mask,
            ((v << 1) | 1) & mask,
            v >> 1,
            (v >> 1) | half,
        ],
        axis=1,
    )
    cand.sort(axis=1)
    dup = np.zeros_like(cand, dtype=bool)
    dup[:, 1:] = cand[:, 1:] == cand[:, :-1]
    keep = (~dup & (cand > v[:, None])).ravel()
    u = np.repeat(v, 4)[keep]
    return u, cand.ravel()[keep]


def build_edge_index(graph: Graph) -> EdgeIndex | None:
    """Compile ``graph`` to an :class:`EdgeIndex`, or ``None``.

    The paper's implicit topologies compile arithmetically; any other
    enumerable graph falls back to one walk of ``edges()``.  ``None``
    means the graph is too large to materialise (the caller falls back
    to the per-trial path — which would not materialise it either).
    """
    try:
        too_big = graph.num_vertices() > MAX_INDEX_VERTICES
    except (OverflowError, ValueError):  # pragma: no cover - defensive
        too_big = True
    if too_big:
        return None
    # Exact types only: a subclass may reorder neighbours (Torus does,
    # relative to Mesh), which silently breaks edge-order parity.
    builders = {
        Hypercube: _hypercube_edges,
        Mesh: _mesh_edges,
        Torus: _torus_edges,
        DeBruijn: _debruijn_edges,
    }
    builder = builders.get(type(graph))
    if builder is None:
        return EdgeIndex.walk(graph)
    return EdgeIndex(graph, *builder(graph))


def edge_index_for(graph: Graph) -> EdgeIndex | None:
    """Return ``graph``'s :class:`EdgeIndex`, compiling it on first use.

    The one index this process keeps for ``graph`` (``None`` when the
    graph is too large to index), shared by the chunk kernels and the
    per-trial draws.  It lives on the graph object — which
    ``Graph.__getstate__`` leaves out of pickles — so it is built once
    per graph per process.  The index refers back to the graph only
    weakly, so no reference cycle delays freeing it: it goes the
    moment the graph does, and whoever keeps the index must keep the
    graph (the compiled chunk runners do).
    """
    state = graph.__dict__
    if EDGE_INDEX_ATTR not in state:
        index = build_edge_index(graph)
        if index is not None:
            index._graph = weakref.ref(graph)
        state[EDGE_INDEX_ATTR] = index
    return state[EDGE_INDEX_ATTR]


def edge_index_or_walk(graph: Graph) -> EdgeIndex:
    """Return ``graph``'s shared index, or a one-off walk of its edges.

    For callers that need an index whatever the graph's size: a graph
    too large to keep an index (:func:`edge_index_for` returns
    ``None``) is compiled for this call alone and not cached.
    """
    return edge_index_for(graph) or EdgeIndex.walk(graph)
