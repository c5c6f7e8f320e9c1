"""Monotone-coupled percolation: exact per-trial critical points.

:class:`~repro.percolation.models.HashPercolation` opens an edge iff its
deterministic uniform variate is below ``p``; all retention levels of
one seed are therefore *coupled*: the open edge set grows monotonically
with ``p``.  That coupling makes per-trial threshold questions exact —
no scanning, no bisection:

* the ``p`` at which ``u ~ v`` first holds is the **bottleneck value**
  of the minimax path between them.  A best-first search from ``u``,
  ordered by the highest edge level on the path so far, settles ``v``
  at exactly that value, and hashes only the edges it reaches;
* the ``p`` at which the largest cluster first reaches a target
  fraction needs every merge, so it comes from a Kruskal-style sweep:
  union–find over all edges sorted by their uniforms.

These exact thresholds agree with :class:`HashPercolation` by
construction (same hash stream, every coin through
:mod:`repro.util.rng`), which the test suite verifies — and they turn
threshold experiments from O(grid × trials) into O(trials).  Both read
the graph's shared :class:`~repro.kernels.topology.EdgeIndex` and its
cached per-edge key bytes.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.percolation.models import HashPercolation
from repro.util.rng import uniform_for, uniform_hasher, uniforms_for

__all__ = [
    "edge_level",
    "giant_threshold",
    "pair_threshold",
    "threshold_sample",
]


def edge_level(graph: Graph, seed: int, u: Vertex, v: Vertex) -> float:
    """Return the coupling level of edge ``{u, v}``.

    The edge is open under ``HashPercolation(graph, p, seed)`` iff
    ``p > edge_level(...)`` (strictly: iff the level is `< p`).
    """
    return uniform_for(seed, "edge", graph.edge_key(u, v))


def _merges(index, seed: int):
    """Kruskal's sweep over one coupling: union edges by level.

    Yields ``(level, root, absorbed, size)`` for every union that joins
    two clusters: the joining edge's level, the surviving root, the
    root it absorbed (both vertex codes of ``index``) and the merged
    cluster's size.  Levels are hashed in one batch from the index's
    cached key bytes (:func:`~repro.util.rng.uniforms_for` equals
    :func:`edge_level` edge for edge); the union–find is plain lists,
    union by size with path halving.  Ties between levels cannot
    change a threshold: the answer is the level of the edge that
    completes the event, and every edge of a tie shares it.
    """
    levels = uniforms_for(seed, index.level_keys)
    order = np.argsort(levels, kind="stable")
    parent = list(range(index.num_vertices))
    size = [1] * index.num_vertices
    for level, a, b in zip(
        levels[order].tolist(),
        index.edge_u[order].tolist(),
        index.edge_v[order].tolist(),
    ):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        yield level, a, b, size[a]


def pair_threshold(graph: Graph, seed: int, u: Vertex, v: Vertex) -> float:
    """Return the exact ``p`` above which ``u ~ v`` in this coupling.

    The bottleneck of the minimax ``u``–``v`` path, found by a lazy
    best-first search: vertices settle in order of the highest edge
    level on their best path from ``u``, an edge is hashed only when
    one endpoint settles and the other has not, and the search stops
    when ``v`` settles.  The minimax value is unique, so this is the
    same float a Kruskal sweep returns at the merge of ``u`` and ``v``.
    Returns ``inf`` if the full graph does not connect them.
    """
    # Imported here: repro.kernels imports repro.percolation.
    from repro.kernels.topology import edge_index_or_walk

    graph._require_vertex(u)
    graph._require_vertex(v)
    if u == v:
        return 0.0
    index = edge_index_or_walk(graph)
    adjacency = index.adjacency()
    keys = index.level_keys
    level = uniform_hasher(seed)
    target = index.code[v]
    settled = bytearray(index.num_vertices)
    heap = [(0.0, index.code[u])]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        bottleneck, x = pop(heap)
        if settled[x]:
            continue
        if x == target:
            return bottleneck
        settled[x] = 1
        for y, e in adjacency[x]:
            if not settled[y]:
                edge = level(keys[e])
                push(heap, (edge if edge > bottleneck else bottleneck, y))
    return float("inf")


def giant_threshold(graph: Graph, seed: int, fraction: float) -> float:
    """Return the exact ``p`` at which the largest cluster reaches
    ``fraction`` of all vertices, in this coupling.

    Returns ``inf`` if even the full graph falls short (possible only
    for disconnected graphs).
    """
    from repro.kernels.topology import edge_index_or_walk

    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    n = graph.num_vertices()
    target = fraction * n
    if target <= 1:
        return 0.0  # singletons already qualify
    for level, _, _, size in _merges(edge_index_or_walk(graph), seed):
        if size >= target:
            return level
    return float("inf")


def threshold_sample(
    graph: Graph,
    trials: int,
    seed: int,
    pair: tuple[Vertex, Vertex] | None = None,
    giant_fraction: float | None = None,
) -> list[dict]:
    """Sample exact thresholds over independent couplings.

    For each trial returns a dict with ``pair_threshold`` (for ``pair``,
    default the canonical pair) and, if requested, ``giant_threshold``
    at ``giant_fraction``.  One sweep per trial; the empirical CDF of
    ``pair_threshold`` **is** the connectivity curve
    ``p ↦ Pr[u ~ v in G_p]`` evaluated at every ``p`` simultaneously.
    """
    from repro.util.rng import derive_seed

    if trials < 1:
        raise ValueError("need at least one trial")
    u, v = pair if pair is not None else graph.canonical_pair()
    rows = []
    for t in range(trials):
        trial_seed = derive_seed(seed, "coupled", t)
        row = {
            "trial": t,
            "seed": trial_seed,
            "pair_threshold": pair_threshold(graph, trial_seed, u, v),
        }
        if giant_fraction is not None:
            row["giant_threshold"] = giant_threshold(
                graph, trial_seed, giant_fraction
            )
        rows.append(row)
    return rows


# re-export for convenience in tests: the model these thresholds describe
CoupledModel = HashPercolation
