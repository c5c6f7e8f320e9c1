"""Monotone-coupled percolation: exact per-trial critical points.

:class:`~repro.percolation.models.HashPercolation` opens an edge iff its
deterministic uniform variate is below ``p``; all retention levels of
one seed are therefore *coupled*: the open edge set grows monotonically
with ``p``.  That coupling makes per-trial threshold questions exact —
no scanning, no bisection:

* the ``p`` at which ``u ~ v`` first holds is the **bottleneck value**
  of the minimax path between them (Kruskal-style union–find over edges
  sorted by their uniforms);
* the ``p`` at which the largest cluster first reaches a target
  fraction falls out of the same sweep.

These exact thresholds agree with :class:`HashPercolation` by
construction (same hash stream), which the test suite verifies — and
they turn threshold experiments from O(grid × trials) into O(trials).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.percolation.models import HashPercolation
from repro.util.rng import uniform_for, uniforms_for

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


def _index(graph: Graph):
    """The graph's shared :class:`~repro.kernels.topology.EdgeIndex`."""
    # Imported here: repro.kernels imports repro.percolation.
    from repro.kernels.topology import EdgeIndex, edge_index_for

    # Too large to keep an index: walk the graph for this sweep alone.
    return edge_index_for(graph) or EdgeIndex.walk(graph)


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

    Union edges in increasing level order until ``u`` and ``v`` merge;
    the last level added is the threshold (the bottleneck of the
    minimax ``u``–``v`` path).  Returns ``inf`` if the full graph does
    not connect them.
    """
    graph._require_vertex(u)
    graph._require_vertex(v)
    if u == v:
        return 0.0
    index = _index(graph)
    # The current cluster roots of u and v: a root changes only when
    # its cluster is absorbed, so tracking them needs no finds.
    ru, rv = index.code[u], index.code[v]
    for level, root, absorbed, _ in _merges(index, seed):
        if ru == absorbed:
            ru = root
        if rv == absorbed:
            rv = root
        if ru == rv:
            return level
    return float("inf")


def giant_threshold(graph: Graph, seed: int, fraction: float) -> float:
    """Return the exact ``p`` at which the largest cluster reaches
    ``fraction`` of all vertices, in this coupling.

    Returns ``inf`` if even the full graph falls short (possible only
    for disconnected graphs).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    n = graph.num_vertices()
    target = fraction * n
    if target <= 1:
        return 0.0  # singletons already qualify
    for level, _, _, size in _merges(_index(graph), seed):
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
