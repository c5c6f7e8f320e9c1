"""Per-trial reference constructions for the percolation models' draws.

Each function rebuilds one trial the direct way — one ``uniform_for``
coin per vertex or edge, outage balls grown by a Python BFS, radii
inverted by a scalar loop — with nothing from ``repro.kernels``.  The
chunk-draw parity suite (``test_chunk_draws.py``) holds every row of
every model's ``chunk_draw`` to these.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.util.rng import derive_seed, uniform_for


def table_open(graph, p, seed) -> set:
    """``TablePercolation``'s open edges: one numpy stream per trial."""
    edges = list(graph.edges())
    rng = np.random.default_rng(derive_seed(seed, "table-percolation"))
    mask = rng.random(len(edges)) < p
    return {e for e, keep in zip(edges, mask.tolist()) if keep}


def site_up(graph, p, seed, pinned=()) -> set:
    """The vertices whose ``"site"`` coin lands under ``p``, or pinned."""
    pinned = set(pinned)
    return {
        v
        for v in graph.vertices()
        if v in pinned or uniform_for(seed, "site", v) < p
    }


def site_open(graph, p, seed, pinned=()) -> set:
    """Edges with both endpoints up: site and node faults alike."""
    up = site_up(graph, p, seed, pinned)
    return {(u, v) for u, v in graph.edges() if u in up and v in up}


def radius(seed, epicenter, spread) -> int:
    """Geometric radius by inversion: ``Pr[r >= j] = spread**j``."""
    if spread == 0.0:
        return 0
    u = uniform_for(seed, "radius", epicenter)
    r = 0
    threshold = spread
    while u < threshold:
        r += 1
        threshold *= spread
    return r


def ball(graph, center, r) -> set:
    """Every vertex within graph distance ``r`` of ``center``."""
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        x, d = frontier.popleft()
        if d >= r:
            continue
        for y in graph.neighbors(x):
            if y not in seen:
                seen.add(y)
                frontier.append((y, d + 1))
    return seen


def outages(graph, seed, epicenter_rate, spread, pinned=()):
    """``(epicenters, dead)``: the union of the outage balls, unpinned."""
    epicenters = {
        v
        for v in graph.vertices()
        if uniform_for(seed, "epicenter", v) < epicenter_rate
    }
    dead = set()
    for e in epicenters:
        dead |= ball(graph, e, radius(seed, e, spread))
    return epicenters, dead - set(pinned)


def edge_coins_open(graph, p, seed, closed) -> set:
    """Edges outside ``closed`` whose ``"edge"`` coin lands under ``p``.

    ``closed`` is a predicate on the edge key.
    """
    return {
        e
        for e in graph.edges()
        if not closed(e) and uniform_for(seed, "edge", e) < p
    }


def cluster_connected(graph, open_edges, source, target) -> bool:
    """Whether ``target`` is in ``source``'s open cluster."""
    if source == target:
        return True
    seen = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in graph.neighbors(x):
            if y not in seen and graph.edge_key(x, y) in open_edges:
                if y == target:
                    return True
                seen.add(y)
                queue.append(y)
    return False
