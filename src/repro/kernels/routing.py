"""Routing engines: exact per-row replays of the routers' probe sequences.

Routing is the measured quantity of every trial — the probe sequence
*is* the experiment (Definition 2 counts distinct probed edges) — so
the chunk kernel speeds it up without changing it.  Each engine replays
one router's search row by row over the row's open-edge mask:
:class:`~repro.routers.bfs.LocalBFSRouter`,
:class:`~repro.routers.bfs.BidirectionalBFSRouter` and the
:class:`~repro.routers.waypoint.WaypointRouter` family.  A replay reads
its mask row once (``row.tobytes()``), memoises probes in a
``bytearray`` over edge ids and counts queries in an integer — the
lean-replay pattern of :mod:`repro.routers.gnp` — instead of one
:class:`~repro.core.probe.ProbeOracle` call and memo entry per probe.

The contract (enforced by ``tests/kernels/test_routing.py``):

* probes happen in ``graph.neighbors(x)`` order, read from the graph's
  one neighbour-ordered :meth:`~repro.kernels.topology.EdgeIndex.
  adjacency`, from the exact vertex the per-trial router would expand
  next (FIFO order per queue; the bidirectional router expands the
  smaller frontier, ties to the source side; the waypoint router
  advances layer by layer with the depth cap checked *before* a layer
  is probed);
* ``queries`` counts distinct probed edges: a memoised edge is free,
  and a new probe arriving with ``queries == budget`` stops the row
  before it is counted or answered — exactly where ``ProbeOracle``
  raises;
* success paths are loop-erased (:func:`~repro.core.result.
  erase_loops`) and failures carry the reason ``Router.route`` would
  attach (``BUDGET`` / ``EXHAUSTED`` / ``GAVE_UP`` by
  ``router.is_complete``).

Extension seam: :func:`register_router_kernel` registers a compiler
per *exact* router type; unregistered routers (and declined compiles)
keep the per-trial routing loop inside the chunk kernel.

An engine is compiled per workload, never per pair: its one entry
point :meth:`~_EngineBase.route_pairs` routes row ``i`` from
``sources[i]`` to ``targets[i]``, so a probe-pair chunk (the workload's
pair on every routed row) and a demand-matrix chunk (every commodity
of every trial) run through the same replay.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.result import FailureReason, RoutingResult, erase_loops
from repro.kernels.topology import EdgeIndex

__all__ = [
    "PairRoutingUnsupported",
    "register_router_kernel",
    "router_kernel_for",
]

#: Exact router type -> engine compiler.
_ROUTER_KERNELS: dict[type, Callable] = {}


class PairRoutingUnsupported(Exception):
    """An engine cannot route one of the requested pairs.

    Raised by :meth:`route_pairs` implementations when a pair has no
    replay (e.g. the waypoint engine finds no geodesic for a pair).
    Callers catch it and drop the whole batch to the per-trial loop,
    where the same condition surfaces through the unchanged per-trial
    error path with per-spec attribution.
    """


def register_router_kernel(router_type: type, compiler: Callable) -> None:
    """Register the batched counterpart of a router type.

    ``router_type`` is matched by *exact* type (a subclass that
    overrides ``_route`` must register its own kernel or it falls back
    to the per-trial loop — never to a kernel with the wrong probe
    sequence).  ``compiler(router, index, budget)`` must return an
    engine with ``route_pairs(masks, sources, targets) ->
    list[RoutingResult]`` — row ``i`` routed from ``sources[i]`` to
    ``targets[i]`` (vertex codes) over the open-edge row ``masks[i]``,
    field-identical to ``router.route(model_i, verts[sources[i]],
    verts[targets[i]], budget=budget)`` — or ``None`` to decline.
    ``route_pairs`` may raise :class:`PairRoutingUnsupported` for a
    pair it cannot replay; the caller then routes the whole batch per
    trial.  Registration is per process, at import time of the module
    defining the router, so worker processes re-register through the
    same import.
    """
    _ROUTER_KERNELS[router_type] = compiler


def router_kernel_for(router, index: EdgeIndex, budget: int | None):
    """Compile the routing engine for one workload, or ``None``.

    Declines (-> per-trial fallback) for unregistered router types and
    for budgets the per-trial :class:`~repro.core.probe.ProbeOracle`
    would reject (``budget < 1``), so those errors keep surfacing
    through the unchanged per-trial path.
    """
    compiler = _ROUTER_KERNELS.get(type(router))
    if compiler is None:
        return None
    if budget is not None and budget < 1:
        return None
    return compiler(router, index, budget)


def _backtrack(parent: dict[int, int], code: int) -> list[int]:
    """Follow ``parent`` from ``code`` to its root (parent ``-1``)."""
    out = [code]
    while (code := parent[code]) != -1:
        out.append(code)
    out.reverse()
    return out


class _EngineBase:
    """Shared plumbing: the row loop, result assembly, trivial pairs.

    Subclasses implement ``_route(adjacency, mask, src, tgt)`` for one
    row with ``src != tgt``: ``mask[e]`` is edge ``e``'s open byte.
    """

    def __init__(self, router, index: EdgeIndex, budget: int | None) -> None:
        self._router = router
        self._index = index
        # A new probe arriving at ``queries == limit`` stops the row;
        # without a budget the limit exceeds every probe count.
        self._limit = index.num_edges + 1 if budget is None else budget

    def route_pairs(
        self,
        masks: np.ndarray,
        sources: Sequence[int],
        targets: Sequence[int],
    ) -> list[RoutingResult]:
        """Route row ``i`` from ``sources[i]`` to ``targets[i]``.

        Trivial ``source == target`` rows short-circuit exactly like
        the per-trial routers (single-vertex path, zero probes).
        """
        masks = np.asarray(masks, dtype=bool)
        rows = masks.shape[0]
        if len(sources) != rows or len(targets) != rows:
            raise ValueError("sources/targets must carry one code per row")
        adjacency = self._index.adjacency()
        out = []
        for row, src, tgt in zip(masks, sources, targets):
            src, tgt = int(src), int(tgt)
            if src == tgt:
                out.append(self._success(0, [src], src, tgt))
            else:
                out.append(self._route(adjacency, row.tobytes(), src, tgt))
        return out

    def _success(
        self, queries: int, codes: list[int], src: int, tgt: int
    ) -> RoutingResult:
        verts = self._index.verts
        path = [verts[c] for c in erase_loops(codes)]
        return RoutingResult(
            source=verts[src],
            target=verts[tgt],
            success=True,
            queries=queries,
            path=path,
            router=self._router.name,
        )

    def _failure(
        self, queries: int, budget_hit: bool, src: int, tgt: int
    ) -> RoutingResult:
        verts = self._index.verts
        if budget_hit:
            reason = FailureReason.BUDGET
        elif self._router.is_complete:
            reason = FailureReason.EXHAUSTED
        else:
            reason = FailureReason.GAVE_UP
        return RoutingResult(
            source=verts[src],
            target=verts[tgt],
            success=False,
            queries=queries,
            failure=reason,
            router=self._router.name,
        )


class _LocalBFSEngine(_EngineBase):
    """Replay of :class:`~repro.routers.bfs.LocalBFSRouter`.

    Pop the FIFO head, probe every neighbour in order, adopt open edges
    to undiscovered vertices; stop on target discovery.
    """

    def _route(self, adjacency, mask: bytes, src: int, tgt: int):
        limit = self._limit
        probed = bytearray(self._index.num_edges)
        queries = 0
        parent = {src: -1}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y, e in adjacency[x]:
                if not probed[e]:
                    if queries == limit:
                        return self._failure(queries, True, src, tgt)
                    queries += 1
                    probed[e] = 1
                if not mask[e] or y in parent:
                    continue
                parent[y] = x
                if y == tgt:
                    return self._success(
                        queries, _backtrack(parent, y), src, tgt
                    )
                queue.append(y)
        return self._failure(queries, False, src, tgt)


class _BidirectionalEngine(_EngineBase):
    """Replay of :class:`~repro.routers.bfs.BidirectionalBFSRouter`.

    Each step expands one vertex from the smaller live frontier (ties
    to the source side), probing every neighbour in order; an open
    edge joins the expanding tree first, then meeting the other tree
    stops the row.
    """

    def _route(self, adjacency, mask: bytes, src: int, tgt: int):
        limit = self._limit
        probed = bytearray(self._index.num_edges)
        queries = 0
        parent_s = {src: -1}
        parent_t = {tgt: -1}
        queue_s = deque([src])
        queue_t = deque([tgt])
        while queue_s and queue_t:
            if len(queue_s) <= len(queue_t):
                queue, own, other = queue_s, parent_s, parent_t
            else:
                queue, own, other = queue_t, parent_t, parent_s
            x = queue.popleft()
            for y, e in adjacency[x]:
                if not probed[e]:
                    if queries == limit:
                        return self._failure(queries, True, src, tgt)
                    queries += 1
                    probed[e] = 1
                if not mask[e]:
                    continue
                if y not in own:
                    own[y] = x
                    queue.append(y)
                if y in other:
                    left = _backtrack(parent_s, y)  # source … meet
                    right = _backtrack(parent_t, y)  # target … meet
                    right.reverse()
                    return self._success(
                        queries, left + right[1:], src, tgt
                    )
        return self._failure(queries, False, src, tgt)


class _WaypointEngine(_EngineBase):
    """Replay of the ``WaypointRouter`` family's layered BFS legs.

    Each leg searches layer by layer from the current waypoint — the
    radius cap checked before a layer is probed — until it adopts a
    waypoint past the current one; probes stay memoised across legs.

    Waypoint positions are per *pair*: the engine looks up each
    distinct pair's geodesic on first use and caches it for its
    lifetime, so a probe-pair workload runs one lookup in all.
    """

    def __init__(self, router, index: EdgeIndex, budget: int | None) -> None:
        super().__init__(router, index, budget)
        self._positions: dict[tuple[int, int], dict[int, int]] = {}

    def _waypoints(self, src: int, tgt: int) -> dict[int, int]:
        """Waypoint code -> position along the pair's base geodesic.

        Raises :class:`PairRoutingUnsupported` when the base graph has
        no geodesic for the pair — the per-trial router would raise the
        same condition on every trial, so the caller's per-trial
        fallback reproduces it with per-spec attribution.
        """
        positions = self._positions.get((src, tgt))
        if positions is None:
            index = self._index
            verts = index.verts
            try:
                waypoints = index.graph.shortest_path(verts[src], verts[tgt])
                positions = {index.code[w]: j for j, w in enumerate(waypoints)}
            except Exception as exc:
                raise PairRoutingUnsupported(
                    f"no geodesic for pair ({verts[src]!r}, {verts[tgt]!r})"
                ) from exc
            self._positions[(src, tgt)] = positions
        return positions

    def _route(self, adjacency, mask: bytes, src: int, tgt: int):
        positions = self._waypoints(src, tgt)
        cap = self._router.max_radius
        limit = self._limit
        probed = bytearray(self._index.num_edges)
        queries = 0
        path = [src]
        current, position = src, 0
        while current != tgt:
            parent = {current: -1}
            frontier = [current]
            depth = 0
            found = -1
            while found == -1:
                depth += 1
                if not frontier or (cap is not None and depth > cap):
                    return self._failure(queries, False, src, tgt)
                layer = []
                for x in frontier:
                    for y, e in adjacency[x]:
                        if y in parent:
                            continue
                        if not probed[e]:
                            if queries == limit:
                                return self._failure(queries, True, src, tgt)
                            queries += 1
                            probed[e] = 1
                        if not mask[e]:
                            continue
                        parent[y] = x
                        if positions.get(y, -1) > position:
                            found = y
                            break
                        layer.append(y)
                    if found != -1:
                        break
                frontier = layer
            path.extend(_backtrack(parent, found)[1:])
            current, position = found, positions[found]
        return self._success(queries, path, src, tgt)


def _register_builtin_router_kernels() -> None:
    from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
    from repro.routers.waypoint import (
        HypercubeWaypointRouter,
        MeshWaypointRouter,
        WaypointRouter,
    )

    register_router_kernel(LocalBFSRouter, _LocalBFSEngine)
    register_router_kernel(BidirectionalBFSRouter, _BidirectionalEngine)
    # The subclasses only specialise construction, never the search —
    # same engine, registered per exact type.
    register_router_kernel(WaypointRouter, _WaypointEngine)
    register_router_kernel(HypercubeWaypointRouter, _WaypointEngine)
    register_router_kernel(MeshWaypointRouter, _WaypointEngine)


_register_builtin_router_kernels()
