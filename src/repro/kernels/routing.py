"""Vectorized routing: chunk-wide frontier-array router kernels.

Routing is the measured quantity of every trial — the probe sequence
*is* the experiment — so for years of this codebase it stayed per-trial
Python.  This module batches it without changing it: the complete
-information routers (:class:`~repro.routers.bfs.LocalBFSRouter`,
:class:`~repro.routers.bfs.BidirectionalBFSRouter` and the
:class:`~repro.routers.waypoint.WaypointRouter` family) are lockstep
simulations — every trial expands **one vertex per sweep**, all trials
at once, as array gathers over a neighbour-ordered incidence — so each
kernel replays the per-trial router *probe for probe*: same probe
counts, same discovered paths, same budget-exhaustion point, same
:class:`~repro.core.result.RoutingResult` fields.

The contract (enforced by ``tests/kernels/test_routing.py``):

* probes happen in ``graph.neighbors(x)`` order, from the exact vertex
  the per-trial router would expand next (FIFO order per queue; the
  bidirectional router expands the smaller frontier, ties to the
  source side; the waypoint router advances layer by layer with the
  depth cap checked *before* a layer is probed);
* ``queries`` counts distinct probed edges, incremented only for
  probes the per-trial router would have issued — a probe that would
  trip the budget raises *before* it is counted or answered, so a
  same-slot tie between discovery and budget exhaustion goes to the
  budget, exactly like :class:`~repro.core.probe.ProbeOracle`;
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
of every trial) advance through the same lockstep sweep.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.result import FailureReason, RoutingResult, erase_loops
from repro.kernels.bfs import BLOCK_BYTES
from repro.kernels.topology import EdgeIndex

__all__ = [
    "PairRoutingUnsupported",
    "register_router_kernel",
    "router_kernel_for",
    "routing_incidence",
]

#: Exact router type -> engine compiler.
_ROUTER_KERNELS: dict[type, Callable] = {}

#: Row status codes shared by the engines.
_ACTIVE, _SUCCESS, _BUDGET, _FAIL = 0, 1, 2, 3


class PairRoutingUnsupported(Exception):
    """An engine cannot route one of the requested pairs.

    Raised by :meth:`route_pairs` implementations *before* any probe
    accounting happens (e.g. the waypoint engine finds no geodesic for
    a pair).  Callers catch it and drop the whole batch to the
    per-trial loop, where the same condition surfaces through the
    unchanged per-trial error path with per-spec attribution.
    """


def register_router_kernel(router_type: type, compiler: Callable) -> None:
    """Register the vectorized counterpart of a router type.

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


def routing_incidence(
    index: EdgeIndex,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded per-vertex incidence in ``graph.neighbors(v)`` order.

    Distinct from ``index.incidence()`` — whose slot order is an
    artifact of the edge enumeration and fine for order-independent
    reachability — because probe order is observable: ``queries`` stops
    counting mid-neighbourhood on discovery or budget exhaustion.
    Padding slots carry the sentinels ``num_vertices`` / ``num_edges``
    (never 0), so masked scatters cannot alias vertex 0 or edge 0.
    Cached on the index, amortised over the workload's lifetime.
    """
    cached = getattr(index, "_routing_incidence", None)
    if cached is not None:
        return cached
    graph = index.graph
    verts = index.verts
    eid = index.eid
    code = index.code
    num_vertices = index.num_vertices
    num_edges = index.num_edges
    rows = []
    width = 1
    for v in verts:
        row = [
            (code[w], eid[graph.edge_key(v, w)]) for w in graph.neighbors(v)
        ]
        width = max(width, len(row))
        rows.append(row)
    inc_nbr = np.full((num_vertices, width), num_vertices, dtype=np.int64)
    inc_eid = np.full((num_vertices, width), num_edges, dtype=np.int64)
    inc_valid = np.zeros((num_vertices, width), dtype=bool)
    for c, row in enumerate(rows):
        for j, (w, e) in enumerate(row):
            inc_nbr[c, j] = w
            inc_eid[c, j] = e
            inc_valid[c, j] = True
    out = (inc_nbr, inc_eid, inc_valid)
    index._routing_incidence = out
    return out


def _budget_raise_slot(
    newp: np.ndarray, queries: np.ndarray, budget: int | None, width: int
) -> np.ndarray:
    """First slot whose probe would trip the budget, else ``width``.

    The oracle raises when a *new* probe arrives with ``queries``
    already at the budget — before counting or answering it — so the
    raise slot is the first new-probe slot where the count of earlier
    new probes in this expansion has pushed ``queries`` to the limit.
    """
    if budget is None:
        return np.full(newp.shape[0], width, dtype=np.int64)
    cum_excl = np.cumsum(newp, axis=1) - newp
    hit = newp & (queries[:, None] + cum_excl >= budget)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), width)


def _block_rows(num_vertices: int, num_edges: int) -> int:
    # Per-row footprint across an engine's state arrays (probed mask,
    # tree/queue/parent arrays); same soft cap as kernels.bfs.
    per_row = max(1, 2 * (num_edges + 1) + 40 * (num_vertices + 1))
    return max(1, BLOCK_BYTES // per_row)


class _EngineBase:
    """Shared plumbing: blocking, result assembly, trivial pairs."""

    def __init__(self, router, index: EdgeIndex, budget: int | None) -> None:
        self._router = router
        self._index = index
        self._budget = budget

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
        src = np.asarray(sources, dtype=np.int64)
        tgt = np.asarray(targets, dtype=np.int64)
        rows = masks.shape[0]
        if src.shape != (rows,) or tgt.shape != (rows,):
            raise ValueError("sources/targets must carry one code per row")
        trivial = src == tgt
        if not trivial.any():
            return self._route_blocked(masks, src, tgt)
        out: list[RoutingResult | None] = [None] * rows
        for row in np.nonzero(trivial)[0].tolist():
            code = int(src[row])
            out[row] = self._success(0, [code], code, code)
        keep = np.nonzero(~trivial)[0]
        if keep.size:
            routed = self._route_blocked(masks[keep], src[keep], tgt[keep])
            for row, result in zip(keep.tolist(), routed):
                out[row] = result
        return out  # type: ignore[return-value]

    def _route_blocked(
        self, masks: np.ndarray, src: np.ndarray, tgt: np.ndarray
    ) -> list[RoutingResult]:
        rows = masks.shape[0]
        out: list[RoutingResult] = []
        block = _block_rows(self._index.num_vertices, self._index.num_edges)
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            out.extend(
                self._route_block(masks[lo:hi], src[lo:hi], tgt[lo:hi])
            )
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

    def _mask_ext(self, masks: np.ndarray) -> np.ndarray:
        # One sentinel edge column (always closed) absorbs padded-slot
        # gathers without branching.
        rows, num_edges = masks.shape
        out = np.zeros((rows, num_edges + 1), dtype=bool)
        out[:, :num_edges] = masks
        return out


class _LocalBFSEngine(_EngineBase):
    """Lockstep replay of :class:`~repro.routers.bfs.LocalBFSRouter`.

    Per trial and sweep: pop the FIFO head, probe every neighbour in
    order (already-probed edges answer from the memo for free), adopt
    open edges to undiscovered vertices, stop inclusively on target
    discovery or exclusively on the budget raise.
    """

    def _route_block(
        self, masks: np.ndarray, src: np.ndarray, tgt: np.ndarray
    ) -> list[RoutingResult]:
        index = self._index
        num_vertices, num_edges = index.num_vertices, index.num_edges
        budget = self._budget
        rows = masks.shape[0]
        inc_nbr, inc_eid, inc_valid = routing_incidence(index)
        width = inc_nbr.shape[1]
        slots = np.arange(width, dtype=np.int64)
        mask_ext = self._mask_ext(masks)
        probed = np.zeros((rows, num_edges + 1), dtype=bool)
        intree = np.zeros((rows, num_vertices + 1), dtype=bool)
        rowids = np.arange(rows, dtype=np.int64)
        intree[rowids, src] = True
        parent = np.full((rows, num_vertices + 1), -1, dtype=np.int64)
        queue = np.zeros((rows, max(1, num_vertices)), dtype=np.int64)
        queue[:, 0] = src
        head = np.zeros(rows, dtype=np.int64)
        tail = np.ones(rows, dtype=np.int64)
        queries = np.zeros(rows, dtype=np.int64)
        status = np.zeros(rows, dtype=np.int8)
        act = rowids
        while act.size:
            empty = head[act] >= tail[act]
            if empty.any():
                status[act[empty]] = _FAIL
                act = act[~empty]
                if not act.size:
                    break
            x = queue[act, head[act]]
            head[act] += 1
            nbr = inc_nbr[x]
            eid = inc_eid[x]
            arow = act[:, None]
            open_ = mask_ext[arow, eid]
            newp = inc_valid[x] & ~probed[arow, eid]
            jraise = _budget_raise_slot(newp, queries[act], budget, width)
            add = open_ & ~intree[arow, nbr]
            disc = add & (nbr == tgt[act][:, None])
            any_disc = disc.any(axis=1)
            jdisc = np.where(any_disc, disc.argmax(axis=1), width)
            raised = (jraise < width) & (jraise <= jdisc)
            jstop = np.where(raised, jraise, np.minimum(jdisc + 1, width))
            live = slots[None, :] < jstop[:, None]
            pexec = newp & live
            probed[arow, eid] |= pexec
            queries[act] += pexec.sum(axis=1)
            addeff = add & live
            intree[arow, nbr] |= addeff
            r, c = np.nonzero(addeff)
            parent[act[r], nbr[r, c]] = x[r]
            enq = addeff & (nbr != tgt[act][:, None])
            pos = tail[act, None] + np.cumsum(enq, axis=1) - enq
            r, c = np.nonzero(enq)
            queue[act[r], pos[r, c]] = nbr[r, c]
            tail[act] += enq.sum(axis=1)
            won = ~raised & any_disc
            status[act[raised]] = _BUDGET
            status[act[won]] = _SUCCESS
            act = act[~(raised | won)]
        out = []
        for row in range(rows):
            q = int(queries[row])
            s, t = int(src[row]), int(tgt[row])
            if status[row] == _SUCCESS:
                out.append(self._success(q, _chain(parent[row], t), s, t))
            else:
                out.append(self._failure(q, status[row] == _BUDGET, s, t))
        return out


class _BidirectionalEngine(_EngineBase):
    """Lockstep replay of ``BidirectionalBFSRouter``.

    Each sweep expands one vertex from the smaller live frontier (ties
    to the source side), probing every neighbour in order; open edges
    join the expanding tree first, then meet-detection against the
    other tree stops the row inclusively.
    """

    def _route_block(
        self, masks: np.ndarray, src: np.ndarray, tgt: np.ndarray
    ) -> list[RoutingResult]:
        index = self._index
        num_vertices, num_edges = index.num_vertices, index.num_edges
        budget = self._budget
        rows = masks.shape[0]
        inc_nbr, inc_eid, inc_valid = routing_incidence(index)
        width = inc_nbr.shape[1]
        slots = np.arange(width, dtype=np.int64)
        mask_ext = self._mask_ext(masks)
        probed = np.zeros((rows, num_edges + 1), dtype=bool)
        shape_v = (rows, num_vertices + 1)
        rowids = np.arange(rows, dtype=np.int64)
        intree = [np.zeros(shape_v, dtype=bool) for _ in range(2)]
        parent = [np.full(shape_v, -1, dtype=np.int64) for _ in range(2)]
        queue = [
            np.zeros((rows, max(1, num_vertices)), dtype=np.int64)
            for _ in range(2)
        ]
        head = [np.zeros(rows, dtype=np.int64) for _ in range(2)]
        tail = [np.ones(rows, dtype=np.int64) for _ in range(2)]
        for side, root in ((0, src), (1, tgt)):
            intree[side][rowids, root] = True
            queue[side][:, 0] = root
        queries = np.zeros(rows, dtype=np.int64)
        status = np.zeros(rows, dtype=np.int8)
        meet_at = np.full(rows, -1, dtype=np.int64)
        act = np.arange(rows, dtype=np.int64)
        while act.size:
            len_s = tail[0][act] - head[0][act]
            len_t = tail[1][act] - head[1][act]
            dead = (len_s == 0) | (len_t == 0)
            if dead.any():
                status[act[dead]] = _FAIL
                act = act[~dead]
                len_s = len_s[~dead]
                len_t = len_t[~dead]
                if not act.size:
                    break
            side_s = len_s <= len_t
            x = np.where(
                side_s,
                queue[0][act, head[0][act]],
                queue[1][act, head[1][act]],
            )
            head[0][act] += side_s
            head[1][act] += ~side_s
            nbr = inc_nbr[x]
            eid = inc_eid[x]
            arow = act[:, None]
            open_ = mask_ext[arow, eid]
            newp = inc_valid[x] & ~probed[arow, eid]
            jraise = _budget_raise_slot(newp, queries[act], budget, width)
            in_s = intree[0][arow, nbr]
            in_t = intree[1][arow, nbr]
            own_side = side_s[:, None]
            in_own = np.where(own_side, in_s, in_t)
            in_other = np.where(own_side, in_t, in_s)
            add = open_ & ~in_own
            meet = open_ & in_other
            any_meet = meet.any(axis=1)
            jmeet = np.where(any_meet, meet.argmax(axis=1), width)
            raised = (jraise < width) & (jraise <= jmeet)
            jstop = np.where(raised, jraise, np.minimum(jmeet + 1, width))
            live = slots[None, :] < jstop[:, None]
            pexec = newp & live
            probed[arow, eid] |= pexec
            queries[act] += pexec.sum(axis=1)
            addeff = add & live
            for side in range(2):
                on_side = side_s if side == 0 else ~side_s
                sub = addeff & on_side[:, None]
                intree[side][arow, nbr] |= sub
                r, c = np.nonzero(sub)
                parent[side][act[r], nbr[r, c]] = x[r]
                pos = tail[side][act, None] + np.cumsum(sub, axis=1) - sub
                queue[side][act[r], pos[r, c]] = nbr[r, c]
                tail[side][act] += sub.sum(axis=1)
            met = ~raised & any_meet
            if met.any():
                rows_met = np.nonzero(met)[0]
                meet_at[act[rows_met]] = nbr[rows_met, jmeet[rows_met]]
                status[act[rows_met]] = _SUCCESS
            status[act[raised]] = _BUDGET
            act = act[~(raised | met)]
        out = []
        for row in range(rows):
            q = int(queries[row])
            s, t = int(src[row]), int(tgt[row])
            if status[row] == _SUCCESS:
                left = _chain(parent[0][row], int(meet_at[row]))
                right = _chain(parent[1][row], int(meet_at[row]))
                right.reverse()
                out.append(self._success(q, left + right[1:], s, t))
            else:
                out.append(self._failure(q, status[row] == _BUDGET, s, t))
        return out


class _WaypointEngine(_EngineBase):
    """Lockstep replay of the ``WaypointRouter`` BFS legs.

    Segment state is versioned (a per-row stamp) instead of cleared;
    the layered depth counter advances exactly when the FIFO head
    crosses the recorded layer boundary, and the radius cap is checked
    after the increment, before the layer is probed — the per-trial
    order.  Segment backtracking and path stitching stay per-trial
    Python on the (short) discovered segments.

    Waypoint positions are per *pair*: the engine builds each distinct
    pair's vector on first use (cached for the engine's lifetime, so a
    probe-pair workload builds its one vector once) and stacks them
    into a per-row matrix — a zero-copy broadcast when a block shares
    one pair.
    """

    def __init__(self, router, index: EdgeIndex, budget: int | None) -> None:
        super().__init__(router, index, budget)
        self._wp_cache: dict[tuple[int, int], np.ndarray] = {}

    def _wp_vector(self, src: int, tgt: int) -> np.ndarray:
        """The waypoint-position vector of one pair, built on demand.

        Raises :class:`PairRoutingUnsupported` when the base graph has
        no geodesic for the pair — the per-trial router would raise the
        same condition on every trial, so the caller's per-trial
        fallback reproduces it with per-spec attribution.
        """
        key = (src, tgt)
        vec = self._wp_cache.get(key)
        if vec is not None:
            return vec
        index = self._index
        verts = index.verts
        try:
            waypoints = index.graph.shortest_path(verts[src], verts[tgt])
        except Exception as exc:
            raise PairRoutingUnsupported(
                f"no geodesic for pair ({verts[src]!r}, {verts[tgt]!r})"
            ) from exc
        vec = np.full(index.num_vertices + 1, -1, dtype=np.int64)
        for j, w in enumerate(waypoints):
            code = index.code.get(w)
            if code is None:  # pragma: no cover - defensive
                raise PairRoutingUnsupported(
                    f"waypoint {w!r} is not an indexed vertex"
                )
            vec[code] = j
        self._wp_cache[key] = vec
        return vec

    def _wp_matrix(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        rows = src.shape[0]
        vec0 = self._wp_vector(int(src[0]), int(tgt[0]))
        if bool((src == src[0]).all()) and bool((tgt == tgt[0]).all()):
            # One shared pair (a probe-pair workload): a broadcast
            # view, no per-row copy.
            return np.broadcast_to(vec0, (rows, vec0.shape[0]))
        return np.stack(
            [
                self._wp_vector(int(s), int(t))
                for s, t in zip(src.tolist(), tgt.tolist())
            ]
        )

    def _route_block(
        self, masks: np.ndarray, src: np.ndarray, tgt: np.ndarray
    ) -> list[RoutingResult]:
        index = self._index
        num_vertices, num_edges = index.num_vertices, index.num_edges
        budget = self._budget
        cap = self._router.max_radius
        rows = masks.shape[0]
        wp_mat = self._wp_matrix(src, tgt)
        inc_nbr, inc_eid, inc_valid = routing_incidence(index)
        width = inc_nbr.shape[1]
        slots = np.arange(width, dtype=np.int64)
        mask_ext = self._mask_ext(masks)
        probed = np.zeros((rows, num_edges + 1), dtype=bool)
        stamp = np.zeros((rows, num_vertices + 1), dtype=np.int64)
        seg = np.ones(rows, dtype=np.int64)
        rowids = np.arange(rows, dtype=np.int64)
        stamp[rowids, src] = 1
        parent = np.full((rows, num_vertices + 1), -1, dtype=np.int64)
        queue = np.zeros((rows, max(1, num_vertices)), dtype=np.int64)
        queue[:, 0] = src
        head = np.zeros(rows, dtype=np.int64)
        tail = np.ones(rows, dtype=np.int64)
        depth = np.zeros(rows, dtype=np.int64)
        layer_end = np.zeros(rows, dtype=np.int64)
        position = np.zeros(rows, dtype=np.int64)
        queries = np.zeros(rows, dtype=np.int64)
        status = np.zeros(rows, dtype=np.int8)
        pathbuf: list[list[int]] = [[int(s)] for s in src]
        act = rowids
        while act.size:
            empty = head[act] >= tail[act]
            if empty.any():
                status[act[empty]] = _FAIL
                act = act[~empty]
                if not act.size:
                    break
            newlayer = head[act] == layer_end[act]
            if newlayer.any():
                depth[act[newlayer]] += 1
                if cap is not None:
                    over = newlayer & (depth[act] > cap)
                    if over.any():
                        status[act[over]] = _FAIL
                        act = act[~over]
                        newlayer = newlayer[~over]
                        if not act.size:
                            break
                layer_end[act[newlayer]] = tail[act[newlayer]]
            x = queue[act, head[act]]
            head[act] += 1
            nbr = inc_nbr[x]
            eid = inc_eid[x]
            arow = act[:, None]
            fresh = inc_valid[x] & (stamp[arow, nbr] != seg[act, None])
            newp = fresh & ~probed[arow, eid]
            jraise = _budget_raise_slot(newp, queries[act], budget, width)
            open_f = fresh & mask_ext[arow, eid]
            disc = open_f & (wp_mat[arow, nbr] > position[act, None])
            any_disc = disc.any(axis=1)
            jdisc = np.where(any_disc, disc.argmax(axis=1), width)
            raised = (jraise < width) & (jraise <= jdisc)
            jstop = np.where(raised, jraise, np.minimum(jdisc + 1, width))
            live = slots[None, :] < jstop[:, None]
            pexec = newp & live
            probed[arow, eid] |= pexec
            queries[act] += pexec.sum(axis=1)
            addv = open_f & live
            r, c = np.nonzero(addv)
            stamp[act[r], nbr[r, c]] = seg[act[r]]
            parent[act[r], nbr[r, c]] = x[r]
            eff_disc = ~raised & any_disc
            enq = addv.copy()
            enq[eff_disc, jdisc[eff_disc]] = False
            pos = tail[act, None] + np.cumsum(enq, axis=1) - enq
            r, c = np.nonzero(enq)
            queue[act[r], pos[r, c]] = nbr[r, c]
            tail[act] += enq.sum(axis=1)
            status[act[raised]] = _BUDGET
            if eff_disc.any():
                for a in np.nonzero(eff_disc)[0]:
                    row = int(act[a])
                    y = int(nbr[a, jdisc[a]])
                    segment = _chain(parent[row], y)
                    pathbuf[row].extend(segment[1:])
                    position[row] = wp_mat[row, y]
                    if y == int(tgt[row]):
                        status[row] = _SUCCESS
                    else:
                        seg[row] += 1
                        queue[row, 0] = y
                        head[row] = 0
                        tail[row] = 1
                        stamp[row, y] = seg[row]
                        parent[row, y] = -1
                        depth[row] = 0
                        layer_end[row] = 0
            act = act[status[act] == _ACTIVE]
        out = []
        for row in range(rows):
            q = int(queries[row])
            s, t = int(src[row]), int(tgt[row])
            if status[row] == _SUCCESS:
                out.append(self._success(q, pathbuf[row], s, t))
            else:
                out.append(self._failure(q, status[row] == _BUDGET, s, t))
        return out


def _chain(parent_row: np.ndarray, code: int) -> list[int]:
    """Backtrack a parent array to the root (parent ``-1``), reversed."""
    out = [code]
    p = int(parent_row[code])
    while p != -1:
        out.append(p)
        p = int(parent_row[p])
    out.reverse()
    return out


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
