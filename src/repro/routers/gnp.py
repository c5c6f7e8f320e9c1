"""Routers for the faulty complete graph ``G(n, p)`` (Section 5).

* :class:`GnpLocalRouter` — the natural local strategy whose analysis is
  Theorem 10's proof sketch: every newly reached vertex first probes its
  edge to the target; growth otherwise probes edges from the reached set
  to fresh vertices round-robin.  Each probe opens with probability
  ``c/n``, each reached vertex hits the target with probability ``c/n``,
  so the expected complexity is ``Θ(n²)`` — and Theorem 10 says no local
  algorithm can beat that order.
* :class:`GnpBidirectionalRouter` — Theorem 11's oracle algorithm:
  grow ``U_t`` (from ``u``) and ``V_t`` (from ``v``) one vertex at a
  time, always first probing unprobed ``U×V`` pairs.  A connection
  appears by the birthday paradox once ``|U| ≈ |V| ≈ √n``, giving
  ``Θ(n^{3/2})`` probes — better than any local router by exactly √n.
* :class:`GnpUnidirectionalRouter` — ablation A3: the same code as the
  local strategy but run in the *oracle* model.  Its complexity stays
  ``Θ(n²)``: the win of Theorem 11 comes from bidirectional growth, not
  from oracle access per se.

On a draw that is exactly a :class:`~repro.percolation.models.GnpPercolation`
(and a budget of at least one probe), the three router classes — by
exact type, as :func:`~repro.kernels.routing.register_router_kernel`
matches them — skip the oracle: a *lean replay* makes the identical
probe sequence over the draw's ``open_neighbors`` sets, marking
reached vertices in a ``bytearray`` and counting probes in an integer
instead of one :class:`~repro.core.probe.ProbeOracle` call and one memo
entry per probe.  Every other model, subclass or budget takes the
oracle-driven ``_route``, which stays the reference: ``Router.route``
called on these routers runs it for any draw, and the replay's result
must equal it repr for repr.  Both finish through
``Router._outcome`` (failure classification, loop erasure, path
validation).
"""

from __future__ import annotations

from collections import deque

from repro.core.probe import ProbeOracle
from repro.core.result import RoutingResult
from repro.core.router import Router
from repro.graphs.base import Vertex
from repro.percolation.models import GnpPercolation, PercolationModel

__all__ = [
    "GnpBidirectionalRouter",
    "GnpLocalRouter",
    "GnpUnidirectionalRouter",
]


def _backtrack(parent: dict, v: Vertex) -> list[Vertex]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class _TargetFirstGrowth:
    """Shared engine: grow a reached set, target-edge first per vertex.

    ``grow_step`` probes one edge; the caller loops until success or
    exhaustion.  Kept separate from the Router classes so the local and
    oracle variants are *identical* code, probing through different
    oracles — that is the point of ablation A3.
    """

    def __init__(self, oracle: ProbeOracle, source: Vertex, target: Vertex):
        self.oracle = oracle
        self.target = target
        self.n = oracle.graph.num_vertices()
        self.parent: dict[Vertex, Vertex | None] = {source: None}
        self.pending_target_probe: deque[Vertex] = deque([source])
        # Round-robin growth state: (reached vertex, next candidate id).
        self.growth: deque[list] = deque([[source, 0]])

    def found(self) -> list[Vertex] | None:
        """Probe target edges of any newly reached vertices."""
        while self.pending_target_probe:
            x = self.pending_target_probe.popleft()
            if x == self.target:
                return _backtrack(self.parent, x)
            if self.oracle.probe(x, self.target):
                self.parent[self.target] = x
                return _backtrack(self.parent, self.target)
        return None

    def grow_step(self) -> bool:
        """Probe one growth edge; return False when fully exhausted."""
        while self.growth:
            slot = self.growth[0]
            x, candidate = slot
            # advance past vertices already reached or already probed
            while candidate < self.n:
                y = candidate
                candidate += 1
                if y == x or y == self.target or y in self.parent:
                    continue
                if self.oracle.known_state(x, y) is not None:
                    continue
                slot[1] = candidate
                if self.oracle.probe(x, y):
                    self.parent[y] = x
                    self.pending_target_probe.append(y)
                    self.growth.append([y, 0])
                # rotate for round-robin fairness
                self.growth.rotate(-1)
                return True
            self.growth.popleft()  # x has no candidates left
        return False


def _replay_target_first(
    model: GnpPercolation,
    source: Vertex,
    target: Vertex,
    budget: int | None,
) -> tuple[list[Vertex] | None, int, bool]:
    """Replay :class:`_TargetFirstGrowth` without an oracle.

    Returns ``(path, queries, censored)`` for ``Router._outcome``.
    Invariant: a growth probe never hits an already-probed edge, so the
    oracle's memo check is dropped.  Growth probes ``(x, y)`` with ``x``
    reached and ``y`` unreached and not the target; target probes are
    the only probes touching the target, one per reached vertex.  An
    earlier ``(x, y)`` probe would have come from ``x``'s own slot (its
    scan pointer only moves forward) or from ``y``'s (``y`` would be
    reached — the reached set only grows).  Every probe touches a
    reached vertex, so the local oracle's locality rule never fires.
    """
    if source == target:
        return [source], 0, False
    n = model.n
    limit = n * n if budget is None else budget  # > every probe count
    # taken[y]: y is no growth candidate — reached, or the target.  The
    # extra byte at n stays 0, so a scan stops there without a bound test.
    taken = bytearray(n + 1)
    taken[source] = taken[target] = 1
    parent: dict[Vertex, Vertex | None] = {source: None}
    ptr = [0] * n  # each slot's next growth candidate
    opens: list[set | None] = [None] * n
    opens[source] = set(model.open_neighbors(source))
    queries = 1  # the source's target probe; budget >= 1
    if target in opens[source]:
        return [source, target], queries, False
    # The reference's deque, one pass at a time: the front slot probes
    # and rotates to the back, so slots take turns in ring order.  A
    # slot whose probe opens is followed by the new vertex's slot (it
    # was appended just before the rotation), i.e. the new slot's first
    # turn comes right before its finder's next one.  An exhausted slot
    # drops out.
    ring = [source]
    while ring:
        order = []
        for x in ring:
            y = ptr[x]
            while taken[y]:
                y += 1
            if y == n:
                continue  # x has no candidates left
            if queries == limit:
                return None, queries, True
            queries += 1
            ptr[x] = y + 1
            if y in opens[x]:
                parent[y] = x
                taken[y] = 1
                # Target first: y probes its target edge before any
                # growth.
                if queries == limit:
                    return None, queries, True
                queries += 1
                near = opens[y] = set(model.open_neighbors(y))
                if target in near:
                    parent[target] = y
                    return _backtrack(parent, target), queries, False
                order.append(y)
            order.append(x)
        ring = order
    return None, queries, False


def _replay_bidirectional(
    model: GnpPercolation,
    source: Vertex,
    target: Vertex,
    budget: int | None,
) -> tuple[list[Vertex] | None, int, bool]:
    """Replay :meth:`GnpBidirectionalRouter._route` without an oracle.

    Returns ``(path, queries, censored)`` for ``Router._outcome``.
    Invariants that stand in for the oracle's memo:

    * a growth probe ``(x, y)`` — ``x`` on a side, ``y`` on neither —
      never hits an already-probed edge (``x``'s scan pointer only
      moves forward; ``y`` has no slot and is in no cross pair);
    * when ``y`` joins a side, its cross pair ``(y, z)`` is already
      probed iff ``z``'s scan pointer has passed ``y``: ``y`` was
      fresh until now, so the only earlier probe of the pair is ``z``'s
      growth probe.  An exhausted slot counts as passed (``ptr`` is set
      to ``n``): it scanned every vertex, and each one then fresh was
      probed;
    * cross pairs are drained before the next growth probe, so one
      join's pairs are probed back to back, in the other side's join
      order (its parent dict's insertion order).

    One growth probe per loop turn of the reference goes to the smaller
    side; sizes change only on a join, so this replay keeps growing one
    side until it joins a vertex or runs out of slots, then re-picks.
    """
    if source == target:
        return [source], 0, False
    n = model.n
    limit = n * n if budget is None else budget  # > every probe count
    opens: list[set | None] = [None] * n
    opens[source] = set(model.open_neighbors(source))
    queries = 1  # the direct (source, target) probe; budget >= 1
    if target in opens[source]:
        return [source, target], queries, False
    opens[target] = set(model.open_neighbors(target))
    taken = bytearray(n + 1)  # on either side; byte n stops each scan
    taken[source] = taken[target] = 1
    ptr = [0] * n  # per-vertex scan pointer; n once the slot is exhausted
    parent_u: dict[Vertex, Vertex | None] = {source: None}
    parent_v: dict[Vertex, Vertex | None] = {target: None}
    side_u = (parent_u, parent_v, deque([source]))
    side_v = (parent_v, parent_u, deque([target]))
    while True:
        smaller_first = (
            (side_u, side_v)
            if len(parent_u) <= len(parent_v)
            else (side_v, side_u)
        )
        for own, other, ring in smaller_first:
            while ring:
                x = ring[0]
                y = ptr[x]
                while taken[y]:
                    y += 1
                if y == n:
                    ptr[x] = n
                    ring.popleft()
                    continue
                if queries == limit:
                    return None, queries, True
                queries += 1
                ptr[x] = y + 1
                ring.rotate(-1)
                if y in opens[x]:
                    break
            else:
                continue  # this side is exhausted; grow the other one
            own[y] = x
            taken[y] = 1
            ring.appendleft(y)  # the new slot probes next on its side
            near = opens[y] = set(model.open_neighbors(y))
            for z in other:
                if ptr[z] > y:
                    continue  # z's growth probe already covered (z, y)
                if queries == limit:
                    return None, queries, True
                queries += 1
                if z in near:
                    pair = (y, z) if own is parent_u else (z, y)
                    path = GnpBidirectionalRouter._join(
                        parent_u, parent_v, *pair
                    )
                    return path, queries, False
            break  # sizes changed: re-pick the smaller side
        else:
            return None, queries, False  # both sides exhausted


def _route_replayed(
    router: Router,
    replay,
    model: PercolationModel,
    source: Vertex,
    target: Vertex,
    budget: int | None,
) -> RoutingResult:
    """Route through ``replay`` on an exact ``GnpPercolation`` draw.

    Any other model, and ``budget < 1``, goes to the reference
    ``Router.route``, so vertex validation and the oracle's
    ``ValueError`` behave exactly as there (vertices are checked
    first, then the budget).
    """
    if type(model) is not GnpPercolation or (
        budget is not None and budget < 1
    ):
        return Router.route(router, model, source, target, budget)
    model.graph._require_vertex(source)
    model.graph._require_vertex(target)
    path, queries, censored = replay(model, source, target, budget)
    return router._outcome(model, source, target, path, queries, censored)


class GnpLocalRouter(Router):
    """Theorem 10's natural local algorithm (Θ(n²) expected probes)."""

    name = "gnp-local"
    is_local = True
    is_complete = True

    def route(
        self,
        model: PercolationModel,
        source: Vertex,
        target: Vertex,
        budget: int | None = None,
    ) -> RoutingResult:
        if type(self) in (GnpLocalRouter, GnpUnidirectionalRouter):
            return _route_replayed(
                self, _replay_target_first, model, source, target, budget
            )
        return super().route(model, source, target, budget)

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        engine = _TargetFirstGrowth(oracle, source, target)
        while True:
            path = engine.found()
            if path is not None:
                return path
            if not engine.grow_step():
                return None


class GnpUnidirectionalRouter(GnpLocalRouter):
    """Ablation A3: the identical strategy with oracle-model access."""

    name = "gnp-unidirectional-oracle"
    is_local = False


class GnpBidirectionalRouter(Router):
    """Theorem 11's bidirectional oracle router (Θ(n^{3/2}) probes).

    Invariants per loop iteration:

    1. If any ``U×V`` pair is unprobed, probe one (success joins the
       trees).
    2. Otherwise grow the smaller side by probing edges to fresh
       vertices until it gains one vertex (new cross pairs appear).
    3. If neither is possible, the component of ``u`` has been fully
       probed — certify failure.
    """

    name = "gnp-bidirectional"
    is_local = False
    is_complete = True

    def route(
        self,
        model: PercolationModel,
        source: Vertex,
        target: Vertex,
        budget: int | None = None,
    ) -> RoutingResult:
        if type(self) is GnpBidirectionalRouter:
            return _route_replayed(
                self, _replay_bidirectional, model, source, target, budget
            )
        return super().route(model, source, target, budget)

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        if oracle.probe(source, target):
            return [source, target]
        n = oracle.graph.num_vertices()
        parent_u: dict[Vertex, Vertex | None] = {source: None}
        parent_v: dict[Vertex, Vertex | None] = {target: None}
        cross: deque[tuple[Vertex, Vertex]] = deque()
        growth_u: deque[list] = deque([[source, 0]])
        growth_v: deque[list] = deque([[target, 0]])

        while True:
            # (1) drain unprobed cross pairs
            joined = self._drain_cross(oracle, cross, parent_u, parent_v)
            if joined is not None:
                return self._join(parent_u, parent_v, *joined)
            # (2) grow the smaller side
            if len(parent_u) <= len(parent_v):
                grew = self._grow(
                    oracle, n, parent_u, parent_v, growth_u, cross, False
                )
            else:
                grew = self._grow(
                    oracle, n, parent_v, parent_u, growth_v, cross, True
                )
            if grew:
                continue
            # smaller side stuck: try the other side before giving up
            if len(parent_u) <= len(parent_v):
                grew = self._grow(
                    oracle, n, parent_v, parent_u, growth_v, cross, True
                )
            else:
                grew = self._grow(
                    oracle, n, parent_u, parent_v, growth_u, cross, False
                )
            if not grew and not cross:
                return None

    @staticmethod
    def _drain_cross(
        oracle: ProbeOracle,
        cross: deque,
        parent_u: dict,
        parent_v: dict,
    ) -> tuple[Vertex, Vertex] | None:
        while cross:
            x, y = cross.popleft()
            # membership may have changed sides via growth; skip stale pairs
            if x not in parent_u or y not in parent_v:
                continue
            if oracle.known_state(x, y) is not None:
                continue
            if oracle.probe(x, y):
                return x, y
        return None

    @staticmethod
    def _grow(
        oracle: ProbeOracle,
        n: int,
        own: dict,
        other: dict,
        growth: deque,
        cross: deque,
        own_is_target_side: bool,
    ) -> bool:
        """Probe growth edges until ``own`` gains one vertex (or stuck)."""
        while growth:
            slot = growth[0]
            x, candidate = slot
            while candidate < n:
                y = candidate
                candidate += 1
                if y == x or y in own or y in other:
                    continue
                if oracle.known_state(x, y) is not None:
                    continue
                slot[1] = candidate
                growth.rotate(-1)
                if oracle.probe(x, y):
                    own[y] = x
                    growth.appendleft([y, 0])
                    for z in other:
                        pair = (y, z) if not own_is_target_side else (z, y)
                        cross.append(pair)
                    return True
                return True  # probed one growth edge (closed); keep looping
            growth.popleft()
        return False

    @staticmethod
    def _join(
        parent_u: dict, parent_v: dict, x: Vertex, y: Vertex
    ) -> list[Vertex]:
        left = _backtrack(parent_u, x)  # source … x
        right = _backtrack(parent_v, y)  # target … y
        right.reverse()  # y … target
        return left + right
