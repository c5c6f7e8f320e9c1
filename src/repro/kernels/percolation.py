"""Chunk draws: every trial of a chunk drawn at once, row by row.

A chunk of trials shares one topology; what varies per trial is the
seed.  A *chunk draw* holds the whole chunk's randomness — one row per
trial, each row reproducing the per-trial model seeded alike **bit for
bit** — and each percolation model builds its own through
:meth:`~repro.percolation.models.PercolationModel.chunk_draw` from the
pieces here:

* :func:`table_edge_masks` replays :class:`~repro.percolation.models.
  TablePercolation`'s recipe — one ``default_rng(derive_seed(seed,
  "table-percolation"))`` stream per row, thresholded at ``p`` — over
  edges in :class:`~repro.kernels.topology.EdgeIndex` order, which *is*
  ``graph.edges()`` order;
* :func:`edge_coin_masks` flips the keyed-BLAKE2b ``"edge"`` coins the
  structured fault models draw their background from, over
  ``index.level_keys``, hashing only the edges still alive;
* :class:`LazySiteDraw` flips per-vertex ``"site"`` coins on demand:
  the chunk's connectivity BFS asks for exactly the coins its
  frontiers touch (a dying subcritical cluster demands a handful per
  trial, not the whole vertex set), and only the rows that go on to
  route pay for a full row fill;
* :class:`OutageDraw` draws correlated outages: epicenter and radius
  coins as vectors, every ball grown by one bounded multi-source BFS.

Every coin goes through :func:`~repro.util.rng.uniforms_for`, so a
coin is the same pure function of ``(seed, key)`` whichever row, stage
or order demands it — laziness is invisible in the records.

:class:`MaskEdgePercolation` wraps one row back into the
:class:`~repro.percolation.models.PercolationModel` interface, so the
routers (which only ever see ``is_open``/``open_neighbors`` answers)
cannot distinguish it from the model it replaces — the parity tests in
``tests/kernels/`` and ``tests/percolation/`` assert exactly that.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.base import Vertex
from repro.kernels.bfs import block_rows
from repro.kernels.topology import EdgeIndex
from repro.percolation.models import PercolationModel
from repro.percolation.site import SitePercolation
from repro.util.rng import derive_seed, uniforms_for

__all__ = [
    "LazySiteDraw",
    "MaskDraw",
    "MaskEdgePercolation",
    "OutageDraw",
    "edge_coin_masks",
    "table_edge_masks",
]


def table_edge_masks(
    p: float, seeds: Sequence[int], num_edges: int
) -> np.ndarray:
    """Draw every trial's edge mask; row ``i`` == trial ``seeds[i]``.

    Row-for-row identical to ``TablePercolation(graph, p, seed)``'s open
    set: same child-seed derivation, same generator, same threshold
    comparison — only the per-trial set/dict builds are gone.
    """
    out = np.empty((len(seeds), num_edges), dtype=bool)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(derive_seed(seed, "table-percolation"))
        out[i] = rng.random(num_edges) < p
    return out


def edge_coin_masks(
    index: EdgeIndex, p: float, seeds: Sequence[int], alive: np.ndarray
) -> np.ndarray:
    """Open edges: alive, and the ``"edge"`` coin under ``p``.

    Entry ``[i, e]`` is ``alive[i, e] and uniform_for(seeds[i], "edge",
    key_e) < p``; ``alive`` is one row per trial, or one row shared by
    all.  Dead edges stay closed without being hashed.
    """
    alive = np.broadcast_to(alive, (len(seeds), index.num_edges))
    out = np.zeros(alive.shape, dtype=bool)
    keys = index.level_keys
    for i, seed in enumerate(seeds):
        eids = np.flatnonzero(alive[i])
        coins = uniforms_for(seed, [keys[e] for e in eids.tolist()])
        out[i, eids] = coins < p
    return out


class MaskDraw:
    """A chunk draw served from one ``(trials, edges)`` open matrix."""

    def __init__(self, index: EdgeIndex, p: float, masks: np.ndarray):
        self.index = index
        self.p = p
        self._masks = masks

    def edge_masks(self) -> np.ndarray:
        return self._masks

    def model(self, i: int) -> MaskEdgePercolation:
        return MaskEdgePercolation(self.index, self.p, self.edge_masks()[i])


def _geometric_radii(u: np.ndarray, spread: float) -> np.ndarray:
    """Invert ``Pr[r >= j] = spread**j`` per uniform, float for float.

    The thresholds are the per-trial loop's running products
    ``spread, spread*spread, ...`` and they never increase, so ``r``
    counts the thresholds ``u`` lies under.  Monotone in ``spread``
    for a fixed uniform, so growing ``spread`` only ever grows a ball.
    """
    radius = np.zeros(u.size, dtype=np.int64)
    threshold = spread
    under = u < threshold
    while under.any():
        radius += under
        threshold *= spread
        under = u < threshold
    return radius


def _ball_union(
    index: EdgeIndex,
    trials: int,
    rows: np.ndarray,
    cols: np.ndarray,
    radius: np.ndarray,
) -> np.ndarray:
    """Per row, the union of the balls of radius ``radius[k]`` around
    vertex ``cols[k]`` — as one bounded multi-source BFS.

    Each vertex keeps the largest radius left over on reaching it
    (``-1``: unreached); a sweep relaxes it along every edge of the
    unpercolated graph, so after ``max(radius)`` sweeps — or the first
    that changes nothing — it is ``>= 0`` exactly on the union of the
    balls.
    """
    inc_nbr, _, inc_valid = index.incidence()
    num_vertices, width = inc_nbr.shape
    left = np.full((trials, num_vertices), -1, dtype=np.int32)
    left[rows, cols] = radius
    block = max(1, block_rows(num_vertices, width) // 4)
    for lo in range(0, trials, block):
        part = left[lo : lo + block]
        for _ in range(int(part.max(initial=0))):
            nearby = np.where(inc_valid, part[:, inc_nbr], -1).max(axis=2)
            grown = nearby - 1 > part
            if not grown.any():
                break
            part[grown] = nearby[grown] - 1
    return left >= 0


def _split_by_row(rows: np.ndarray, cols: np.ndarray, trials: int) -> list:
    """``cols`` grouped by ``rows`` (ascending), one list per row."""
    bounds = np.searchsorted(rows, np.arange(1, trials))
    return [part.tolist() for part in np.split(cols, bounds)]


class OutageDraw(MaskDraw):
    """Correlated outages for a chunk, one row per seed.

    Row ``i`` replays :class:`~repro.percolation.faults.
    CorrelatedFaultPercolation` under ``seeds[i]``: ``epicenters`` and
    ``dead`` are its ``(trials, vertices)`` epicenter and outage
    matrices, drawn at construction; the background edge coins are
    flipped on the first :meth:`edge_masks`, for surviving edges only.
    """

    def __init__(
        self,
        index: EdgeIndex,
        p: float,
        seeds: Sequence[int],
        epicenter_rate: float,
        spread: float,
        pinned_codes: Sequence[int] = (),
    ) -> None:
        super().__init__(index, p, None)
        self._seeds = list(seeds)
        trials = len(self._seeds)
        keys = index.vertex_keys("epicenter")
        self.epicenters = np.empty((trials, index.num_vertices), dtype=bool)
        for i, seed in enumerate(self._seeds):
            self.epicenters[i] = uniforms_for(seed, keys) < epicenter_rate
        rows, cols = np.nonzero(self.epicenters)
        radius = np.zeros(rows.size, dtype=np.int64)
        if spread > 0.0 and rows.size:
            # Only epicenters draw a radius coin, as in the per-trial
            # model.
            keys = index.vertex_keys("radius")
            u = np.concatenate(
                [
                    uniforms_for(seed, [keys[c] for c in mine])
                    for seed, mine in zip(
                        self._seeds, _split_by_row(rows, cols, trials)
                    )
                ]
            )
            radius = _geometric_radii(u, spread)
        self.dead = _ball_union(index, trials, rows, cols, radius)
        self.dead[:, list(pinned_codes)] = False

    def edge_masks(self) -> np.ndarray:
        if self._masks is None:
            up = ~self.dead
            alive = up[:, self.index.edge_u] & up[:, self.index.edge_v]
            self._masks = edge_coin_masks(
                self.index, self.p, self._seeds, alive
            )
        return self._masks


class LazySiteDraw:
    """One chunk's site coins, drawn in frontier-demanded blocks.

    Hashing every ``(trial, vertex)`` coin up front is a loss when the
    per-trial models would only have touched a dying cluster's fringe.
    This draw keeps an undrawn/drawn ledger per coin and materialises
    exactly what each stage demands:

    * :meth:`connected` runs the chunk-wide layered BFS, drawing the
      coins of each sweep's candidate vertices just before expanding
      into them (verdicts equal the per-trial cluster BFS — coin
      values are pure functions of ``(seed, vertex)``, and
      reachability is order-independent);
    * :meth:`edge_masks_for` / :meth:`model` fill whole rows, but only
      for the trials that actually go on to route.

    Edges are open iff both endpoints are up.  :meth:`model` serves
    row ``i`` as the :class:`~repro.percolation.site.SitePercolation`
    it replays (down to ``is_open`` on non-adjacent pairs), or with
    ``node_view=True`` as a :class:`MaskEdgePercolation` — the view
    :class:`~repro.percolation.faults.NodeFaultPercolation` draws.
    """

    def __init__(
        self,
        index: EdgeIndex,
        p: float,
        seeds: Sequence[int],
        pinned_codes: Sequence[int] = (),
        node_view: bool = False,
    ) -> None:
        self._index = index
        self._p = p
        self._seeds = list(seeds)
        self._pinned = [index.verts[c] for c in pinned_codes]
        self._node_view = node_view
        trials = len(self._seeds)
        num_vertices = index.num_vertices
        self._up = np.zeros((trials, num_vertices), dtype=bool)
        self._drawn = np.zeros((trials, num_vertices), dtype=bool)
        if pinned_codes:
            cols = list(pinned_codes)
            self._up[:, cols] = True
            self._drawn[:, cols] = True

    def _draw_pairs(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Flip the coins at ``(rows[k], cols[k])``; ``rows`` ascending."""
        keys = self._index.vertex_keys("site")
        for i, mine in enumerate(
            _split_by_row(rows, cols, len(self._seeds))
        ):
            if mine:
                coins = uniforms_for(self._seeds[i], [keys[j] for j in mine])
                self._up[i, mine] = coins < self._p
        self._drawn[rows, cols] = True

    def _fill_rows(self, rows: Sequence[int]) -> None:
        for i in rows:
            cols = np.nonzero(~self._drawn[i])[0]
            if cols.size:
                self._draw_pairs(
                    np.full(cols.size, i, dtype=np.int64), cols
                )

    def connected(
        self, source_code: int, target_code: int
    ) -> np.ndarray:
        """Per-row cluster verdicts, demanding only frontier coins."""
        trials = len(self._seeds)
        out = np.zeros(trials, dtype=bool)
        if source_code == target_code:
            out[:] = True
            return out
        index = self._index
        inc_nbr, inc_eid, inc_valid = index.incidence()
        num_vertices, width = inc_nbr.shape
        # The per-trial BFS opens with open_neighbors(source), which
        # needs the source coin first: a down source never expands.
        undrawn = np.nonzero(~self._drawn[:, source_code])[0]
        if undrawn.size:
            self._draw_pairs(
                undrawn, np.full(undrawn.size, source_code, dtype=np.int64)
            )
        block = block_rows(num_vertices, width)
        for lo in range(0, trials, block):
            hi = min(lo + block, trials)
            rows = np.arange(lo, hi, dtype=np.int64)
            live = self._up[lo:hi, source_code]
            rows = rows[live]
            if not rows.size:
                continue
            reached = np.zeros((rows.size, num_vertices), dtype=bool)
            reached[:, source_code] = True
            frontier = reached.copy()
            while rows.size:
                # Sweep only the columns adjacent to some row's
                # frontier: a dying subcritical cluster touches a
                # handful of vertices, so a whole-graph gather per
                # sweep would swamp the coins it saves.
                fcols = np.nonzero(frontier.any(axis=0))[0]
                seen = np.zeros(num_vertices, dtype=bool)
                seen[inc_nbr[fcols][inc_valid[fcols]]] = True
                cand_cols = np.nonzero(seen)[0]
                sub_nbr = inc_nbr[cand_cols]
                # A candidate has a frontier neighbour; every reached
                # vertex is up (the source was checked above), so the
                # candidate joins iff its own coin is up.
                cand = (
                    inc_valid[cand_cols] & frontier[:, sub_nbr]
                ).any(axis=2)
                cand &= ~reached[:, cand_cols]
                need = cand & ~self._drawn[np.ix_(rows, cand_cols)]
                if need.any():
                    r, c = np.nonzero(need)
                    self._draw_pairs(rows[r], cand_cols[c])
                new = cand & self._up[np.ix_(rows, cand_cols)]
                frontier[:] = False
                frontier[:, cand_cols] = new
                reached[:, cand_cols] |= new
                hit = reached[:, target_code]
                active = ~hit & new.any(axis=1)
                settled = ~active
                if settled.any():
                    out[rows[settled]] = hit[settled]
                    frontier[settled] = False
                    if not active.any():
                        break
                    if int(active.sum()) <= rows.size // 2:
                        reached = reached[active]
                        frontier = frontier[active]
                        rows = rows[active]
        return out

    def up_masks(self) -> np.ndarray:
        """The fully-drawn ``(trials, vertices)`` up matrix."""
        self._fill_rows(range(len(self._seeds)))
        return self._up

    def edge_masks(self) -> np.ndarray:
        up = self.up_masks()
        return up[:, self._index.edge_u] & up[:, self._index.edge_v]

    def edge_masks_for(self, rows: Sequence[int]) -> np.ndarray:
        """Open-edge rows for the given trials only (filled on demand)."""
        self._fill_rows(rows)
        up = self._up[list(rows)]
        return up[:, self._index.edge_u] & up[:, self._index.edge_v]

    def model(self, i: int) -> PercolationModel:
        if self._node_view:
            mask = self.edge_masks_for([i])[0]
            return MaskEdgePercolation(self._index, self._p, mask)
        graph, seed = self._index.graph, self._seeds[i]
        return SitePercolation(graph, self._p, seed, self._pinned)


class MaskEdgePercolation(PercolationModel):
    """One trial's row of a batched edge draw, as a model.

    Answers exactly like the per-trial model it replaces: an edge of
    the graph is open iff its mask bit is set; a non-edge pair is
    closed (the per-trial models answer via membership of the
    canonical key, which a non-edge never has).
    """

    def __init__(
        self, index: EdgeIndex, p: float, mask: np.ndarray
    ) -> None:
        super().__init__(index.graph, p)
        self._index = index
        self._mask = mask
        # Probe-path cache: a Python list answers single-edge lookups
        # ~2x faster than numpy scalar indexing.  Materialised on the
        # first probe, so unrouted trials never pay for it.
        self._open_list: list[bool] | None = None

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        eid = self._index.eid.get(self.graph.edge_key(u, v))
        if eid is None:
            return False
        open_list = self._open_list
        if open_list is None:
            open_list = self._open_list = self._mask.tolist()
        return open_list[eid]

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        index = self._index
        inc_nbr, inc_eid, inc_valid = index.incidence()
        row = index.code[v]
        keep = inc_valid[row] & self._mask[inc_eid[row]]
        verts = index.verts
        return [verts[c] for c in inc_nbr[row][keep].tolist()]

    def num_open_edges(self) -> int:
        """Return the number of open edges."""
        return int(self._mask.sum())

    def open_edges(self) -> set:
        """Return the set of open edge keys."""
        keys = self._index.edge_keys
        return {keys[e] for e in np.flatnonzero(self._mask).tolist()}
