"""Chunk-wide cluster labels by batched union-find.

Every cluster question the reproduction asks of a percolation draw —
is the target in the source's open cluster (the conditioning of the
paper's Definition 2), which vertices share the target's cluster
inside a cut (Lemma 5), how large is the giant component, is the whole
graph connected — is answered from one computation per draw: the
components of its open edges.  :func:`batched_labels` computes them
for a whole chunk at once: trials are rows of a ``(trials, edges)``
open-edge matrix, and every row's open edges become one flat list of
``(row, vertex)`` id pairs.

The algorithm is hook-and-compress.  Each round, every edge whose
endpoints have different roots hooks the larger root onto the smaller
(one ``np.minimum.at``), then pointer jumping (``parent =
parent[parent]``) flattens every tree, and edges found inside one
component are dropped for good.  Pointers only ever decrease, so the
root a component ends on is its smallest vertex code — the label, the
same whatever order the edges are processed in.  The labels therefore
partition each row exactly like :func:`repro.percolation.cluster.
component`, which the parity suite checks.  :func:`batched_connected`
runs the same rounds for one vertex pair, retiring each row as soon as
its pair shares a root.

Memory is bounded by processing trials in blocks sized from the edge
count (about 48 bytes per edge and 8 per vertex of one row's
workspace), kept near a quarter of :data:`BLOCK_BYTES`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.topology import EdgeIndex

__all__ = [
    "BLOCK_BYTES",
    "batched_connected",
    "batched_labels",
    "block_rows",
]

#: Soft cap on a chunk kernel's per-block workspace, in bytes.
BLOCK_BYTES = 64 * 1024 * 1024


def block_rows(num_vertices: int, width: int) -> int:
    """Trials per block for a ``(block, vertices, width)`` workspace.

    Shared by the chunk-wide sweeps that keep per-trial state of that
    shape — the lazy site-coin BFS and the outage-ball growth in
    :mod:`repro.kernels.percolation` — so they all honour the same
    :data:`BLOCK_BYTES` soft cap.
    """
    per_row = max(1, num_vertices * width)
    return max(1, BLOCK_BYTES // per_row)


def _union_rows(index: EdgeIndex) -> int:
    """Trials per union-find block: a row's slot tables and edge
    arrays take ~48 B per edge, its parents 8 B per vertex."""
    per_row = max(1, 48 * index.num_edges + 8 * index.num_vertices)
    return max(1, (BLOCK_BYTES // 4) // per_row)


def _slot_ends(index: EdgeIndex, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``row * V + code`` endpoint ids of every ``(row, edge)``
    slot of a ``rows``-row block, in row-major mask order."""
    offset = np.arange(rows)[:, None] * index.num_vertices
    return (
        (offset + index.edge_u).ravel(),
        (offset + index.edge_v).ravel(),
    )


def _hook(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One round: hook every edge's larger root onto its smaller, then
    pointer-jump until every vertex points at its root.

    ``parent`` must point every vertex at its root on entry; the
    flattened parent array is returned in the same state.
    """
    ra, rb = parent[a], parent[b]
    np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _block_roots(
    index: EdgeIndex,
    masks: np.ndarray,
    pair: tuple[int, int] | None = None,
):
    """Yield ``(first row, roots)`` per block of rows, ``roots`` the
    ``(rows, V)`` flat id of each vertex's component root.

    With ``pair``, a row stops feeding edges once its pair shares a
    root (its other components may stay unfinished): a supercritical
    row is settled long before its giant component is.
    """
    num_vertices = index.num_vertices
    block = _union_rows(index)
    ends_u, ends_v = _slot_ends(index, min(block, masks.shape[0]))
    for lo in range(0, masks.shape[0], block):
        part = masks[lo : lo + block]
        # A short last block is a prefix of the slot table.
        slots = np.flatnonzero(part)
        a, b = ends_u[slots], ends_v[slots]
        shape = (part.shape[0], num_vertices)
        parent = np.arange(part.shape[0] * num_vertices)
        while a.size:
            parent = _hook(parent, a, b)
            live = parent[a] != parent[b]
            if pair is not None:
                roots = parent.reshape(shape)
                joined = roots[:, pair[0]] == roots[:, pair[1]]
                live &= ~np.repeat(joined, num_vertices)[a]
            a, b = a[live], b[live]
        yield lo, parent.reshape(shape)


def batched_labels(index: EdgeIndex, masks: np.ndarray) -> np.ndarray:
    """Return each row's component labels, ``(trials, vertices)`` int32.

    ``masks`` is the ``(trials, edges)`` open-edge matrix, edges in
    ``index`` order.  Vertex ``x`` of row ``i`` is labelled with the
    smallest vertex code in its open cluster, so two vertices share a
    label exactly when the row connects them.
    """
    num_vertices = index.num_vertices
    labels = np.empty((masks.shape[0], num_vertices), dtype=np.int32)
    for lo, roots in _block_roots(index, masks):
        offset = np.arange(roots.shape[0])[:, None] * num_vertices
        labels[lo : lo + roots.shape[0]] = roots - offset
    return labels


def batched_connected(
    index: EdgeIndex,
    masks: np.ndarray,
    source_code: int,
    target_code: int,
) -> np.ndarray:
    """Return ``connected(source, target)`` for every trial row.

    ``masks`` is the ``(trials, edges)`` open-edge matrix of the chunk.
    Equivalent to running the per-trial cluster BFS on each row.
    """
    out = np.ones(masks.shape[0], dtype=bool)
    if source_code == target_code:
        return out
    pair = (source_code, target_code)
    for lo, roots in _block_roots(index, masks, pair):
        out[lo : lo + roots.shape[0]] = (
            roots[:, source_code] == roots[:, target_code]
        )
    return out
