"""Bit parity of the batched percolation draws and mask-backed models.

Every row of a batched draw must equal the per-trial model it stands in
for — same seed derivation, same coins, same answers — or tables change
under the kernel, which the whole seam forbids.
"""

from __future__ import annotations

import pytest

from repro.graphs.clos import FatTree
from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus
from repro.kernels import (
    MaskEdgePercolation,
    MaskSitePercolation,
    build_edge_index,
    site_up_masks,
    table_edge_masks,
)
from repro.percolation.models import TablePercolation
from repro.percolation.site import SitePercolation
from repro.util.rng import derive_seed

SEEDS = [derive_seed(7, "kernel-mask", t) for t in range(6)]


@pytest.mark.parametrize(
    "graph,p",
    [
        (Hypercube(5), 0.35),
        (Mesh(2, 6), 0.55),
        (Torus(2, 4), 0.5),
        (DoubleBinaryTree(4), 0.75),
        (FatTree(4), 0.6),
    ],
    ids=["hypercube", "mesh", "torus", "double-tree", "fat-tree"],
)
def test_table_edge_masks_match_table_percolation(graph, p):
    edges = list(graph.edges())
    masks = table_edge_masks(p, SEEDS, len(edges))
    assert masks.shape == (len(SEEDS), len(edges))
    for row, seed in zip(masks, SEEDS):
        model = TablePercolation(graph, p, seed=seed)
        assert row.tolist() == [model.is_open(u, v) for u, v in edges]


@pytest.mark.parametrize("pinned", [(), None], ids=["bare", "pinned"])
def test_site_up_masks_match_site_percolation(pinned):
    graph = Hypercube(5)
    p = 0.6
    verts = list(graph.vertices())
    if pinned is None:
        pinned = graph.canonical_pair()
    codes = [verts.index(v) for v in pinned]
    up = site_up_masks(p, SEEDS, verts, pinned_codes=codes)
    for row, seed in zip(up, SEEDS):
        model = SitePercolation(graph, p, seed=seed, pinned=pinned)
        assert row.tolist() == [model.is_up(v) for v in verts]


def test_site_up_masks_reject_out_of_range_seed():
    with pytest.raises(ValueError):
        site_up_masks(0.5, [-1], [0, 1])


@pytest.mark.parametrize(
    "graph,p", [(Hypercube(4), 0.45), (Mesh(2, 5), 0.6)],
    ids=["hypercube", "mesh"],
)
def test_mask_edge_model_answers_like_table(graph, p):
    index = build_edge_index(graph)
    seed = SEEDS[0]
    mask = table_edge_masks(p, [seed], index.num_edges)[0]
    kernel = MaskEdgePercolation(index, p, mask)
    ref = TablePercolation(graph, p, seed=seed)
    verts = list(graph.vertices())
    for u, v in graph.edges():
        assert kernel.is_open(u, v) == ref.is_open(u, v)
        assert kernel.is_open(v, u) == ref.is_open(v, u)
    for v in verts:
        # Routers never call open_neighbors (probes are the measured
        # quantity); only the neighbour *set* must agree.
        assert set(kernel.open_neighbors(v)) == set(ref.open_neighbors(v))
        assert kernel.open_degree(v) == ref.open_degree(v)
    assert kernel.num_open_edges() == ref.num_open_edges()
    # Non-edges are closed, exactly like the set-membership answer.
    a, b = verts[0], verts[-1]
    if not graph.is_edge(a, b):
        assert kernel.is_open(a, b) is False
        assert ref.is_open(a, b) is False


def test_mask_edge_open_neighbors_order_matches_incidence():
    # open_neighbors comes from the incidence rows, whose slots follow
    # edges() order — deterministic, whatever the per-trial model's
    # adjacency-dict insertion order was.
    graph = Torus(2, 4)
    index = build_edge_index(graph)
    mask = table_edge_masks(0.7, [SEEDS[1]], index.num_edges)[0]
    kernel = MaskEdgePercolation(index, 0.7, mask)
    ref = TablePercolation(graph, 0.7, seed=SEEDS[1])
    for v in graph.vertices():
        assert set(kernel.open_neighbors(v)) == set(ref.open_neighbors(v))


def test_mask_site_model_answers_like_site():
    graph = Hypercube(4)
    p = 0.55
    pinned = graph.canonical_pair()
    index = build_edge_index(graph)
    verts = index.verts
    codes = [index.code[v] for v in pinned]
    seed = SEEDS[2]
    up = site_up_masks(p, [seed], verts, pinned_codes=codes)[0]
    kernel = MaskSitePercolation(index, p, up)
    ref = SitePercolation(graph, p, seed=seed, pinned=pinned)
    for v in verts:
        assert kernel.is_up(v) == ref.is_up(v)
        assert kernel.open_neighbors(v) == ref.open_neighbors(v)
    for u, v in graph.edges():
        assert kernel.is_open(u, v) == ref.is_open(u, v)
    # SitePercolation answers non-adjacent pairs too (both up); the
    # mask-backed model must mirror that quirk, not the edge-mask view.
    a, b = verts[0], verts[-1]
    assert not graph.is_edge(a, b)
    assert kernel.is_open(a, b) == ref.is_open(a, b)
