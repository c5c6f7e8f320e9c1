"""Chunk-wide cluster labels and reachability equal the per-trial
cluster BFS."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.bfs as bfs
from repro.graphs.clos import FatTree
from repro.graphs.debruijn import DeBruijn
from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.explicit import ExplicitGraph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus
from repro.kernels import (
    MaskEdgePercolation,
    batched_connected,
    batched_labels,
    build_edge_index,
    edge_index_for,
    table_edge_masks,
)
from repro.percolation.cluster import component, connected
from repro.util.rng import derive_seed

SEEDS = [derive_seed(11, "kernel-bfs", t) for t in range(24)]

# The graph set of tests/percolation/test_shared_index.py: every index
# builder, a generic walk, and a disconnected explicit graph.
GRAPHS = [
    Hypercube(5),
    Mesh(2, 5),
    Torus(2, 4),
    DeBruijn(5),
    DoubleBinaryTree(4),
    FatTree(4),
    ExplicitGraph(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("x", "y")],
        vertices=["lonely"],
    ),
]


@settings(max_examples=60, deadline=None)
@given(
    graph=st.sampled_from(GRAPHS),
    p=st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    region=st.booleans(),
    blocked=st.booleans(),
    data=st.data(),
)
def test_labels_and_verdicts_match_the_cluster_bfs(
    graph, p, seed, region, blocked, data
):
    index = edge_index_for(graph)
    verts = index.verts
    seeds = [derive_seed(seed, "labels", t) for t in range(3)]
    masks = table_edge_masks(p, seeds, index.num_edges)
    size = len(verts)
    if region:
        # Close every edge leaving a vertex region, as Lemma 5's
        # cluster-inside-S does.
        flags = st.lists(st.booleans(), min_size=size, max_size=size)
        inside = np.asarray(data.draw(flags))
        masks &= inside[index.edge_u] & inside[index.edge_v]
    source = data.draw(st.sampled_from(range(size)))
    target = data.draw(st.sampled_from(range(size)))
    block_bytes = 1 if blocked else bfs.BLOCK_BYTES
    with mock.patch.object(bfs, "BLOCK_BYTES", block_bytes):
        labels = batched_labels(index, masks)
        verdicts = batched_connected(index, masks, source, target)
    assert labels.shape == (len(seeds), size)
    for row, mask, verdict in zip(labels, masks, verdicts.tolist()):
        model = MaskEdgePercolation(index, p, mask)
        for code, v in enumerate(verts):
            cluster = {index.code[w] for w in component(model, v)}
            # Same partition, each class labelled by its smallest code.
            assert set(np.flatnonzero(row == row[code]).tolist()) == cluster
            assert row[code] == min(cluster)
        assert verdict == connected(model, verts[source], verts[target])


@pytest.mark.parametrize(
    "graph,p",
    [
        (Hypercube(5), 0.2),
        (Hypercube(5), 0.5),
        (Hypercube(5), 0.9),
        (Mesh(2, 6), 0.45),
        (Mesh(2, 6), 0.65),
        (DeBruijn(4), 0.5),
    ],
    ids=["hc-sub", "hc-mid", "hc-super", "mesh-sub", "mesh-super", "db"],
)
def test_batched_connected_matches_per_trial_bfs(graph, p):
    index = build_edge_index(graph)
    source, target = graph.canonical_pair()
    masks = table_edge_masks(p, SEEDS, index.num_edges)
    got = batched_connected(
        index, masks, index.code[source], index.code[target]
    )
    for row, seed, verdict in zip(masks, SEEDS, got.tolist()):
        model = MaskEdgePercolation(index, p, row)
        assert verdict == connected(model, source, target), seed


def test_same_source_and_target_is_trivially_connected():
    graph = Hypercube(4)
    index = build_edge_index(graph)
    masks = np.zeros((3, index.num_edges), dtype=bool)
    assert batched_connected(index, masks, 5, 5).all()


def test_blocked_sweep_agrees_with_single_block(monkeypatch):
    # Force multiple blocks through a tiny workspace cap; results must
    # not depend on the blocking.
    graph = Mesh(2, 5)
    index = build_edge_index(graph)
    source, target = graph.canonical_pair()
    masks = table_edge_masks(0.55, SEEDS, index.num_edges)
    whole = batched_connected(
        index, masks, index.code[source], index.code[target]
    )
    monkeypatch.setattr(bfs, "BLOCK_BYTES", 1)
    blocked = batched_connected(
        index, masks, index.code[source], index.code[target]
    )
    assert (whole == blocked).all()
