"""The cluster estimators on the union-find kernel equal their
per-trial loops.

``estimate_certificate`` (Lemma 5) and the giant, pair and full
connectivity scans answer every trial of a point from one chunk of
``TablePercolation`` mask rows; ``pair_threshold`` is a lazy minimax
search.  Each must return exactly what the per-trial references in
``reference_clusters`` return — same certificate, same rows, same
floats — on hypercube, mesh, double-tree and path graphs.
"""

from __future__ import annotations

import pytest
import reference_clusters as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lower_bounds import ball, estimate_certificate
from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.explicit import ExplicitGraph, path_graph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.kernels import topology
from repro.kernels.topology import edge_index_for
from repro.percolation.coupled import pair_threshold
from repro.percolation.giant import (
    full_connectivity_scan,
    giant_fraction_scan,
    pair_connectivity_scan,
)

GRAPHS = [Hypercube(6), Mesh(2, 6), DoubleBinaryTree(4), path_graph(7)]
IDS = [g.name for g in GRAPHS]
PS = [0.0, 0.2, 0.45, 0.7, 1.0]


def _certificate_cases():
    cube = Hypercube(6)
    mesh = Mesh(2, 6)
    tree = DoubleBinaryTree(4)
    x, y = tree.roots()
    path = path_graph(7)
    return [
        (cube, 0, 63, ball(cube, 63, 2)),
        (cube, 56, 63, ball(cube, 63, 3)),  # the source inside S
        (mesh, (0, 0), (5, 5), ball(mesh, (5, 5), 2)),
        (tree, x, y, {v for v in tree.vertices() if v[0] in ("b", "leaf")}),
        (path, 0, 7, {4, 5, 6, 7}),
        (path, 5, 7, {4, 5, 6, 7}),
    ]


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.85, 1.0])
@pytest.mark.parametrize(
    "case", _certificate_cases(), ids=lambda case: case[0].name
)
def test_certificate_equals_per_trial_loop(case, p):
    graph, source, target, s = case
    got = estimate_certificate(
        graph, p, s=s, source=source, target=target, trials=40, seed=3
    )
    assert got == ref.certificate(graph, p, s, source, target, 40, 3)


def test_certificate_with_explicit_cut_equals_per_trial_loop():
    graph = path_graph(7)
    s = {4, 5, 6, 7}
    got = estimate_certificate(
        graph, 0.7, s=s, source=0, target=7, trials=60, seed=1,
        cut=[(3, 4)],
    )
    assert got == ref.certificate(graph, 0.7, s, 0, 7, 60, 1, cut=[(3, 4)])


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_scans_equal_per_trial_loops(graph):
    assert giant_fraction_scan(graph, PS, 6, 4) == (
        ref.giant_fraction_scan(graph, PS, 6, 4)
    )
    assert full_connectivity_scan(graph, PS, 6, 5) == (
        ref.full_connectivity_scan(graph, PS, 6, 5)
    )
    assert pair_connectivity_scan(graph, PS, 6, 6) == (
        ref.pair_connectivity_scan(graph, PS, 6, 6)
    )
    verts = list(graph.vertices())
    pair = (verts[1], verts[len(verts) // 2])
    assert pair_connectivity_scan(graph, PS, 6, 6, pair=pair) == (
        ref.pair_connectivity_scan(graph, PS, 6, 6, pair=pair)
    )


def test_scans_on_a_disconnected_graph():
    graph = ExplicitGraph(
        [("a", "b"), ("b", "c"), ("x", "y")], vertices=["lonely"]
    )
    pair = ("a", "y")
    assert giant_fraction_scan(graph, PS, 5, 1) == (
        ref.giant_fraction_scan(graph, PS, 5, 1)
    )
    assert full_connectivity_scan(graph, PS, 5, 1) == (
        ref.full_connectivity_scan(graph, PS, 5, 1)
    )
    assert pair_connectivity_scan(graph, PS, 5, 1, pair=pair) == (
        ref.pair_connectivity_scan(graph, PS, 5, 1, pair=pair)
    )


def test_unindexed_graph_walks_with_the_same_answers(monkeypatch):
    # Past MAX_INDEX_VERTICES the estimators walk the graph per call.
    monkeypatch.setattr(topology, "MAX_INDEX_VERTICES", 8)
    graph = Hypercube(5)
    assert edge_index_for(graph) is None
    s = ball(graph, 31, 2)
    assert estimate_certificate(
        graph, 0.5, s=s, source=0, target=31, trials=20, seed=2
    ) == ref.certificate(graph, 0.5, s, 0, 31, 20, 2)
    assert giant_fraction_scan(graph, PS, 4, 2) == (
        ref.giant_fraction_scan(graph, PS, 4, 2)
    )
    assert pair_connectivity_scan(graph, PS, 4, 2) == (
        ref.pair_connectivity_scan(graph, PS, 4, 2)
    )


# -- the lazy minimax search equals the Kruskal sweep -------------------

THRESHOLD_GRAPHS = GRAPHS + [
    DoubleBinaryTree(6),
    ExplicitGraph(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("x", "y")],
        vertices=["lonely"],
    ),
]


@settings(max_examples=80, deadline=None)
@given(
    graph=st.sampled_from(THRESHOLD_GRAPHS),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    data=st.data(),
)
def test_pair_threshold_equals_the_kruskal_sweep(graph, seed, data):
    verts = list(graph.vertices())
    u = data.draw(st.sampled_from(verts))
    v = data.draw(st.sampled_from(verts))
    # Float for float: 0.0 when u == v, inf across components.
    assert pair_threshold(graph, seed, u, v) == (
        ref.sweep_pair_threshold(graph, seed, u, v)
    )


def test_pair_threshold_edge_values():
    graph = THRESHOLD_GRAPHS[-1]
    assert pair_threshold(graph, 7, "a", "a") == 0.0
    assert pair_threshold(graph, 7, "a", "x") == float("inf")
    assert pair_threshold(graph, 7, "lonely", "d") == float("inf")
    assert ref.sweep_pair_threshold(graph, 7, "a", "x") == float("inf")


@pytest.mark.parametrize("depth", [8, 10])
def test_pair_threshold_equals_the_sweep_on_deep_trees(depth):
    graph = DoubleBinaryTree(depth)
    x, y = graph.roots()
    for seed in range(12):
        assert pair_threshold(graph, seed, x, y) == (
            ref.sweep_pair_threshold(graph, seed, x, y)
        )
