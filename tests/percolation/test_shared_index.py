"""The per-trial path on the graph's shared ``EdgeIndex``.

``TablePercolation`` draws and the coupled-threshold sweeps read one
index per graph per process (``repro.kernels.topology.edge_index_for``)
instead of re-enumerating the graph every trial.  The references below
are the implementations that did enumerate — a fresh ``list(graph.
edges())`` table build and a sorted-levels ``DisjointSets`` sweep — and
every answer must equal theirs exactly: same open set in the same
iteration order, same ``open_neighbors`` lists, same thresholds.  The
cache itself must stay invisible: out of pickles and workload ids,
freed with its graph, built once.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.complexity import complexity_specs
from repro.graphs.base import EDGE_INDEX_ATTR
from repro.graphs.clos import FatTree
from repro.graphs.debruijn import DeBruijn
from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.explicit import ExplicitGraph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus
from repro.kernels import compile_trial_chunk, topology
from repro.kernels.topology import edge_index_for
from repro.percolation.coupled import giant_threshold, pair_threshold
from repro.percolation.models import TablePercolation
from repro.routers.bfs import LocalBFSRouter
from repro.routers.dfs import DirectedDFSRouter
from repro.util.rng import derive_seed, uniform_for, uniforms_for
from repro.util.unionfind import DisjointSets

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
IDS = [g.name for g in GRAPHS]
SEEDS = [derive_seed(5, "shared-index", t) for t in range(4)]


# -- references: the per-trial enumeration the shared index replaced ----


def _reference_table(graph, p, seed):
    edges = list(graph.edges())
    rng = np.random.default_rng(derive_seed(seed, "table-percolation"))
    mask = rng.random(len(edges)) < p
    open_set = {e for e, keep in zip(edges, mask) if keep}
    adjacency = {}
    for u, v in open_set:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    return open_set, adjacency


def _sorted_levels(graph, seed):
    levels = [(uniform_for(seed, "edge", e), e) for e in graph.edges()]
    levels.sort()
    return levels


def _reference_pair_threshold(graph, seed, u, v):
    if u == v:
        return 0.0
    ds = DisjointSets()
    for level, (a, b) in _sorted_levels(graph, seed):
        ds.union(a, b)
        if ds.connected(u, v):
            return level
    return float("inf")


def _reference_giant_threshold(graph, seed, fraction):
    target = fraction * graph.num_vertices()
    if target <= 1:
        return 0.0
    ds = DisjointSets()
    for level, (a, b) in _sorted_levels(graph, seed):
        ds.union(a, b)
        if ds.set_size(a) >= target:
            return level
    return float("inf")


def _pairs(graph):
    verts = list(graph.vertices())
    return [
        graph.canonical_pair(),
        (verts[1], verts[-2]),
        (verts[len(verts) // 2], verts[0]),
    ]


# -- parity ---------------------------------------------------------------


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_edge_keys_are_the_enumeration(graph):
    index = edge_index_for(graph)
    assert index.edge_keys == list(graph.edges())
    # repr-identical too: the level hash is keyed on repr bytes.
    assert repr(index.edge_keys) == repr(list(graph.edges()))
    assert index.level_keys == [
        repr(("edge", e)).encode("utf-8") for e in graph.edges()
    ]


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_vertex_keys_are_the_coin_keys(graph):
    index = edge_index_for(graph)
    for tag in ("site", "epicenter", "radius"):
        assert index.vertex_keys(tag) == [
            repr((tag, v)).encode("utf-8") for v in graph.vertices()
        ]
    assert index.vertex_keys("site") is index.vertex_keys("site")


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_batched_levels_equal_uniform_for(graph):
    index = edge_index_for(graph)
    for seed in SEEDS:
        levels = uniforms_for(seed, index.level_keys).tolist()
        assert levels == [uniform_for(seed, "edge", e) for e in graph.edges()]


@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_table_percolation_matches_enumerating_build(graph, p):
    for seed in SEEDS:
        model = TablePercolation(graph, p, seed=seed)
        open_set, adjacency = _reference_table(graph, p, seed)
        assert model.open_edges() == open_set
        assert list(model.open_edges()) == list(open_set)
        for v in graph.vertices():
            assert model.open_neighbors(v) == adjacency.get(v, [])


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_pair_threshold_matches_sorted_levels_sweep(graph):
    for seed in SEEDS:
        for u, v in _pairs(graph):
            assert pair_threshold(graph, seed, u, v) == (
                _reference_pair_threshold(graph, seed, u, v)
            )


@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_giant_threshold_matches_sorted_levels_sweep(graph, fraction):
    for seed in SEEDS:
        assert giant_threshold(graph, seed, fraction) == (
            _reference_giant_threshold(graph, seed, fraction)
        )


def test_unindexed_graph_keeps_the_enumeration(monkeypatch):
    # Past MAX_INDEX_VERTICES nothing is cached: the draw enumerates
    # edges() and the sweep walks the graph, with the same answers.
    monkeypatch.setattr(topology, "MAX_INDEX_VERTICES", 8)
    graph = Hypercube(5)
    assert edge_index_for(graph) is None
    seed = SEEDS[0]
    model = TablePercolation(graph, 0.4, seed=seed)
    open_set, adjacency = _reference_table(graph, 0.4, seed)
    assert list(model.open_edges()) == list(open_set)
    for v in graph.vertices():
        assert model.open_neighbors(v) == adjacency.get(v, [])
    u, v = graph.canonical_pair()
    assert pair_threshold(graph, seed, u, v) == (
        _reference_pair_threshold(graph, seed, u, v)
    )
    assert giant_threshold(graph, seed, 0.5) == (
        _reference_giant_threshold(graph, seed, 0.5)
    )


# -- the cache stays invisible --------------------------------------------


def _specs(graph):
    return complexity_specs(
        graph, p=0.6, router=LocalBFSRouter(), trials=3, seed=9, key=("idx",)
    )


def test_pickles_and_workload_ids_ignore_the_index():
    graph = Mesh(2, 6)
    blob = pickle.dumps(graph)
    workload_id = _specs(graph)[0].workload_id
    TablePercolation(graph, 0.5, seed=1)
    pair_threshold(graph, 2, *graph.canonical_pair())
    assert EDGE_INDEX_ATTR in vars(graph)  # the index is cached...
    assert pickle.dumps(graph) == blob  # ...but never pickled
    assert _specs(graph)[0].workload_id == workload_id
    assert EDGE_INDEX_ATTR not in vars(pickle.loads(blob))


def test_index_is_freed_with_its_graph():
    # The index refers back to its graph weakly: no reference cycle,
    # so both go the moment the last outside reference does, without
    # waiting for the cycle collector.
    graph = DoubleBinaryTree(5)
    TablePercolation(graph, 0.5, seed=1)
    graph_ref = weakref.ref(graph)
    index_ref = weakref.ref(edge_index_for(graph))
    gc.disable()
    try:
        del graph
        assert graph_ref() is None
        assert index_ref() is None
    finally:
        gc.enable()


def test_compiled_runner_keeps_its_graph():
    # A compiled chunk runner outlives its workload in the compile
    # cache, and the shared index holds the graph only weakly, so the
    # runner itself must keep the graph alive.  DirectedDFSRouter has
    # no routing kernel: each trial routes on a mask-backed model
    # built from the index's graph at run time.
    graph = Hypercube(5)
    graph_ref = weakref.ref(graph)
    specs = complexity_specs(
        graph, p=0.6, router=DirectedDFSRouter(), trials=3, seed=9,
        key=("idx",),
    )
    runner = compile_trial_chunk(specs[0].workload)
    keys = [spec.key for spec in specs]
    tails = [tuple(spec.args) for spec in specs]
    expected = repr(runner(keys, tails))
    del specs, graph
    gc.collect()
    assert graph_ref() is not None
    assert repr(runner(keys, tails)) == expected


def test_index_is_built_once_per_graph(monkeypatch):
    calls = []
    build = topology.build_edge_index

    def counting_build(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(topology, "build_edge_index", counting_build)
    graph = Hypercube(6)
    for t in range(50):
        TablePercolation(graph, 0.5, seed=t)
    pair_threshold(graph, 3, *graph.canonical_pair())
    assert compile_trial_chunk(_specs(graph)[0].workload) is not None
    assert calls == [graph]
