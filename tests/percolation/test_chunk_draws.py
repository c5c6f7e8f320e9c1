"""Row parity: every model's ``chunk_draw`` against an independent reference.

A percolation model's chunk draw is its one draw implementation — the
chunk kernel runs it for a whole chunk, and the per-trial fault models
are row 0 of their own one-seed draw.  Each row must therefore equal
the trial the reference constructions in ``reference_draws`` build
directly (scalar ``uniform_for`` coins, a Python BFS per outage ball),
edge for edge; and ``model(i)`` must answer ``is_open`` and
``open_neighbors`` like that trial.  Hypothesis drives seeds and
parameters, the boundary cases pinned as explicit examples.
"""

from __future__ import annotations

import reference_draws as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.clos import FatTree
from repro.graphs.debruijn import DeBruijn
from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.explicit import ExplicitGraph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus
from repro.kernels.topology import edge_index_for
from repro.percolation.faults import (
    AdversarialCutPercolation,
    CorrelatedFaultPercolation,
    NodeFaultPercolation,
)
from repro.percolation.models import TablePercolation
from repro.percolation.site import SitePercolation

GRAPHS = [
    Hypercube(5),
    Mesh(2, 5),
    Torus(2, 4),
    DeBruijn(5),
    DoubleBinaryTree(4),
    FatTree(4),
    FatTree(6),
    ExplicitGraph(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("x", "y")],
        vertices=["lonely"],
    ),
]

GRAPH_IDS = st.integers(min_value=0, max_value=len(GRAPHS) - 1)
SEEDS = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=3
)
PROBS = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
#: 0 (single-vertex balls), typical, and 0.99 (radii past the diameter).
SPREADS = st.sampled_from([0.0, 0.99]) | st.floats(
    min_value=0.0, max_value=0.9
)
#: None (nothing pinned), the canonical pair, or a drawn pair.
PINS = st.sampled_from([None, "canonical"]) | st.tuples(
    st.integers(min_value=0), st.integers(min_value=0)
)


def _pair(graph, pins) -> tuple:
    if pins is None:
        return ()
    if pins == "canonical":
        return graph.canonical_pair()
    verts = list(graph.vertices())
    return tuple(verts[i % len(verts)] for i in pins)


def _assert_rows(graph, model, seeds, expected) -> None:
    """Row ``i`` of ``model.chunk_draw`` is ``expected[i]``, and
    ``model(i)`` answers like it."""
    index = edge_index_for(graph)
    draw = model.chunk_draw(index, seeds)
    masks = draw.edge_masks()
    assert masks.shape == (len(seeds), index.num_edges)
    for i, open_edges in enumerate(expected):
        row = {e for e, up in zip(index.edge_keys, masks[i].tolist()) if up}
        assert row == open_edges
        view = draw.model(i)
        for u, v in graph.edges():
            assert view.is_open(u, v) == ((u, v) in open_edges)
            assert view.is_open(v, u) == ((u, v) in open_edges)
        for v in graph.vertices():
            assert set(view.open_neighbors(v)) == {
                w
                for w in graph.neighbors(v)
                if graph.edge_key(v, w) in open_edges
            }


def _assert_lazy_verdicts(graph, draw, expected) -> None:
    """A lazy site draw's conditioning equals the reference cluster BFS."""
    index = edge_index_for(graph)
    source, target = graph.canonical_pair()
    got = draw.connected(index.code[source], index.code[target]).tolist()
    assert got == [
        ref.cluster_connected(graph, open_edges, source, target)
        for open_edges in expected
    ]


@given(g=GRAPH_IDS, p=PROBS, seeds=SEEDS)
@settings(max_examples=40, deadline=None)
def test_table_rows_match_reference(g, p, seeds):
    graph = GRAPHS[g]
    model = TablePercolation(graph, p, seed=0)
    expected = [ref.table_open(graph, p, seed) for seed in seeds]
    _assert_rows(graph, model, seeds, expected)


@given(g=GRAPH_IDS, p=PROBS, seeds=SEEDS, pins=PINS)
@settings(max_examples=40, deadline=None)
def test_site_rows_match_reference(g, p, seeds, pins):
    graph = GRAPHS[g]
    pinned = _pair(graph, pins)
    model = SitePercolation(graph, p, seed=0, pinned=pinned)
    expected = [ref.site_open(graph, p, seed, pinned) for seed in seeds]
    _assert_rows(graph, model, seeds, expected)
    index = edge_index_for(graph)
    # Lazy conditioning on a fresh draw: coins demanded by frontiers.
    _assert_lazy_verdicts(graph, model.chunk_draw(index, seeds), expected)
    # Row models replay the site model, down to non-adjacent pairs.
    draw = model.chunk_draw(index, seeds)
    up = [ref.site_up(graph, p, seed, pinned) for seed in seeds]
    for i in range(len(seeds)):
        view = draw.model(i)
        for v in graph.vertices():
            assert view.is_up(v) == (v in up[i])
        a, b = index.verts[0], index.verts[-1]
        assert view.is_open(a, b) == (a in up[i] and b in up[i])


@given(g=GRAPH_IDS, p=PROBS, seeds=SEEDS, pins=PINS)
@settings(max_examples=40, deadline=None)
def test_node_fault_rows_match_reference(g, p, seeds, pins):
    graph = GRAPHS[g]
    pinned = _pair(graph, pins)
    model = NodeFaultPercolation(graph, p, seed=0, pinned=pinned)
    expected = [ref.site_open(graph, p, seed, pinned) for seed in seeds]
    _assert_rows(graph, model, seeds, expected)
    index = edge_index_for(graph)
    _assert_lazy_verdicts(graph, model.chunk_draw(index, seeds), expected)
    for seed, open_edges in zip(seeds, expected):
        trial = NodeFaultPercolation(graph, p, seed=seed, pinned=pinned)
        assert trial.open_edges() == open_edges
        assert trial.failed_nodes() == (
            set(graph.vertices()) - ref.site_up(graph, p, seed, pinned)
        )


@given(
    g=GRAPH_IDS,
    p=PROBS,
    seeds=SEEDS,
    rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    spread=SPREADS,
    pins=PINS,
)
@example(g=0, p=1.0, seeds=[7], rate=0.05, spread=0.99, pins=None)
@example(g=6, p=0.5, seeds=[1, 2], rate=0.02, spread=0.99, pins="canonical")
@settings(max_examples=60, deadline=None)
def test_correlated_rows_match_reference(g, p, seeds, rate, spread, pins):
    graph = GRAPHS[g]
    pinned = _pair(graph, pins)
    model = CorrelatedFaultPercolation(
        graph, p, seed=0, epicenter_rate=rate, spread=spread, pinned=pinned
    )
    outages = [
        ref.outages(graph, seed, rate, spread, pinned) for seed in seeds
    ]
    expected = [
        ref.edge_coins_open(
            graph, p, seed, lambda e, dead=dead: bool(dead.intersection(e))
        )
        for seed, (_, dead) in zip(seeds, outages)
    ]
    _assert_rows(graph, model, seeds, expected)
    for seed, (epicenters, dead) in zip(seeds, outages):
        trial = CorrelatedFaultPercolation(
            graph, p, seed=seed, epicenter_rate=rate, spread=spread,
            pinned=pinned,
        )
        assert trial.epicenters() == epicenters
        assert trial.dead_nodes() == dead


@given(
    g=GRAPH_IDS,
    p=PROBS,
    seeds=SEEDS,
    budget=st.sampled_from([0, 40]) | st.integers(0, 6),
    pins=PINS,
)
@settings(max_examples=40, deadline=None)
def test_adversarial_rows_match_reference(g, p, seeds, budget, pins):
    graph = GRAPHS[g]
    pair = _pair(graph, pins) or None
    model = AdversarialCutPercolation(
        graph, p, seed=0, budget=budget, pair=pair
    )
    # The greedy cut is deterministic (no coin), so the reference takes
    # it from the model and checks only that it is within budget.
    removed = set(model.removed_edges())
    assert len(removed) <= budget
    expected = [
        ref.edge_coins_open(graph, p, seed, removed.__contains__)
        for seed in seeds
    ]
    _assert_rows(graph, model, seeds, expected)
    if budget == 40:  # past severance: no path survives the cut alone
        survivors = set(graph.edges()) - removed
        assert not ref.cluster_connected(graph, survivors, *model.pair) or (
            model.pair[0] == model.pair[1]
        )
    for seed, open_edges in zip(seeds, expected):
        trial = AdversarialCutPercolation(
            graph, p, seed=seed, budget=budget, pair=pair
        )
        assert trial.removed_edges() == model.removed_edges()
        assert trial.open_edges() == open_edges
