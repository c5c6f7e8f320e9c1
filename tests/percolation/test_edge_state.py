"""The ``edge_state`` contract of every percolation model.

``ProbeOracle.probe`` asks the model once per new probe:
``edge_state(u, v)`` is ``is_open(u, v)`` for an edge of the graph and
``None`` for a pair that is not one.  Every concrete model in
``repro`` must keep it — those on the base default (``graph.is_edge``,
then ``is_open``) and those that answer with one lookup
(``MaskEdgePercolation`` and the fault models' row views).
"""

from __future__ import annotations

import itertools

import pytest

from repro.graphs.clos import FatTree
from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.hypercube import Hypercube
from repro.kernels.percolation import MaskEdgePercolation
from repro.kernels.topology import edge_index_for
from repro.percolation.faults import (
    AdversarialCutPercolation,
    CorrelatedFaultPercolation,
    NodeFaultPercolation,
)
from repro.percolation.models import (
    GnpPercolation,
    HashPercolation,
    PercolationModel,
    TablePercolation,
)
from repro.percolation.site import SitePercolation


def _mask_row(graph, p, seed):
    index = edge_index_for(graph)
    return TablePercolation(graph, p, 0).chunk_draw(index, [seed]).model(0)


#: Model class -> builder(graph, p, seed); G(n, p) brings its own graph.
BUILDERS = {
    TablePercolation: TablePercolation,
    HashPercolation: HashPercolation,
    GnpPercolation: lambda graph, p, seed: GnpPercolation(12, p, seed),
    SitePercolation: SitePercolation,
    NodeFaultPercolation: NodeFaultPercolation,
    CorrelatedFaultPercolation: lambda graph, p, seed: (
        CorrelatedFaultPercolation(
            graph, p, seed, epicenter_rate=0.2, spread=0.5
        )
    ),
    AdversarialCutPercolation: lambda graph, p, seed: (
        AdversarialCutPercolation(graph, p, seed, budget=2)
    ),
    MaskEdgePercolation: _mask_row,
}
GRAPHS = [Hypercube(4), FatTree(4), DoubleBinaryTree(3)]
#: A vertex of the graph's vertex type that the graph does not have.
ABSENT = {
    Hypercube: 10**6,
    FatTree: ("nowhere", 0),
    DoubleBinaryTree: ("a", 999),
}


def _concrete_models(cls=PercolationModel):
    for sub in cls.__subclasses__():
        yield from _concrete_models(sub)
        private = sub.__name__.startswith("_")
        if sub.__module__.startswith("repro.") and not private:
            yield sub


def test_every_concrete_model_is_covered():
    assert set(_concrete_models()) == set(BUILDERS)


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda c: c.__name__)
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
def test_edge_state_is_is_open_on_edges_and_none_off_them(cls, graph, p):
    model = BUILDERS[cls](graph, p, 3)
    graph = model.graph
    edges = set(graph.edges())
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            state = model.edge_state(a, b)
            assert type(state) is bool
            assert state == model.is_open(a, b)
    verts = list(graph.vertices())
    absent = ABSENT.get(type(graph), len(verts))
    non_edges = [
        (a, b)
        for a, b in itertools.product(verts, verts)
        if graph.edge_key(a, b) not in edges
    ] + [(verts[0], absent)]
    assert non_edges
    for a, b in non_edges:
        assert model.edge_state(a, b) is None, (a, b)
