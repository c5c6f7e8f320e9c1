"""Tests for repro.core.probe — counting, memoisation, budget, locality."""

import pytest

from repro.core.probe import (
    LocalityViolation,
    LocalProbeOracle,
    ProbeBudgetExceeded,
    ProbeOracle,
)
from repro.graphs.explicit import ExplicitGraph, cycle_graph, path_graph
from repro.graphs.hypercube import Hypercube
from repro.kernels.topology import edge_index_for
from repro.percolation.models import HashPercolation, TablePercolation


def _model(graph, p=1.0, seed=0):
    return TablePercolation(graph, p, seed=seed)


class TestProbeOracle:
    def test_counts_distinct_edges(self):
        oracle = ProbeOracle(_model(cycle_graph(5)))
        oracle.probe(0, 1)
        oracle.probe(1, 2)
        assert oracle.queries == 2

    def test_reprobe_is_free(self):
        oracle = ProbeOracle(_model(cycle_graph(5)))
        oracle.probe(0, 1)
        oracle.probe(0, 1)
        oracle.probe(1, 0)  # reverse orientation
        assert oracle.queries == 1

    def test_result_matches_model(self):
        model = _model(cycle_graph(6), p=0.5, seed=3)
        oracle = ProbeOracle(model)
        for e in model.graph.edges():
            assert oracle.probe(*e) == model.is_open(*e)

    def test_rejects_non_edges(self):
        oracle = ProbeOracle(_model(path_graph(3)))
        with pytest.raises(ValueError):
            oracle.probe(0, 2)

    def test_budget_enforced(self):
        oracle = ProbeOracle(_model(cycle_graph(10)), budget=3)
        oracle.probe(0, 1)
        oracle.probe(1, 2)
        oracle.probe(2, 3)
        with pytest.raises(ProbeBudgetExceeded):
            oracle.probe(3, 4)
        assert oracle.queries == 3

    def test_budget_allows_reprobes(self):
        oracle = ProbeOracle(_model(cycle_graph(10)), budget=1)
        oracle.probe(0, 1)
        assert oracle.probe(1, 0) in (True, False)  # still free

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeOracle(_model(path_graph(2)), budget=0)

    def test_known_state_is_free(self):
        oracle = ProbeOracle(_model(cycle_graph(5)))
        assert oracle.known_state(0, 1) is None
        oracle.probe(0, 1)
        assert oracle.known_state(1, 0) is True
        assert oracle.queries == 1

    def test_probed_edges_snapshot(self):
        oracle = ProbeOracle(_model(cycle_graph(5)))
        oracle.probe(0, 1)
        snapshot = oracle.probed_edges()
        assert snapshot == {(0, 1): True}
        snapshot[(1, 2)] = False  # mutating the copy is harmless
        assert oracle.queries == 1

    def test_graph_property(self):
        g = cycle_graph(4)
        oracle = ProbeOracle(_model(g))
        assert oracle.graph is g

    def test_any_edge_probe_allowed(self):
        # oracle model: probing far from anything established is legal
        oracle = ProbeOracle(_model(cycle_graph(10)))
        assert oracle.probe(5, 6) in (True, False)


class TestLocalProbeOracle:
    def test_first_probe_must_touch_source(self):
        oracle = LocalProbeOracle(_model(cycle_graph(6)), source=0)
        with pytest.raises(LocalityViolation):
            oracle.probe(2, 3)

    def test_probe_from_source_ok(self):
        oracle = LocalProbeOracle(_model(cycle_graph(6)), source=0)
        assert oracle.probe(0, 1) is True

    def test_reached_grows_along_open_edges(self):
        oracle = LocalProbeOracle(_model(path_graph(3)), source=0)
        oracle.probe(0, 1)
        assert oracle.is_reached(1)
        oracle.probe(1, 2)
        assert oracle.is_reached(2)

    def test_closed_edge_does_not_extend_reach(self):
        model = _model(path_graph(3), p=0.0)
        oracle = LocalProbeOracle(model, source=0)
        assert oracle.probe(0, 1) is False
        assert not oracle.is_reached(1)
        with pytest.raises(LocalityViolation):
            oracle.probe(1, 2)

    def test_probe_beyond_closed_frontier_rejected(self):
        g = path_graph(4)
        model = TablePercolation(g, 1.0, seed=0)
        oracle = LocalProbeOracle(model, source=0)
        oracle.probe(0, 1)
        with pytest.raises(LocalityViolation):
            oracle.probe(2, 3)  # 2 not reached yet

    def test_reached_frozen_view(self):
        oracle = LocalProbeOracle(_model(path_graph(2)), source=0)
        assert oracle.reached == frozenset({0})
        oracle.probe(0, 1)
        assert oracle.reached == frozenset({0, 1})

    def test_source_must_be_vertex(self):
        with pytest.raises(ValueError):
            LocalProbeOracle(_model(path_graph(2)), source=99)

    def test_locality_with_hash_model_on_hypercube(self):
        model = HashPercolation(Hypercube(5), 1.0, seed=0)
        oracle = LocalProbeOracle(model, source=0)
        oracle.probe(0, 1)
        oracle.probe(1, 3)
        assert oracle.is_reached(3)
        with pytest.raises(LocalityViolation):
            oracle.probe(24, 25)

    def test_reprobe_never_violates(self):
        oracle = LocalProbeOracle(_model(path_graph(3)), source=0)
        oracle.probe(0, 1)
        oracle.probe(1, 2)
        # all were legal; re-asking in any orientation stays legal
        assert oracle.probe(2, 1) is True
        assert oracle.queries == 2

    def test_budget_and_locality_compose(self):
        oracle = LocalProbeOracle(
            _model(path_graph(5)), source=0, budget=2
        )
        oracle.probe(0, 1)
        oracle.probe(1, 2)
        with pytest.raises(ProbeBudgetExceeded):
            oracle.probe(2, 3)

    def test_open_cluster_merging_is_impossible(self):
        # Under locality, every open probe touches the reached set, so
        # reach grows one vertex at a time; verify on a branching graph.
        g = ExplicitGraph([(0, 1), (0, 2), (1, 3), (2, 3)])
        oracle = LocalProbeOracle(TablePercolation(g, 1.0, seed=0), source=0)
        oracle.probe(0, 1)
        oracle.probe(0, 2)
        oracle.probe(1, 3)
        assert oracle.is_reached(3)
        oracle.probe(2, 3)
        assert oracle.reached == frozenset({0, 1, 2, 3})


class TestOneModelCallPerProbe:
    """A new probe is one ``edge_state`` call, checked after locality
    and the budget; the ``is_edge``/``is_open`` pair is never asked."""

    @staticmethod
    def _row_model(graph):
        index = edge_index_for(graph)
        model = TablePercolation(graph, 0.6, 0).chunk_draw(index, [4]).model(0)
        calls = []
        edge_state = model.edge_state

        def counting(u, v):
            calls.append((u, v))
            return edge_state(u, v)

        def refuse(*args):
            raise AssertionError("probe must not call this")

        model.edge_state = counting
        model.is_open = refuse
        graph.is_edge = refuse
        return model, edge_state, calls

    def test_each_new_probe_is_one_edge_state_call(self):
        graph = Hypercube(4)
        model, edge_state, calls = self._row_model(graph)
        oracle = ProbeOracle(model)
        for u, v in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (0, 1)]:
            assert oracle.probe(u, v) is edge_state(u, v)
        assert calls == [(0, 1), (0, 2), (1, 3)]
        assert oracle.queries == 3

    def test_errors_keep_their_order(self):
        # path 0-1-2-3-4, one probe of budget: reached {0, 1}.
        oracle = LocalProbeOracle(_model(path_graph(5)), source=0, budget=1)
        oracle.probe(0, 1)
        # A non-edge touching nothing reached, budget spent: locality.
        with pytest.raises(LocalityViolation):
            oracle.probe(2, 4)
        # A non-edge touching the reached set, budget spent: budget.
        with pytest.raises(ProbeBudgetExceeded):
            oracle.probe(1, 3)
        # With budget left, the same non-edge: not an edge.
        oracle = LocalProbeOracle(_model(path_graph(5)), source=0, budget=2)
        oracle.probe(0, 1)
        with pytest.raises(ValueError, match="not an edge"):
            oracle.probe(1, 3)
        assert oracle.queries == 1

    def test_oracle_model_checks_budget_before_the_edge(self):
        oracle = ProbeOracle(_model(path_graph(5)), budget=1)
        oracle.probe(2, 3)
        with pytest.raises(ProbeBudgetExceeded):
            oracle.probe(0, 4)
