"""Tests for repro.routers.dfs (directed DFS and greedy)."""

import pytest

from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.explicit import ExplicitGraph, path_graph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.percolation.cluster import connected
from repro.percolation.models import PercolationModel, TablePercolation
from repro.routers.dfs import DirectedDFSRouter, GreedyRouter
from tests.routers.conftest import route_and_check


class TestDirectedDFS:
    def test_finds_path_at_p1(self):
        result, _ = route_and_check(DirectedDFSRouter(), Hypercube(5), 1.0, 0)
        assert result.success
        # directed DFS walks straight down the metric at p=1
        assert result.path_length == 5
        assert result.queries == 5

    def test_complete(self):
        g = Mesh(2, 6)
        router = DirectedDFSRouter()
        for seed in range(12):
            model = TablePercolation(g, 0.5, seed=seed)
            u, v = g.canonical_pair()
            result = router.route(model, u, v)
            assert result.success == connected(model, u, v), seed

    def test_on_double_tree(self):
        g = DoubleBinaryTree(4)
        router = DirectedDFSRouter()
        found = 0
        for seed in range(15):
            result, model = route_and_check(
                router, g, p=0.85, seed=seed
            )
            if result.success:
                found += 1
                assert result.path_length >= g.diameter()
        assert found > 0

    def test_backtracks_out_of_dead_end(self):
        # 0 → 1 is a trap (dead end closer to target 3); DFS must back
        # out and take 0 → 2 → 3.
        g = ExplicitGraph([(0, 1), (0, 2), (2, 3), (1, 9), (9, 3)])
        model = TablePercolation(g, 1.0, seed=0)

        class RiggedModel(PercolationModel):
            def is_open(self, u, v):
                return g.edge_key(u, v) != g.edge_key(9, 3)

        result = DirectedDFSRouter().route(RiggedModel(g, 1.0), 0, 3)
        assert result.success
        assert result.path == [0, 2, 3]

    def test_source_equals_target(self):
        g = path_graph(2)
        model = TablePercolation(g, 1.0, seed=0)
        result = DirectedDFSRouter().route(model, 0, 0)
        assert result.success and result.queries == 0


class TestGreedy:
    def test_succeeds_at_p1(self):
        result, _ = route_and_check(GreedyRouter(), Hypercube(6), 1.0, 0)
        assert result.success
        assert result.path_length == 6  # strictly monotone

    def test_not_complete(self):
        assert not GreedyRouter().is_complete

    def test_fails_when_only_detours_exist(self):
        # Cycle 0-1-2-3-4-5: route 0 → 3.  Close edge (2, 3): the only
        # open route goes 0-5-4-3, whose first step is *not* closer to 3
        # (d(5,3)=2 = d(0,3)... actually d(0,3)=3, d(5,3)=2 so 5 is
        # closer; close (4,3) as well to kill that direction too).
        from repro.graphs.explicit import cycle_graph

        g = cycle_graph(6)

        class RiggedModel(PercolationModel):
            def is_open(self, u, v):
                return g.edge_key(u, v) not in {(2, 3), (3, 4)}

        model = RiggedModel(g, 1.0)
        result = GreedyRouter().route(model, 0, 3)
        assert not result.success  # target unreachable monotonically

    def test_success_rate_below_complete_router_on_faulty_hypercube(self):
        g = Hypercube(7)
        p = 0.55
        greedy_wins = dfs_wins = 0
        for seed in range(25):
            model = TablePercolation(g, p, seed=seed)
            u, v = g.canonical_pair()
            if not connected(model, u, v):
                continue
            if GreedyRouter().route(model, u, v).success:
                greedy_wins += 1
            if DirectedDFSRouter().route(model, u, v).success:
                dfs_wins += 1
        assert greedy_wins <= dfs_wins

    def test_monotone_path_property(self):
        g = Hypercube(6)
        for seed in range(8):
            result, _ = route_and_check(GreedyRouter(), g, p=0.8, seed=seed)
            if result.success:
                distances = [g.distance(x, g.canonical_pair()[1]) for x in result.path]
                assert distances == sorted(distances, reverse=True)
