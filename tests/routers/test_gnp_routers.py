"""Tests for repro.routers.gnp (Theorems 10 and 11)."""

import pytest

from repro.core.result import FailureReason
from repro.core.router import Router
from repro.percolation.cluster import connected
from repro.percolation.models import GnpPercolation
from repro.routers.gnp import (
    GnpBidirectionalRouter,
    GnpLocalRouter,
    GnpUnidirectionalRouter,
)

ROUTERS = [
    GnpLocalRouter(),
    GnpBidirectionalRouter(),
    GnpUnidirectionalRouter(),
]


def _route(router, n, p, seed, budget=None):
    model = GnpPercolation(n=n, p=p, seed=seed)
    u, v = model.graph.canonical_pair()
    return model, router.route(model, u, v, budget=budget)


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
class TestAllGnpRouters:
    def test_dense_graph_succeeds(self, router):
        model, result = _route(router, n=40, p=0.5, seed=0)
        assert result.success

    def test_completeness(self, router):
        for seed in range(12):
            model = GnpPercolation(n=30, p=2.5 / 30, seed=seed)
            u, v = model.graph.canonical_pair()
            result = router.route(model, u, v)
            assert result.success == connected(model, u, v), seed

    def test_path_valid(self, router):
        for seed in range(6):
            model, result = _route(router, n=50, p=0.15, seed=seed)
            if result.success:
                assert result.path[0] == 0
                assert result.path[-1] == 49
                for a, b in zip(result.path, result.path[1:]):
                    assert model.is_open(a, b)

    def test_empty_graph_fails(self, router):
        model, result = _route(router, n=20, p=0.0, seed=0)
        assert not result.success

    def test_budget_respected(self, router):
        model = GnpPercolation(n=60, p=2.0 / 60, seed=1)
        u, v = model.graph.canonical_pair()
        assert router.route(model, u, v).queries > 10
        # The replay and the oracle-driven reference stop at the same
        # probe: the budget is spent exactly, and nothing is returned.
        for result in (
            router.route(model, u, v, budget=10),
            Router.route(router, model, u, v, budget=10),
        ):
            assert result.failure is FailureReason.BUDGET
            assert result.queries == 10
            assert result.path is None

    def test_source_equals_target(self, router):
        model = GnpPercolation(n=10, p=0.5, seed=0)
        result = router.route(model, 4, 4)
        assert result.success and result.path == [4]


class TestComplexityOrdering:
    def test_bidirectional_beats_local(self):
        # Θ(n^{3/2}) vs Θ(n²): at n=400 the gap is clear on averages.
        n, c = 400, 3.0
        totals = {"local": 0, "bidi": 0}
        hits = 0
        for seed in range(10):
            model = GnpPercolation(n=n, p=c / n, seed=seed)
            u, v = model.graph.canonical_pair()
            if not connected(model, u, v):
                continue
            local = GnpLocalRouter().route(model, u, v)
            bidi = GnpBidirectionalRouter().route(model, u, v)
            assert local.success and bidi.success
            totals["local"] += local.queries
            totals["bidi"] += bidi.queries
            hits += 1
        assert hits >= 5
        assert totals["bidi"] < 0.5 * totals["local"]

    def test_unidirectional_oracle_matches_local_order(self):
        # A3: oracle access alone does not help; growth policy does.
        n, c = 300, 3.0
        totals = {"local": 0, "uni": 0}
        hits = 0
        for seed in range(8):
            model = GnpPercolation(n=n, p=c / n, seed=seed)
            u, v = model.graph.canonical_pair()
            if not connected(model, u, v):
                continue
            local = GnpLocalRouter().route(model, u, v)
            uni = GnpUnidirectionalRouter().route(model, u, v)
            totals["local"] += local.queries
            totals["uni"] += uni.queries
            hits += 1
        assert hits >= 4
        ratio = totals["uni"] / totals["local"]
        assert 0.5 < ratio < 2.0

    def test_local_complexity_near_quadratic(self):
        # Theorem 10: expected Θ(n²) — check n→2n scales queries ~4x.
        c = 3.0
        means = {}
        for n in (150, 300):
            total = hits = 0
            for seed in range(12):
                model = GnpPercolation(n=n, p=c / n, seed=seed)
                u, v = model.graph.canonical_pair()
                if not connected(model, u, v):
                    continue
                result = GnpLocalRouter().route(model, u, v)
                total += result.queries
                hits += 1
            assert hits >= 6
            means[n] = total / hits
        ratio = means[300] / means[150]
        assert 2.0 < ratio < 8.0  # ~4 expected, generous noise margins

    def test_direct_edge_shortcut(self):
        model = GnpPercolation(n=10, p=1.0, seed=0)
        result = GnpBidirectionalRouter().route(model, 0, 9)
        assert result.success
        assert result.queries == 1
        assert result.path == [0, 9]
