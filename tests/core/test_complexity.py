"""Tests for repro.core.complexity — conditioning and statistics."""

import itertools

import pytest

from repro.core.complexity import measure_complexity
from repro.graphs.explicit import ExplicitGraph, path_graph
from repro.graphs.hypercube import Hypercube
from repro.percolation.models import PercolationModel
from repro.routers.bfs import LocalBFSRouter
from repro.routers.waypoint import WaypointRouter
from repro.runtime.chunkexec import TALLY


class TestExactConditioning:
    def test_only_connected_trials_attempted(self):
        g = path_graph(3)
        m = measure_complexity(
            g, p=0.5, router=LocalBFSRouter(), pair=(0, 3), trials=40, seed=1
        )
        for rec in m.records:
            assert rec.attempted == rec.connected

    def test_connection_rate_matches_theory(self):
        # path of 3 edges: Pr[0 ~ 3] = p^3
        g = path_graph(3)
        p = 0.7
        m = measure_complexity(
            g, p=p, router=LocalBFSRouter(), pair=(0, 3), trials=600, seed=2
        )
        assert abs(m.connection_rate - p**3) < 0.08

    def test_complete_router_always_succeeds_conditioned(self):
        g = Hypercube(4)
        m = measure_complexity(
            g, p=0.6, router=LocalBFSRouter(), trials=30, seed=3
        )
        if m.connected_trials:
            assert m.success_rate == 1.0

    def test_budget_censors(self):
        g = Hypercube(4)
        m = measure_complexity(
            g,
            p=0.9,
            router=LocalBFSRouter(),
            trials=20,
            seed=4,
            budget=3,  # far below what BFS needs to cross the cube
        )
        assert m.censored_trials > 0
        for rec in m.records:
            if rec.result is not None and rec.result.censored:
                assert rec.result.queries <= 3

    def test_exact_conditional_expectation_tiny_graph(self):
        # Graph: two parallel 2-edge routes 0-1-3 and 0-2-3.  Enumerate
        # all 2^4 subgraphs to get the exact conditional expectation of
        # BFS queries given 0 ~ 3, then compare to the harness estimate.
        edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
        g = ExplicitGraph(edges)
        p = 0.5
        router = LocalBFSRouter()

        exact_total = 0.0
        exact_weight = 0.0

        class FixedModel(PercolationModel):
            def __init__(self, states):
                super().__init__(g, p)
                self._states = states

            def is_open(self, u, v):
                return self._states[g.edge_key(u, v)]

        for states in itertools.product([False, True], repeat=4):
            assignment = dict(zip([g.edge_key(*e) for e in edges], states))
            model = FixedModel(assignment)
            from repro.percolation.cluster import connected

            if not connected(model, 0, 3):
                continue
            result = router.route(model, 0, 3)
            assert result.success
            exact_total += result.queries
            exact_weight += 1
        exact_mean = exact_total / exact_weight  # p=1/2: all equally likely

        m = measure_complexity(
            g, p=p, router=router, pair=(0, 3), trials=800, seed=5
        )
        estimate = m.query_summary().mean
        assert abs(estimate - exact_mean) < 0.25

    def test_max_conditioned_stops_early(self):
        g = path_graph(2)
        m = measure_complexity(
            g,
            p=0.9,
            router=LocalBFSRouter(),
            pair=(0, 2),
            trials=1000,
            seed=6,
            max_conditioned=5,
        )
        assert sum(r.attempted for r in m.records) == 5
        assert m.trials < 1000


def test_measure_complexity_without_a_runner_runs_on_the_kernel(monkeypatch):
    # With no runner the trials run on a serial runner in this process,
    # so they reach the chunk kernel like any definition's trials.
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    before = TALLY.copy()
    m = measure_complexity(
        Hypercube(6), p=0.5, router=WaypointRouter(), trials=12, seed=4
    )
    assert m.trials == 12
    assert TALLY - before == {"kernel": 12}


class TestRouterConditioning:
    def test_agrees_with_exact_for_complete_router(self):
        g = Hypercube(4)
        router = LocalBFSRouter()
        exact = measure_complexity(
            g, p=0.5, router=router, trials=40, seed=7, conditioning="exact"
        )
        via_router = measure_complexity(
            g, p=0.5, router=router, trials=40, seed=7, conditioning="router"
        )
        # identical seeds → identical percolations → identical verdicts
        assert [r.connected for r in exact.records] == [
            r.connected for r in via_router.records
        ]

    def test_rejects_incomplete_router(self):
        with pytest.raises(ValueError):
            measure_complexity(
                Hypercube(3),
                p=0.5,
                router=WaypointRouter(max_radius=1),
                trials=2,
                seed=0,
                conditioning="router",
            )

    def test_rejects_budget(self):
        with pytest.raises(ValueError):
            measure_complexity(
                Hypercube(3),
                p=0.5,
                router=LocalBFSRouter(),
                trials=2,
                seed=0,
                conditioning="router",
                budget=10,
            )


class TestStatistics:
    def _measurement(self):
        return measure_complexity(
            Hypercube(4),
            p=0.7,
            router=LocalBFSRouter(),
            trials=40,
            seed=8,
        )

    def test_query_summary_counts_successes(self):
        m = self._measurement()
        assert m.query_summary().count == len(m.successes())

    def test_empirical_cdf_monotone(self):
        m = self._measurement()
        cdf = m.empirical_cdf([1, 10, 50, 1000])
        assert cdf == sorted(cdf)
        assert all(0 <= x <= 1 for x in cdf)

    def test_cdf_at_huge_threshold_is_success_rate(self):
        m = self._measurement()
        assert m.empirical_cdf([10**9])[0] == pytest.approx(m.success_rate)

    def test_path_lengths_at_least_distance(self):
        m = self._measurement()
        for length in m.path_lengths():
            assert length >= 4  # antipodal pair in H_4

    def test_success_rate_ci(self):
        m = self._measurement()
        rate, lo, hi = m.success_rate_ci()
        assert lo <= rate <= hi

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            measure_complexity(
                Hypercube(3), p=0.5, router=LocalBFSRouter(), trials=0
            )
        with pytest.raises(ValueError):
            measure_complexity(
                Hypercube(3),
                p=0.5,
                router=LocalBFSRouter(),
                trials=2,
                conditioning="bogus",
            )

    def test_deterministic_given_seed(self):
        a = measure_complexity(
            Hypercube(4), p=0.6, router=LocalBFSRouter(), trials=15, seed=9
        )
        b = measure_complexity(
            Hypercube(4), p=0.6, router=LocalBFSRouter(), trials=15, seed=9
        )
        assert a.query_counts() == b.query_counts()
        assert a.connected_trials == b.connected_trials
