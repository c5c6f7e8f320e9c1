"""The demand-matrix trial unit (repro.core.traffic).

Contracts under test:

* demand generators are pure functions of ``(graph, trial_seed)`` —
  same seed, same matrix — and validate their arguments eagerly;
* :func:`summarize_traffic` is the single congestion accountant:
  link loads count delivered paths per undirected edge, mean load
  averages over *all* edges;
* a one-commodity :class:`FixedTraffic` trial routes exactly the pair
  a single-pair ``run_trial`` routes under ``conditioning="none"``,
  per trial and through the chunk kernel, for registered and
  unregistered routers alike;
* ``TrialRecord.__repr__`` without traffic is byte-identical to the
  pre-traffic dataclass repr — the golden-table gate for all existing
  experiments.
"""

import math

import pytest

from repro.core.complexity import TrialRecord, complexity_specs, run_trial
from repro.core.result import RoutingResult
from repro.core.traffic import (
    AllToAllTraffic,
    DemandMatrix,
    FixedTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TrafficResult,
    assemble_traffic,
    run_traffic_trial,
    summarize_traffic,
    traffic_specs,
)
from repro.graphs.hypercube import Hypercube
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.dfs import DirectedDFSRouter, GreedyRouter
from repro.routers.waypoint import HypercubeWaypointRouter, WaypointRouter
from repro.runtime import TrialSpec
from repro.runtime.chunkexec import execute_specs
from repro.util.rng import derive_seed


@pytest.fixture(scope="module")
def graph():
    return Hypercube(4)


class TestDemandMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DemandMatrix(pairs=())

    def test_commodities(self, graph):
        verts = list(graph.vertices())
        dm = DemandMatrix(pairs=((verts[0], verts[1]), (verts[2], verts[3])))
        assert dm.commodities == 2


class TestGenerators:
    @pytest.mark.parametrize(
        "factory",
        [
            PermutationTraffic(5),
            PermutationTraffic(1),
            HotspotTraffic(4, 0.5),
            HotspotTraffic(4, 0.0),
            HotspotTraffic(4, 1.0),
            AllToAllTraffic(3),
        ],
    )
    def test_deterministic_in_seed(self, graph, factory):
        assert factory(graph, 1234) == factory(graph, 1234)
        # Different seeds almost surely give a different matrix on
        # 16 vertices; equality here would signal a seed leak.
        assert factory(graph, 1234) != factory(graph, 99999)

    def test_permutation_pairs_distinct_endpoints(self, graph):
        dm = PermutationTraffic(6)(graph, 7)
        sources = [s for s, _ in dm.pairs]
        targets = [t for _, t in dm.pairs]
        assert len(set(sources)) == 6
        assert len(set(targets)) == 6
        assert all(s != t for s, t in dm.pairs)

    def test_hotspot_extremes(self, graph):
        pure = HotspotTraffic(5, 1.0)(graph, 3)
        targets = {t for _, t in pure.pairs}
        assert len(targets) == 1  # skew 1: everyone hits the hotspot
        balanced = HotspotTraffic(5, 0.0)(graph, 3)
        assert len({t for _, t in balanced.pairs}) > 1

    def test_all_to_all_is_ordered_pairs(self, graph):
        dm = AllToAllTraffic(3)(graph, 11)
        assert dm.commodities == 6  # 3 * 2 ordered pairs
        assert len(set(dm.pairs)) == 6

    def test_too_many_commodities_rejected(self, graph):
        with pytest.raises(ValueError):
            PermutationTraffic(17)(graph, 0)
        with pytest.raises(ValueError):
            HotspotTraffic(16, 0.5)(graph, 0)

    def test_fixed_traffic_validates_vertices(self, graph):
        verts = list(graph.vertices())
        ok = FixedTraffic(((verts[0], verts[3]),))
        assert ok(graph, 5).pairs == ((verts[0], verts[3]),)
        bad = FixedTraffic((("nope", verts[0]),))
        with pytest.raises(Exception):
            bad(graph, 5)


class TestSummarize:
    def test_link_loads_and_mean(self, graph):
        verts = list(graph.vertices())
        # Two delivered paths sharing one edge, one failed commodity.
        path_a = graph.shortest_path(verts[0], verts[3])
        results = [
            RoutingResult(
                source=path_a[0], target=path_a[-1], success=True,
                queries=4, path=path_a, router="x",
            ),
            RoutingResult(
                source=path_a[0], target=path_a[-1], success=True,
                queries=6, path=path_a, router="x",
            ),
            RoutingResult(
                source=verts[1], target=verts[2], success=False,
                queries=9, failure="gave_up", router="x",
            ),
        ]
        traffic = summarize_traffic(graph, results)
        assert traffic.commodities == 3
        assert traffic.delivered == 2
        assert traffic.delivered_mask == (True, True, False)
        assert traffic.queries == (4, 6, 9)
        assert traffic.max_link_load == 2
        carried = 2 * (len(path_a) - 1)
        assert traffic.mean_link_load == carried / graph.num_edges()
        assert traffic.routability == pytest.approx(2 / 3)
        assert traffic.total_queries == 19
        assert traffic.queries_per_delivered == pytest.approx(19 / 2)

    def test_nothing_delivered_is_nan_cost(self, graph):
        verts = list(graph.vertices())
        results = [
            RoutingResult(
                source=verts[0], target=verts[1], success=False,
                queries=2, failure="gave_up", router="x",
            )
        ]
        traffic = summarize_traffic(graph, results)
        assert traffic.max_link_load == 0
        assert traffic.mean_link_load == 0.0
        assert math.isnan(traffic.queries_per_delivered)

    def test_result_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrafficResult(
                commodities=2, delivered=1, queries=(1,),
                delivered_mask=(True, False), max_link_load=0,
                mean_link_load=0.0,
            )
        with pytest.raises(ValueError):
            TrafficResult(
                commodities=2, delivered=2, queries=(1, 2),
                delivered_mask=(True, False), max_link_load=0,
                mean_link_load=0.0,
            )


_ONE_COMMODITY_ROUTERS = [
    LocalBFSRouter(),
    BidirectionalBFSRouter(),
    WaypointRouter(),
    HypercubeWaypointRouter(),
    # No routing engine: the per-trial loop.
    DirectedDFSRouter(),
    GreedyRouter(),
]


def _assert_routes_like_run_trial(graph, router, budget):
    source, target = graph.canonical_pair()
    demands = FixedTraffic(((source, target),))
    p = 0.6
    case = (router.name, budget)
    for t in range(8):
        trial_seed = derive_seed(31, "one-commodity", t)
        record = run_traffic_trial(
            graph, p, router, demands, 0, trial_seed, budget=budget
        )
        pair = run_trial(
            graph, p, router, source, target, 0, trial_seed,
            budget=budget, conditioning="none",
        )
        expected = summarize_traffic(graph, [pair.result])
        assert record.traffic == expected, case
        assert record.connected == pair.connected, case
        assert record.result is None, case

    # The same check with both sides executed as chunks: the pair
    # specs' (trial, seed) tails re-pointed at the traffic workload.
    pair_specs = complexity_specs(
        graph, p, router, trials=12, seed=5, budget=budget,
        conditioning="none",
    )
    traffic_workload = traffic_specs(
        graph, p, router, demands, trials=1, budget=budget
    )[0].workload
    demand_specs = [
        TrialSpec(key=spec.key, args=spec.args, workload=traffic_workload)
        for spec in pair_specs
    ]
    pairs = [r.value for r in execute_specs(pair_specs)]
    traffics = [r.value for r in execute_specs(demand_specs)]
    for record, pair in zip(traffics, pairs):
        expected = summarize_traffic(graph, [pair.result])
        assert record.traffic == expected, case
        assert record.connected == pair.connected, case


class TestDegenerateSinglePair:
    def test_one_commodity_routes_like_run_trial(self, graph):
        for router in _ONE_COMMODITY_ROUTERS:
            for budget in (None, 7, 40):
                _assert_routes_like_run_trial(graph, router, budget)

    def test_repr_without_traffic_is_pre_refactor_dataclass_repr(self):
        record = TrialRecord(trial=3, seed=17, connected=True, result=None)
        assert repr(record) == (
            "TrialRecord(trial=3, seed=17, connected=True, result=None)"
        )

    def test_repr_with_traffic_appends_field(self, graph):
        source, target = graph.canonical_pair()
        record = run_traffic_trial(
            graph, 0.8, LocalBFSRouter(),
            FixedTraffic(((source, target),)), trial=0, trial_seed=1,
        )
        assert repr(record).startswith("TrialRecord(trial=0,")
        assert "traffic=TrafficResult(" in repr(record)


class TestSpecs:
    def test_traffic_specs_shape(self, graph):
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(3),
            trials=4, seed=9, key=("tt",),
        )
        assert [spec.key for spec in specs] == [("tt", t) for t in range(4)]
        assert all(spec.workload is not None for spec in specs)
        assert specs[0].args == (0, derive_seed(9, "traffic", 0))
        # One shared workload for the whole sweep point.
        ids = {spec.workload.workload_id for spec in specs}
        assert len(ids) == 1

    def test_specs_execute_deterministically(self, graph):
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(3),
            trials=3, seed=9,
        )
        again = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(3),
            trials=3, seed=9,
        )
        assert [repr(s.execute().value) for s in specs] == [
            repr(s.execute().value) for s in again
        ]


class TestMeasurement:
    def test_assemble_and_metrics(self, graph):
        router = LocalBFSRouter()
        specs = traffic_specs(
            graph, 0.85, router, PermutationTraffic(4), trials=6, seed=2,
        )
        records = [s.execute().value for s in specs]
        m = assemble_traffic(graph, 0.85, router, records)
        assert m.trials == 6
        assert m.offered == 24
        assert 0 <= m.delivered <= m.offered
        assert 0.0 <= m.routability <= 1.0
        assert 0.0 <= m.full_delivery_rate <= 1.0
        assert m.max_link_load() >= m.median_max_link_load() >= 0
        assert m.mean_link_load() >= 0.0

    def test_assemble_rejects_pairwise_records(self, graph):
        record = TrialRecord(trial=0, seed=1, connected=True, result=None)
        with pytest.raises(ValueError):
            assemble_traffic(graph, 0.5, LocalBFSRouter(), [record])
