"""Golden + property parity for the routing engines.

The routing stage of the chunk kernel replays each router's exact
probe sequence row by row over the chunk's masks, so every
:class:`RoutingResult` — success flag, query count, path, failure
reason — must be ``repr``-identical to ``router.route`` on the same
percolated graph.  The golden grid pins the supported ingredient
combinations (including budget-exhaustion boundaries and disconnected
trials); the hypothesis suite drives the engines against the per-trial
reference over random graphs, masks and pairs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.complexity import complexity_specs
from repro.core.traffic import FixedTraffic, traffic_specs
from repro.graphs.explicit import ExplicitGraph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.kernels.routing import register_router_kernel, router_kernel_for
from repro.kernels.topology import build_edge_index
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.waypoint import HypercubeWaypointRouter, WaypointRouter
from repro.runtime import TrialExecutionError
from repro.runtime.chunkexec import TALLY, execute_specs
from tests.percolation.test_shared_index import GRAPHS, IDS


def _assert_parity(specs, *, routing="kernel"):
    reference = [spec.execute() for spec in specs]
    before = TALLY.copy()
    got = execute_specs(specs)
    ran = TALLY - before
    assert ran["kernel"] == len(specs)
    per_trial = len(specs) if routing == "per-trial" else 0
    assert ran["routing per-trial"] == per_trial
    assert repr(got) == repr(reference)
    return got


CASES = [
    pytest.param(
        Hypercube(5), 0.6, LocalBFSRouter(), None, "exact",
        id="local-bfs-exact",
    ),
    pytest.param(
        Hypercube(5), 0.25, LocalBFSRouter(), 200, "none",
        id="local-bfs-disconnected-exhausted",
    ),
    pytest.param(
        Hypercube(5), 0.55, BidirectionalBFSRouter(), 100, "exact",
        id="bidirectional-budget",
    ),
    pytest.param(
        Hypercube(5), 0.25, BidirectionalBFSRouter(), 200, "none",
        id="bidirectional-disconnected",
    ),
    pytest.param(
        Hypercube(6), 0.55, BidirectionalBFSRouter(), None, "router",
        id="bidirectional-router-conditioning",
    ),
    pytest.param(
        Mesh(2, 6), 0.7, WaypointRouter(), 300, "exact",
        id="mesh-waypoint-budget",
    ),
    pytest.param(
        Mesh(2, 6), 0.6, WaypointRouter(max_radius=2), 300, "exact",
        id="waypoint-capped-gave-up",
    ),
    pytest.param(
        Hypercube(6), 0.6, HypercubeWaypointRouter(alpha=0.3), 200,
        "exact",
        id="hypercube-waypoint-alpha",
    ),
    pytest.param(
        Hypercube(5), 0.7, WaypointRouter(), 8, "none",
        id="waypoint-tiny-budget",
    ),
]


@pytest.mark.parametrize("graph,p,router,budget,conditioning", CASES)
def test_router_engine_matches_per_trial(
    graph, p, router, budget, conditioning
):
    specs = complexity_specs(
        graph,
        p=p,
        router=router,
        trials=16,
        seed=43,
        budget=budget,
        conditioning=conditioning,
        key=("routing-golden",),
    )
    _assert_parity(specs)


@pytest.mark.parametrize(
    "router",
    [LocalBFSRouter(), BidirectionalBFSRouter(), WaypointRouter()],
    ids=["local", "bidirectional", "waypoint"],
)
@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
def test_budget_exhaustion_boundaries(router, budget):
    # Tiny budgets make almost every trial raise mid-neighbourhood;
    # the exact query count at the raise (and the tie between "budget
    # hit" and "target discovered on the same probe") must match the
    # per-trial oracle.
    specs = complexity_specs(
        Hypercube(4),
        p=0.6,
        router=router,
        trials=16,
        seed=71,
        budget=budget,
        conditioning="none",
        key=("budget-boundary",),
    )
    got = _assert_parity(specs)
    from repro.core.result import FailureReason

    assert any(
        r.value.result.failure is FailureReason.BUDGET for r in got
    )


@pytest.mark.parametrize(
    "router",
    [LocalBFSRouter(), BidirectionalBFSRouter(), WaypointRouter()],
    ids=["local", "bidirectional", "waypoint"],
)
def test_source_equals_target(router):
    graph = Hypercube(4)
    v = next(iter(graph.vertices()))
    specs = complexity_specs(
        graph,
        p=0.5,
        router=router,
        pair=(v, v),
        trials=4,
        seed=9,
        key=("self-pair",),
    )
    got = _assert_parity(specs)
    assert all(r.value.result.path == [v] for r in got)
    assert all(r.value.result.queries == 0 for r in got)


def test_kernel_declines_budget_below_one():
    # budget < 1 makes the per-trial ProbeOracle raise ValueError; the
    # kernel declines so that error keeps surfacing through the
    # unchanged per-trial path.
    index = build_edge_index(Hypercube(3))
    assert router_kernel_for(LocalBFSRouter(), index, 0) is None
    assert router_kernel_for(LocalBFSRouter(), index, 1) is not None


def test_waypoint_declines_on_disconnected_base_graph():
    # WaypointRouter needs a shortest path in the *base* graph; on a
    # disconnected pair that lookup fails.  The engine declines the
    # batch at run time, so routing runs per trial, and the per-trial
    # error surfaces unchanged.
    graph = ExplicitGraph(
        [(0, 1), (2, 3)], vertices=range(4), name="two-components"
    )
    specs = complexity_specs(
        graph,
        p=1.0,
        router=WaypointRouter(),
        pair=(0, 3),
        trials=2,
        seed=5,
        conditioning="none",
        key=("disconnected-base",),
    )
    before = TALLY.copy()
    with pytest.raises(TrialExecutionError) as kernel_err:
        execute_specs(specs)
    assert TALLY - before == {
        "kernel": 2, "conditioning per-trial": 2, "routing per-trial": 2,
    }
    with pytest.raises(TrialExecutionError) as fallback_err:
        specs[0].execute()
    assert kernel_err.value.key == fallback_err.value.key


class _SubclassedLocalBFS(LocalBFSRouter):
    """Same algorithm, different type: must not inherit the kernel."""


def test_unregistered_subclass_routes_per_trial_identically():
    specs = complexity_specs(
        Hypercube(4),
        p=0.6,
        router=_SubclassedLocalBFS(),
        trials=8,
        seed=13,
        budget=50,
        key=("subclass",),
    )
    _assert_parity(specs, routing="per-trial")


def test_register_router_kernel_is_exact_type():
    class _Custom(LocalBFSRouter):
        name = "custom"

    class _CustomChild(_Custom):
        name = "custom-child"

    sentinel = object()
    register_router_kernel(_Custom, lambda router, index, budget: sentinel)
    try:
        index = build_edge_index(Hypercube(3))
        assert router_kernel_for(_Custom(), index, None) is sentinel
        assert router_kernel_for(_CustomChild(), index, None) is None
    finally:
        from repro.kernels.routing import _ROUTER_KERNELS

        _ROUTER_KERNELS.pop(_Custom, None)


class _CountedLocalBFS(LocalBFSRouter):
    """LocalBFS under its own type, registered with a logging engine."""


def test_one_engine_routes_pair_and_demand_chunks():
    # One registration serves both workload kinds: a probe-pair chunk
    # routes its connected trials, a demand chunk every commodity of
    # every trial, each as one route_pairs call on the same engine.
    calls = []

    class _LoggingEngine:
        def __init__(self, router, index, budget):
            self._engine = router_kernel_for(LocalBFSRouter(), index, budget)

        def route_pairs(self, masks, sources, targets):
            calls.append((len(sources), sorted(set(zip(sources, targets)))))
            return self._engine.route_pairs(masks, sources, targets)

    register_router_kernel(_CountedLocalBFS, _LoggingEngine)
    try:
        graph = Hypercube(4)
        pair_specs = complexity_specs(
            graph, p=0.5, router=_CountedLocalBFS(), trials=10, seed=8,
            budget=60, key=("pair",),
        )
        demands = FixedTraffic(((0, 15), (6, 9), (3, 12)))
        demand_specs = traffic_specs(
            graph, 0.5, _CountedLocalBFS(), demands, trials=10, seed=8,
            budget=60, key=("demand",),
        )
        got = _assert_parity(pair_specs)
        connected = sum(r.value.connected for r in got)
        assert calls == [(connected, [(0, 15)])]
        calls.clear()
        _assert_parity(demand_specs)
        assert calls == [(30, [(0, 15), (3, 12), (6, 9)])]
    finally:
        from repro.kernels.routing import _ROUTER_KERNELS

        _ROUTER_KERNELS.pop(_CountedLocalBFS, None)


def test_waypoint_engine_builds_a_pairs_vector_once(monkeypatch):
    # The engine caches each pair's waypoint vector for its lifetime,
    # so a probe-pair workload runs one geodesic lookup however many
    # chunks it routes.
    lookups = []
    base = Hypercube.shortest_path

    def counted(self, u, v):
        lookups.append((u, v))
        return base(self, u, v)

    monkeypatch.setattr(Hypercube, "shortest_path", counted)
    graph = Hypercube(5)
    specs = complexity_specs(
        graph, p=0.9, router=WaypointRouter(), trials=24, seed=3,
        conditioning="none", key=("one-vector",),
    )
    before = TALLY.copy()
    got = execute_specs(specs[:12]) + execute_specs(specs[12:])
    assert TALLY - before == {"kernel": 24}  # routed by the engine
    assert lookups == [graph.canonical_pair()]
    assert repr(got) == repr([spec.execute() for spec in specs])


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_adjacency_is_neighbor_ordered(graph):
    # Probe order is observable, so every engine reads this order.
    index = build_edge_index(graph)
    code = index.code
    eid = {key: e for e, key in enumerate(graph.edges())}
    assert index.adjacency() == [
        [(code[w], eid[graph.edge_key(v, w)]) for w in graph.neighbors(v)]
        for v in graph.vertices()
    ]


# -- hypothesis: random graphs x masks x pairs -------------------------


_ROUTERS = [LocalBFSRouter(), BidirectionalBFSRouter(), WaypointRouter()]


@st.composite
def _random_case(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    # A spanning path keeps the base graph connected (WaypointRouter
    # needs a base shortest path); extra random edges vary the shape.
    spine = [(i, i + 1) for i in range(n - 1)]
    possible = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
    ]
    extra = draw(
        st.lists(
            st.sampled_from(possible), unique=True, max_size=len(possible)
        )
        if possible
        else st.just([])
    )
    source = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    p = draw(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    )
    budget = draw(st.one_of(st.none(), st.integers(1, 12)))
    router = draw(st.sampled_from(range(len(_ROUTERS))))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return (n, spine + extra, source, target, p, budget, router, seed)


@settings(max_examples=60, deadline=None)
@given(_random_case())
def test_batched_routing_equals_per_trial_probe_for_probe(case):
    n, edges, source, target, p, budget, router_i, seed = case
    graph = ExplicitGraph(edges, vertices=range(n), name="random")
    specs = complexity_specs(
        graph,
        p=p,
        router=_ROUTERS[router_i],
        pair=(source, target),
        trials=5,
        seed=seed,
        budget=budget,
        conditioning="none",
        key=("property",),
    )
    reference = [spec.execute() for spec in specs]
    before = TALLY.copy()
    got = execute_specs(specs)
    assert TALLY - before == {"kernel": 5}  # routed by the engine
    assert repr(got) == repr(reference)
