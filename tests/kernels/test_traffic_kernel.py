"""Parity gate for demand-matrix chunks (repro.kernels.complexity).

The invariant is the same one every kernel in this package carries:
``execute_specs`` over a traffic workload must produce records
**repr-identical** to ``spec.execute()`` — same demands, same probe
counts, same congestion floats.  Golden cases pin the batched waypoint
/ BFS paths, hypothesis sweeps the parameter space, and the fallback
cases check the split behaviour (vector draw + sequential routing for
unregistered routers; full decline for unindexable workloads).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic import (
    AllToAllTraffic,
    FixedTraffic,
    HotspotTraffic,
    PermutationTraffic,
    traffic_specs,
)
from repro.graphs.clos import FatTree
from repro.graphs.hypercube import Hypercube
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.dfs import DirectedDFSRouter
from repro.routers.waypoint import HypercubeWaypointRouter, WaypointRouter
from repro.runtime import TrialExecutionError
from repro.runtime.chunkexec import chunk_runner, execute_specs


@pytest.fixture(autouse=True)
def _kernel_on(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")


def _exotic_factory(graph, p, seed):
    """A picklable percolation factory whose model has no chunk draw."""
    from repro.percolation.models import HashPercolation

    return HashPercolation(graph, p, seed=seed)


@dataclass(frozen=True)
class _FailingDemands:
    """Permutation demands that raise for one trial seed."""

    bad_seed: int

    def __call__(self, graph, trial_seed):
        if trial_seed == self.bad_seed:
            raise RuntimeError("no demands for this trial")
        return PermutationTraffic(3)(graph, trial_seed)


def _parity(specs):
    sequential = [repr(s.execute().value) for s in specs]
    kernel = [repr(r.value) for r in execute_specs(specs)]
    assert kernel == sequential


class TestGoldenParity:
    @pytest.mark.parametrize(
        "router",
        [LocalBFSRouter(), BidirectionalBFSRouter(), HypercubeWaypointRouter()],
        ids=lambda r: r.name,
    )
    @pytest.mark.parametrize(
        "demands",
        [
            PermutationTraffic(6),
            PermutationTraffic(1),
            HotspotTraffic(5, 0.7),
            AllToAllTraffic(3),
            # A self-pair between routed pairs: one engine call splits
            # the trivial row out and must put every result back.
            FixedTraffic(((0, 15), (5, 5), (3, 12))),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_hypercube_batched_routing(self, router, demands):
        graph = Hypercube(4)
        specs = traffic_specs(
            graph, 0.75, router, demands, trials=8, seed=13
        )
        runner = chunk_runner(specs[0].workload)
        assert runner is not None
        assert runner.stages()["routing"] == "kernel"
        _parity(specs)

    def test_fattree_waypoint(self):
        graph = FatTree(4)
        specs = traffic_specs(
            graph, 0.8, WaypointRouter(), PermutationTraffic(5),
            trials=8, seed=3,
        )
        runner = chunk_runner(specs[0].workload)
        assert runner is not None
        _parity(specs)

    def test_budget_parity(self):
        graph = Hypercube(4)
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(4),
            trials=8, seed=5, budget=25,
        )
        _parity(specs)

    def test_fixed_single_pair_is_degenerate_case(self):
        graph = Hypercube(4)
        source, target = graph.canonical_pair()
        specs = traffic_specs(
            graph, 0.75, LocalBFSRouter(),
            FixedTraffic(((source, target),)), trials=8, seed=7,
        )
        _parity(specs)


class TestFallbacks:
    def test_unregistered_router_takes_sequential_routing(self):
        graph = Hypercube(4)
        specs = traffic_specs(
            graph, 0.7, DirectedDFSRouter(), PermutationTraffic(4),
            trials=6, seed=3,
        )
        runner = chunk_runner(specs[0].workload)
        assert runner is not None
        assert runner.stages() == {
            "draw": "kernel",
            "conditioning": "per-trial",
            "routing": "per-trial",
        }
        _parity(specs)

    def test_demand_factory_error_blames_its_trial(self):
        graph = Hypercube(4)
        bad_seed = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(3),
            trials=6, seed=4,
        )[3].args[1]
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), _FailingDemands(bad_seed),
            trials=6, seed=4, key=("demands",),
        )
        with pytest.raises(TrialExecutionError) as kernel_err:
            execute_specs(specs)
        with pytest.raises(TrialExecutionError) as per_trial_err:
            specs[3].execute()
        assert kernel_err.value.key == per_trial_err.value.key
        assert kernel_err.value.key == ("demands", 3)

    def test_model_without_chunk_draw_declines(self):
        graph = Hypercube(4)
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(3),
            trials=3, seed=1, model_factory=_exotic_factory,
        )
        assert chunk_runner(specs[0].workload) is None

    def test_stage_split_reports_kernel_draw_and_routing(self):
        graph = Hypercube(4)
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), PermutationTraffic(3),
            trials=3, seed=1,
        )
        runner = chunk_runner(specs[0].workload)
        assert runner.stages() == {
            "draw": "kernel",
            "conditioning": "kernel",
            "routing": "kernel",
        }


class TestHypothesisParity:
    @settings(max_examples=25, deadline=None)
    @given(
        p=st.floats(min_value=0.3, max_value=1.0),
        commodities=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        trials=st.integers(min_value=1, max_value=6),
        router_idx=st.integers(min_value=0, max_value=2),
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    )
    def test_permutation_parity(
        self, p, commodities, seed, trials, router_idx, budget
    ):
        graph = Hypercube(4)
        router = [
            LocalBFSRouter(),
            BidirectionalBFSRouter(),
            HypercubeWaypointRouter(),
        ][router_idx]
        specs = traffic_specs(
            graph, p, router, PermutationTraffic(commodities),
            trials=trials, seed=seed, budget=budget,
        )
        _parity(specs)

    @settings(max_examples=15, deadline=None)
    @given(
        skew=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_hotspot_parity(self, skew, seed):
        graph = Hypercube(4)
        specs = traffic_specs(
            graph, 0.7, LocalBFSRouter(), HotspotTraffic(5, skew),
            trials=4, seed=seed,
        )
        _parity(specs)
