"""Golden parity: the compiled chunk kernel vs the per-trial loop.

For every supported ingredient combination, ``execute_specs`` (kernel
path) must produce records ``repr``-identical to ``spec.execute()``
(per-trial path) — same trials, same seeds, same connectivity verdicts,
same :class:`RoutingResult` fields, probe for probe.  Unsupported
ingredients must *decline* into the per-trial loop, never change
results.
"""

from __future__ import annotations

import pytest

from repro.core.complexity import complexity_specs
from repro.core.router import Router
from repro.core.traffic import FixedTraffic, traffic_specs
from repro.experiments.defs.e14_site_faults import _site_factory
from repro.experiments.defs.e15_clos_faults import _node_factory
from repro.graphs.clos import FatTree
from repro.graphs.debruijn import DeBruijn
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus
from repro.kernels.routing import _ROUTER_KERNELS, register_router_kernel
from repro.percolation.models import HashPercolation, TablePercolation
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.dfs import DirectedDFSRouter
from repro.routers.waypoint import MeshWaypointRouter, WaypointRouter
from repro.runtime import TrialExecutionError
from repro.runtime.chunkexec import TALLY, chunk_runner, execute_specs


CASES = [
    pytest.param(
        Hypercube(5), 0.5, WaypointRouter(), None, "exact", None,
        id="hypercube-waypoint-exact",
    ),
    pytest.param(
        Hypercube(5), 0.3, WaypointRouter(), None, "exact", None,
        id="hypercube-subcritical",
    ),
    pytest.param(
        Hypercube(5), 0.6, DirectedDFSRouter(), 150, "exact", None,
        id="hypercube-dfs-budget",
    ),
    pytest.param(
        Hypercube(5), 0.7, WaypointRouter(), None, "router", None,
        id="hypercube-router-conditioning",
    ),
    pytest.param(
        Hypercube(5), 0.6, LocalBFSRouter(), 120, "none", None,
        id="hypercube-none-conditioning",
    ),
    pytest.param(
        Mesh(2, 5), 0.6, MeshWaypointRouter(), None, "exact", None,
        id="mesh-waypoint-exact",
    ),
    pytest.param(
        Torus(2, 4), 0.55, LocalBFSRouter(), 200, "exact", None,
        id="torus-bfs-budget",
    ),
    pytest.param(
        DeBruijn(4), 0.6, LocalBFSRouter(), None, "exact", None,
        id="debruijn-bfs",
    ),
    pytest.param(
        Hypercube(5), 0.7, WaypointRouter(), None, "exact",
        _site_factory,
        id="hypercube-site-faults",
    ),
    pytest.param(
        Hypercube(5), 0.55, LocalBFSRouter(), 150, "exact", None,
        id="hypercube-local-bfs",
    ),
    pytest.param(
        Hypercube(5), 0.55, BidirectionalBFSRouter(), 150, "exact",
        None,
        id="hypercube-bidirectional-bfs",
    ),
    pytest.param(
        FatTree(4), 0.8, WaypointRouter(), None, "exact",
        _node_factory,
        id="fat-tree-node-faults",
    ),
]


@pytest.mark.parametrize(
    "graph,p,router,budget,conditioning,factory", CASES
)
def test_kernel_records_match_per_trial_loop(
    graph, p, router, budget, conditioning, factory
):
    specs = complexity_specs(
        graph,
        p=p,
        router=router,
        trials=12,
        seed=97,
        budget=budget,
        model_factory=factory,
        conditioning=conditioning,
        key=("golden",),
    )
    reference = [spec.execute() for spec in specs]
    before = TALLY.copy()
    got = execute_specs(specs)
    assert (TALLY - before)["kernel"] == len(specs)
    assert repr(got) == repr(reference)
    # The connected flag must be a plain bool, not a numpy scalar —
    # repr parity above depends on it, but make the contract explicit.
    assert all(
        type(r.value.connected) is bool for r in got  # noqa: E721
    )


def test_kernel_chunk_is_tallied():
    specs = complexity_specs(
        Hypercube(4), p=0.5, router=WaypointRouter(), trials=6, seed=5
    )
    before = TALLY.copy()
    got = execute_specs(specs)
    assert TALLY - before == {"kernel": 6}
    assert repr(got) == repr([spec.execute() for spec in specs])


def _hash_factory(graph, p, seed):
    return HashPercolation(graph, p, seed)


@pytest.mark.parametrize(
    "factory", [HashPercolation, _hash_factory],
    ids=["hash", "hash-factory"],
)
def test_unsupported_factory_falls_back_identically(factory):
    specs = complexity_specs(
        Hypercube(4),
        p=0.5,
        router=WaypointRouter(),
        trials=6,
        seed=17,
        model_factory=factory,
    )
    assert chunk_runner(specs[0].workload) is None
    before = TALLY.copy()
    got = execute_specs(specs)
    assert TALLY - before == {"per-trial": 6}
    assert repr(got) == repr([spec.execute() for spec in specs])


def test_kernel_env_off_disables_seam(monkeypatch):
    specs = complexity_specs(
        Hypercube(4), p=0.5, router=WaypointRouter(), trials=6, seed=23
    )
    on = execute_specs(specs)
    monkeypatch.setenv("REPRO_KERNEL", "off")
    assert chunk_runner(specs[0].workload) is None
    off = execute_specs(specs)
    assert repr(on) == repr(off)


class _BoomRouter(Router):
    name = "boom"

    def _route(self, oracle, source, target):
        raise RuntimeError("boom")


def test_kernel_wraps_per_trial_errors_with_spec_key():
    # p=1.0: every trial is connected, so the router runs and raises;
    # the kernel must attribute the failure to the right spec key, just
    # like spec.execute() does.
    specs = complexity_specs(
        Hypercube(4),
        p=1.0,
        router=_BoomRouter(),
        trials=4,
        seed=3,
        key=("boom-point",),
    )
    assert chunk_runner(specs[0].workload) is not None
    with pytest.raises(TrialExecutionError) as kernel_err:
        execute_specs(specs)
    with pytest.raises(TrialExecutionError) as fallback_err:
        specs[0].execute()
    assert kernel_err.value.key == ("boom-point", 0)
    assert kernel_err.value.key == fallback_err.value.key
    assert "RuntimeError: boom" in kernel_err.value.detail


# -- error attribution -------------------------------------------------
#
# A failing chunk names the spec key the per-trial loop would name: a
# draw or conditioning error the chunk's first key, an engine error the
# first routed trial's key, a per-trial routing error that trial's key.
# Each case runs for a probe-pair chunk and a demand-matrix chunk, which
# share one compiler.


class _DrawFails(TablePercolation):
    """``TablePercolation`` whose chunk draw raises."""

    def chunk_draw(self, index, seeds):
        draw = super().chunk_draw(index, seeds)
        if len(seeds):  # the compile-time probe draws no trial
            raise RuntimeError("draw failed")
        return draw


class _ConditioningFails(TablePercolation):
    """``TablePercolation`` whose conditioning matrix cannot be built."""

    def chunk_draw(self, index, seeds):
        draw = super().chunk_draw(index, seeds)

        def edge_masks():
            raise RuntimeError("conditioning failed")

        draw.edge_masks = edge_masks
        return draw


@pytest.fixture
def faulty_model():
    """The model class whose chunk draw fails at the given stage."""
    return {"draw": _DrawFails, "conditioning": _ConditioningFails}.get


class _EngineFailsBFS(LocalBFSRouter):
    """LocalBFS under its own type, registered with a failing engine."""


class _FailingEngine:
    def __init__(self, router, index, budget):
        pass

    def route_pairs(self, masks, sources, targets):
        raise RuntimeError("engine failed")


@pytest.fixture
def failing_engine_router():
    register_router_kernel(_EngineFailsBFS, _FailingEngine)
    yield _EngineFailsBFS()
    _ROUTER_KERNELS.pop(_EngineFailsBFS, None)


class _OpenFirstEdgeRouter(Router):
    """Raises on trials where the source's first edge is open."""

    name = "open-first-edge"

    def _route(self, oracle, source, target):
        first = next(iter(oracle.graph.neighbors(source)))
        if oracle.probe(source, first):
            raise RuntimeError("first edge open")
        return None


_BLAME_SEED = 7


def _blame_specs(kind, router, *, p=0.5, conditioning="none", **kw):
    """Eight trials on Hypercube(4): the canonical pair under
    ``conditioning``, or two commodities of a fixed demand matrix."""
    if kind == "pair":
        return complexity_specs(
            Hypercube(4), p=p, router=router, trials=8, seed=_BLAME_SEED,
            conditioning=conditioning, key=("blame",), **kw,
        )
    return traffic_specs(
        Hypercube(4), p, router, FixedTraffic(((0, 15), (3, 12))),
        trials=8, seed=_BLAME_SEED, key=("blame",), **kw,
    )


def _kernel_error(specs):
    assert chunk_runner(specs[0].workload) is not None
    with pytest.raises(TrialExecutionError) as err:
        execute_specs(specs)
    return err.value


@pytest.mark.parametrize("kind", ["pair", "demand"])
def test_draw_error_blames_the_chunks_first_key(kind, faulty_model):
    specs = _blame_specs(
        kind, LocalBFSRouter(), model_factory=faulty_model("draw")
    )
    err = _kernel_error(specs[2:])
    assert err.key == specs[2].key
    assert "RuntimeError: draw failed" in err.detail


def test_conditioning_error_blames_the_chunks_first_key(faulty_model):
    specs = _blame_specs(
        "pair", LocalBFSRouter(), conditioning="exact",
        model_factory=faulty_model("conditioning"),
    )
    err = _kernel_error(specs[2:])
    assert err.key == specs[2].key
    assert "RuntimeError: conditioning failed" in err.detail


@pytest.mark.parametrize("kind", ["pair", "demand"])
def test_engine_error_blames_the_first_routed_trial(
    kind, failing_engine_router
):
    chunk = _blame_specs(
        kind, failing_engine_router, p=0.35, conditioning="exact"
    )[1:]
    if kind == "pair":
        # "exact" conditioning routes the connected trials only, and
        # the chunk's first trial is not one of them.
        routed = [s.key for s in chunk if s.execute().value.connected]
        assert routed[0] != chunk[0].key
        expected = routed[0]
    else:
        expected = chunk[0].key  # every demand trial routes
    err = _kernel_error(chunk)
    assert err.key == expected
    assert "RuntimeError: engine failed" in err.detail


@pytest.mark.parametrize("kind", ["pair", "demand"])
def test_per_trial_routing_error_blames_its_trial(kind):
    specs = _blame_specs(kind, _OpenFirstEdgeRouter())
    expected = None
    for spec in specs:
        try:
            spec.execute()
        except TrialExecutionError as exc:
            expected = exc.key
            break
    assert expected not in (None, specs[0].key)
    before = TALLY.copy()
    err = _kernel_error(specs)
    assert (TALLY - before)["routing per-trial"] == len(specs)
    assert err.key == expected
    assert "RuntimeError: first edge open" in err.detail
