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

import repro.runtime.chunkexec as chunkexec
from repro.core.complexity import complexity_specs
from repro.core.router import Router
from repro.core.traffic import FixedTraffic, traffic_specs
from repro.experiments.defs.e14_site_faults import _site_factory
from repro.experiments.defs.e15_clos_faults import _node_factory
from repro.graphs.clos import FatTree
from repro.graphs.debruijn import DeBruijn
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh, Torus
from repro.kernels.complexity import (
    _MODEL_KERNELS,
    register_model_kernel,
    table_model_kernel,
)
from repro.kernels.routing import _ROUTER_KERNELS, register_router_kernel
from repro.percolation.models import HashPercolation, TablePercolation
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.dfs import DirectedDFSRouter
from repro.routers.waypoint import MeshWaypointRouter, WaypointRouter
from repro.runtime import (
    TrialExecutionError,
    run_chunk,
    supports_run_chunk,
)
from repro.runtime.chunkexec import chunk_runner, execute_specs


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    # Compiled verdicts are cached by workload content id; start each
    # test from a cold cache so support checks compile for real.
    chunkexec._COMPILED.clear()
    yield
    chunkexec._COMPILED.clear()


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
    assert supports_run_chunk(specs[0].workload)
    reference = [spec.execute() for spec in specs]
    got = execute_specs(specs)
    assert repr(got) == repr(reference)
    # The connected flag must be a plain bool, not a numpy scalar —
    # repr parity above depends on it, but make the contract explicit.
    assert all(
        type(r.value.connected) is bool for r in got  # noqa: E721
    )


def test_run_chunk_explicit_api():
    specs = complexity_specs(
        Hypercube(4), p=0.5, router=WaypointRouter(), trials=6, seed=5
    )
    workload = specs[0].workload
    got = run_chunk(workload, specs)
    assert repr(got) == repr([spec.execute() for spec in specs])


def test_run_chunk_rejects_unsupported_workload():
    specs = complexity_specs(
        Hypercube(4),
        p=0.5,
        router=WaypointRouter(),
        trials=2,
        seed=5,
        model_factory=HashPercolation,
    )
    workload = specs[0].workload
    assert not supports_run_chunk(workload)
    with pytest.raises(ValueError, match="does not support run_chunk"):
        run_chunk(workload, specs)


def _unregistered_factory(graph, p, seed):
    return TablePercolation(graph, p, seed)


@pytest.mark.parametrize(
    "factory", [HashPercolation, _unregistered_factory],
    ids=["hash", "unregistered"],
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
    assert not supports_run_chunk(specs[0].workload)
    got = execute_specs(specs)
    assert repr(got) == repr([spec.execute() for spec in specs])


def test_kernel_env_off_disables_seam(monkeypatch):
    specs = complexity_specs(
        Hypercube(4), p=0.5, router=WaypointRouter(), trials=6, seed=23
    )
    on = execute_specs(specs)
    monkeypatch.setenv("REPRO_KERNEL", "off")
    assert not supports_run_chunk(specs[0].workload)
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
    assert supports_run_chunk(specs[0].workload)
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


def _fragile_factory(graph, p, seed):
    """``TablePercolation`` behind a factory with faulty model kernels."""
    return TablePercolation(graph, p, seed=seed)


class _FaultyDraw:
    """A table draw whose conditioning matrix cannot be built."""

    def __init__(self, draw):
        self._draw = draw

    def edge_masks(self):
        raise RuntimeError("conditioning failed")

    def model(self, i):
        return self._draw.model(i)


class _FaultyModelKernel:
    def __init__(self, kernel, stage):
        self._kernel = kernel
        self._stage = stage

    def draw(self, seeds):
        if self._stage == "draw":
            raise RuntimeError("draw failed")
        return _FaultyDraw(self._kernel.draw(seeds))


@pytest.fixture
def faulty_model_kernel():
    def install(stage):
        register_model_kernel(
            _fragile_factory,
            lambda graph, index, p: _FaultyModelKernel(
                table_model_kernel(graph, index, p), stage
            ),
        )

    yield install
    _MODEL_KERNELS.pop(_fragile_factory, None)


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
    assert supports_run_chunk(specs[0].workload)
    with pytest.raises(TrialExecutionError) as err:
        execute_specs(specs)
    return err.value


@pytest.mark.parametrize("kind", ["pair", "demand"])
def test_draw_error_blames_the_chunks_first_key(kind, faulty_model_kernel):
    faulty_model_kernel("draw")
    specs = _blame_specs(
        kind, LocalBFSRouter(), model_factory=_fragile_factory
    )
    err = _kernel_error(specs[2:])
    assert err.key == specs[2].key
    assert "RuntimeError: draw failed" in err.detail


def test_conditioning_error_blames_the_chunks_first_key(faulty_model_kernel):
    faulty_model_kernel("conditioning")
    specs = _blame_specs(
        "pair", LocalBFSRouter(), conditioning="exact",
        model_factory=_fragile_factory,
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
    assert chunk_runner(specs[0].workload).stages()["routing"] == (
        "per-trial"
    )
    expected = None
    for spec in specs:
        try:
            spec.execute()
        except TrialExecutionError as exc:
            expected = exc.key
            break
    assert expected not in (None, specs[0].key)
    err = _kernel_error(specs)
    assert err.key == expected
    assert "RuntimeError: first edge open" in err.detail
