"""No def leaves compiled graphs alive once its table is dropped.

A compiled chunk runner pins its graph, and the graph holds its edge
index and neighbour table (at ``medium`` a 14-cube's table alone is
tens of MB).  The runner lives on its workload, so a serial run frees
every graph a def compiled as soon as the def's specs and table go.
This guard runs every registered def at tiny scale on one
``SerialRunner`` and records each graph compiled during it: any def or
kernel that parks a graph in a module global, or any process-wide
cache of runners, fails it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments.registry import all_experiments, get_experiment
from repro.kernels import topology
from repro.runtime import SerialRunner


@pytest.fixture(scope="module")
def runner():
    return SerialRunner()


@pytest.mark.parametrize(
    "experiment_id", [spec.experiment_id for spec in all_experiments()]
)
def test_def_frees_the_graphs_it_compiled(experiment_id, runner, monkeypatch):
    compiled = []
    build = topology.build_edge_index

    def recording_build(graph):
        compiled.append(weakref.ref(graph))
        return build(graph)

    monkeypatch.setattr(topology, "build_edge_index", recording_build)
    table = get_experiment(experiment_id)(scale="tiny", seed=0, runner=runner)
    assert table.rows
    del table
    gc.collect()
    alive = [ref() for ref in compiled if ref() is not None]
    assert not alive, (
        f"{experiment_id} left {len(alive)} of {len(compiled)} compiled "
        f"graphs reachable: {[graph.name for graph in alive]}"
    )
