"""Regression: the kernel-split audit follows the model a factory builds.

``repro info`` audits each def by counting kernel-eligible vs
per-trial-fallback specs (:func:`repro.runtime.chunkexec.kernel_split`).
Eligibility depends on what the factory *builds*: a model with a chunk
draw vectorizes whatever callable built it — a module-level function,
or a factory object that is not even hashable (e.g. an ``eq=True``,
non-frozen dataclass instance) — and a model without one (the lazy
``HashPercolation``) takes the per-trial fallback.  The audit must
report either answer honestly, never crash.
"""

from dataclasses import dataclass

from repro.core.complexity import complexity_specs
from repro.experiments.cli import _kernel_audit_line
from repro.experiments.registry import get_experiment
from repro.graphs.clos import FatTree
from repro.percolation.faults import NodeFaultPercolation
from repro.percolation.models import HashPercolation
from repro.routers.waypoint import WaypointRouter
from repro.runtime import SerialRunner
from repro.runtime.chunkexec import kernel_split


def _unregistered_factory(graph, p, seed):
    return NodeFaultPercolation(graph, p, seed=seed)


def _hash_factory(graph, p, seed):
    return HashPercolation(graph, p, seed=seed)


@dataclass(eq=True)
class _UnhashableFactory:
    # eq=True without frozen=True: __hash__ is set to None, so this
    # instance could never key a registry.
    budget: int = 0

    def __call__(self, graph, p, seed):
        return NodeFaultPercolation(graph, p, seed=seed)


@dataclass(eq=True)
class _UnhashableHashFactory:
    budget: int = 0

    def __call__(self, graph, p, seed):
        return HashPercolation(graph, p, seed=seed)


def _specs(factory):
    return complexity_specs(
        FatTree(4),
        p=0.8,
        router=WaypointRouter(),
        trials=6,
        seed=3,
        model_factory=factory,
        key=("audit", str(factory)),
    )


def test_unregistered_node_factory_audits_as_kernel():
    kernel, fallback = kernel_split(_specs(_unregistered_factory))
    assert (kernel, fallback) == (6, 0)


def test_unhashable_node_factory_audits_as_kernel():
    factory = _UnhashableFactory()
    kernel, fallback = kernel_split(_specs(factory))
    assert (kernel, fallback) == (6, 0)
    # ...and the kernel's records are the per-trial loop's.
    records = SerialRunner().run_values(_specs(factory))
    assert repr(records) == repr(
        [spec.execute().value for spec in _specs(factory)]
    )


def test_hash_factory_audits_as_fallback():
    kernel, fallback = kernel_split(_specs(_hash_factory))
    assert (kernel, fallback) == (0, 6)


def test_unhashable_hash_factory_does_not_crash_the_audit():
    factory = _UnhashableHashFactory()
    kernel, fallback = kernel_split(_specs(factory))
    assert (kernel, fallback) == (0, 6)
    # ...and the specs still *execute* through the per-trial path.
    records = SerialRunner().run_values(_specs(factory))
    assert len(records) == 6


def test_default_factory_still_vectorizes():
    kernel, fallback = kernel_split(_specs(None))
    assert (kernel, fallback) == (6, 0)


def test_info_line_reports_kernel_for_e16():
    # E16's correlated-outage factory is registered nowhere; its model
    # draws its own chunk.
    line = _kernel_audit_line(get_experiment("E16"))
    assert "execution: vectorized chunk kernel " in line
    assert "per-trial fallback" not in line
    assert "(10/10 specs" in line


def test_e15_node_factory_audits_as_kernel():
    # E15's own node factory and the local one above build the same
    # model, so both vectorize.
    from repro.experiments.defs.e15_clos_faults import _node_factory

    kernel, fallback = kernel_split(_specs(_node_factory))
    assert (kernel, fallback) == (6, 0)


def test_info_line_reports_all_kernel_for_e15():
    # All four arms, correlated and adversarial included, draw their
    # chunks on the kernel.
    line = _kernel_audit_line(get_experiment("E15"))
    assert "execution: vectorized chunk kernel " in line
    assert "per-trial fallback" not in line


def test_info_line_reports_per_stage_breakdown():
    line = _kernel_audit_line(get_experiment("E15"))
    stages = [l for l in line.splitlines() if l.startswith("stages:")]
    assert len(stages) == 1
    assert stages[0] == (
        "stages: draw 40/40 kernel  conditioning 40/40 kernel  "
        "routing 40/40 kernel"
    )


def test_info_line_names_commodity_batched_routing_for_traffic_defs():
    # Demand-matrix defs route whole chunks of commodities through one
    # engine call; the stage split says so by name.  Pair defs (above)
    # keep the plain "routing" label.
    line = _kernel_audit_line(get_experiment("E18"))
    assert "routing (commodity-batched)" in line
    pair_line = _kernel_audit_line(get_experiment("E15"))
    assert "(commodity-batched)" not in pair_line

