"""The kernel audit: what ran, by def, and per factory.

``repro info`` audits each def by running it at tiny scale and counting
the specs that ran on a chunk kernel vs the per-trial fallback, as
:data:`repro.runtime.chunkexec.TALLY` records them.  The golden table
pins both audit lines of every def with the kernel on and off.

Whether a chunk runs on the kernel depends on what the factory
*builds*: a model with a chunk draw vectorizes whatever callable built
it — a module-level function, or a factory object that is not even
hashable (e.g. an ``eq=True``, non-frozen dataclass instance) — and a
model without one (the lazy ``HashPercolation``) takes the per-trial
fallback.  The audit must report either answer honestly, never crash.
"""

from dataclasses import dataclass

import pytest

from repro.core.complexity import complexity_specs
from repro.experiments.cli import _kernel_audit_line
from repro.experiments.registry import all_experiments, get_experiment
from repro.graphs.clos import FatTree
from repro.percolation.faults import NodeFaultPercolation
from repro.percolation.models import HashPercolation
from repro.routers.waypoint import WaypointRouter
from repro.runtime import SerialRunner
from repro.runtime.chunkexec import TALLY

KERNEL = "vectorized chunk kernel"
MIXED = "vectorized chunk kernel + per-trial fallback"
FALLBACK = "per-trial fallback"
BATCHED = "routing (commodity-batched)"

#: Per def at tiny, seed 0, kernel on: the execution shape, the specs
#: that ran on the kernel, all specs run, the kernel specs whose
#: conditioning and whose routing also ran on the kernel, and the
#: routing label.  E13's two point specs run per trial, and each runs
#: an inner runner whose specs (16 in all) run on the kernel.
AUDIT = {
    "E1": (KERNEL, 24, 24, 24, 12),
    "E2": (MIXED, 12, 13, 12, 6),
    "E3": (KERNEL, 12, 12, 12, 12),
    "E4": (KERNEL, 12, 12, 12, 12),
    "E5": (MIXED, 20, 21, 20, 20),
    "E6": (FALLBACK, 0, 120, 0, 0),
    "E7": (KERNEL, 32, 32, 32, 16),
    "E8": (KERNEL, 30, 30, 30, 0),
    "E9": (FALLBACK, 0, 16, 0, 0),
    "E10": (FALLBACK, 0, 20, 0, 0),
    "E11": (FALLBACK, 0, 2, 0, 0),
    "E12": (MIXED, 40, 44, 40, 40),
    "E13": (MIXED, 16, 18, 16, 16),
    "E14": (KERNEL, 20, 20, 20, 20),
    "E15": (KERNEL, 40, 40, 40, 40),
    "E16": (KERNEL, 10, 10, 10, 10),
    "E17": (KERNEL, 30, 30, 30, 30),
    "E18": (KERNEL, 20, 20, 20, 20, BATCHED),
    "E19": (KERNEL, 10, 10, 10, 10, BATCHED),
    "E20": (KERNEL, 40, 40, 40, 40, BATCHED),
    "A1": (KERNEL, 40, 40, 40, 40),
    "A2": (KERNEL, 96, 96, 96, 80),
    "A3": (FALLBACK, 0, 24, 0, 0),
    "A4": (KERNEL, 32, 32, 32, 32),
}


def _audit_lines(
    shape, kernel, total, conditioning, routing, label="routing"
):
    return (
        f"execution: {shape} ({kernel}/{total} specs ran on the kernel "
        f"at tiny scale)\nstages: draw {kernel}/{total} kernel  "
        f"conditioning {conditioning}/{total} kernel  "
        f"{label} {routing}/{total} kernel"
    )


@pytest.mark.parametrize("kernel", ["on", "off"])
@pytest.mark.parametrize(
    "experiment_id", [spec.experiment_id for spec in all_experiments()]
)
def test_audit_lines_are_golden(experiment_id, kernel, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    expected = AUDIT[experiment_id]
    if kernel == "off":
        # Nothing runs on the kernel, and nothing is commodity-batched.
        expected = (FALLBACK, 0, expected[2], 0, 0)
    line = _kernel_audit_line(get_experiment(experiment_id))
    assert line == _audit_lines(*expected)


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


def _ran(factory):
    """Run the six specs; ``(kernel, per-trial)`` specs as they ran."""
    before = TALLY.copy()
    SerialRunner().run_values(_specs(factory))
    ran = TALLY - before
    return ran["kernel"], ran["per-trial"]


def test_unregistered_node_factory_audits_as_kernel():
    assert _ran(_unregistered_factory) == (6, 0)


def test_unhashable_node_factory_audits_as_kernel():
    factory = _UnhashableFactory()
    assert _ran(factory) == (6, 0)
    # ...and the kernel's records are the per-trial loop's.
    records = SerialRunner().run_values(_specs(factory))
    assert repr(records) == repr(
        [spec.execute().value for spec in _specs(factory)]
    )


def test_hash_factory_audits_as_fallback():
    assert _ran(_hash_factory) == (0, 6)


def test_unhashable_hash_factory_does_not_crash_the_audit():
    factory = _UnhashableHashFactory()
    assert _ran(factory) == (0, 6)
    # ...and the specs still *execute* through the per-trial path.
    records = SerialRunner().run_values(_specs(factory))
    assert len(records) == 6


def test_default_factory_still_vectorizes():
    assert _ran(None) == (6, 0)


def test_e15_node_factory_audits_as_kernel():
    # E15's own node factory and the local one above build the same
    # model, so both vectorize.
    from repro.experiments.defs.e15_clos_faults import _node_factory

    assert _ran(_node_factory) == (6, 0)
