"""Serial-vs-parallel and kernel on/off parity for EVERY registered
experiment.

This is the determinism contract of :mod:`repro.runtime` extended to
the whole suite: for any experiment and master seed, a
``ProcessPoolRunner`` must produce byte-identical ``ResultTable``\\ s to
the ``SerialRunner`` — rendered text (the persisted record), the
``repr`` of the raw rows (NaN-tolerant, unlike ``==``) and the notes.
``chunksize=1`` maximises interleaving, the adversarial schedule.  The
same tables must come out with the vectorized chunk kernels switched
off (``$REPRO_KERNEL=off``), where every trial runs the per-trial path.

It is also the gate for the per-trial migration: every definition now
emits :class:`TrialSpec` work units (there is no legacy ``run(scale,
seed)`` path left), so a new experiment registered without honouring
the seed-derivation contract fails here immediately.  The spawn-context
case re-runs a registry sample on a pool that inherits *nothing* from
the parent, so every workload must arrive inside its chunk's pickle —
fork-masked state bugs fail there.
"""

import importlib
import multiprocessing
import os
import pickle
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.core.complexity import complexity_specs, run_trial
from repro.experiments.registry import all_experiments, get_experiment
from repro.graphs.hypercube import Hypercube
from repro.routers.waypoint import WaypointRouter
from repro.runtime import (
    ProcessPoolRunner,
    SerialRunner,
    TrialRunner,
    TrialSpec,
)
from repro.runtime import workload as workload_module
from repro.runtime.chunkexec import execute_specs
from repro.runtime.runner import pick_chunksize, split_chunks
from repro.util.rng import derive_seed

ALL_IDS = [spec.experiment_id for spec in all_experiments()]

#: Defs whose tiny-scale batches are plain ``fn`` specs, no workloads.
PLAIN_SPEC_IDS = {"E11", "E13"}


def test_every_def_module_is_registered():
    # The parity sweep above parametrizes over *registered* defs — a
    # def module missing from the registry's ``_DEF_MODULES`` list
    # never imports, never registers, and would silently skip every
    # gate in this file.  Close the loop: every module under
    # ``experiments/defs/`` must surface at least one registered
    # experiment.
    defs_dir = (
        Path(importlib.import_module("repro.experiments.defs").__file__)
        .parent
    )
    modules = {
        f"repro.experiments.defs.{path.stem}"
        for path in defs_dir.glob("*.py")
        if path.stem != "__init__"
    }
    registered = {spec.run.__module__ for spec in all_experiments()}
    missing = modules - registered
    assert not missing, (
        f"def modules not in the registry sweep (add them to "
        f"_DEF_MODULES in repro/experiments/registry.py): "
        f"{sorted(missing)}"
    )


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_parallel_matches_serial(experiment_id):
    spec = get_experiment(experiment_id)
    serial = spec(scale="tiny", seed=11, runner=SerialRunner())
    with ProcessPoolRunner(workers=2, chunksize=1) as runner:
        parallel = spec(scale="tiny", seed=11, runner=runner)
    assert serial.render() == parallel.render()
    assert repr(serial.rows) == repr(parallel.rows)
    assert serial.notes == parallel.notes


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_kernel_off_matches_kernel_on(experiment_id, monkeypatch):
    # With the kernel seam off every trial draws through the per-trial
    # models (TablePercolation reading the graph's shared EdgeIndex),
    # so this gates the per-trial path against the chunk kernels in
    # every registered def, byte for byte.
    spec = get_experiment(experiment_id)
    kernel_on = spec(scale="tiny", seed=11, runner=SerialRunner())
    monkeypatch.setenv("REPRO_KERNEL", "off")
    kernel_off = spec(scale="tiny", seed=11, runner=SerialRunner())
    assert kernel_on.render() == kernel_off.render()
    assert repr(kernel_on.rows) == repr(kernel_off.rows)
    assert kernel_on.notes == kernel_off.notes


@pytest.mark.parametrize("experiment_id", ["E1", "E6", "E12"])
def test_spawn_context_matches_serial(experiment_id):
    # A spawn pool starts each worker from a blank interpreter: no
    # fork-inherited globals, so every workload comes from the chunks.
    # E1 covers complexity_specs emission, E6/E12 the defs that build
    # their own workloads (E12 carries the explicit RandomMatchingCycle,
    # the fattest payload in the registry).
    spec = get_experiment(experiment_id)
    serial = spec(scale="tiny", seed=11, runner=SerialRunner())
    runner = ProcessPoolRunner(
        workers=2,
        chunksize=1,
        mp_context=multiprocessing.get_context("spawn"),
    )
    with runner:
        spawned = spec(scale="tiny", seed=11, runner=runner)
    assert serial.render() == spawned.render()
    assert repr(serial.rows) == repr(spawned.rows)
    assert serial.notes == spawned.notes


class _WireRunner(TrialRunner):
    """Split each batch as a 2-worker pool does, then round-trip every
    chunk through pickle in this process before executing it — the
    wire form a worker receives, minus the process boundary."""

    workers = 2

    def __init__(self) -> None:
        self.workload_chunks = 0

    def run(self, specs):
        specs = list(specs)
        results = []
        live = {}  # workload id -> the object this batch resolved to
        size = pick_chunksize(len(specs), self.workers)
        for _, chunk in split_chunks(specs, size):
            clones = pickle.loads(pickle.dumps(chunk))
            for original, clone in zip(chunk, clones):
                assert clone.workload_id == original.workload_id
                if clone.workload is None:
                    continue
                assert clone.workload is not original.workload
                assert (
                    workload_module._LIVE[clone.workload_id]
                    is clone.workload
                )
                assert (
                    live.setdefault(clone.workload_id, clone.workload)
                    is clone.workload
                )
            self.workload_chunks += any(
                clone.workload is not None for clone in clones
            )
            results.extend(execute_specs(clones))
        return results


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_chunk_pickle_carries_its_workloads(experiment_id, monkeypatch):
    # A chunk's pickle is the whole wire form of its work: unpickled
    # in a fresh process state it must run to the serial tables, and
    # every spec of one workload — within a chunk and across the
    # batch's chunks — must resolve to the process's one live copy.
    monkeypatch.setattr(workload_module, "_LIVE", OrderedDict())
    spec = get_experiment(experiment_id)
    serial = spec(scale="tiny", seed=11, runner=SerialRunner())
    runner = _WireRunner()
    shipped = spec(scale="tiny", seed=11, runner=runner)
    assert serial.render() == shipped.render()
    assert repr(serial.rows) == repr(shipped.rows)
    assert serial.notes == shipped.notes
    if experiment_id not in PLAIN_SPEC_IDS:
        assert runner.workload_chunks > 0


def _pid_stamped(spec: TrialSpec):
    """Execute a spec in whatever process we are in; report the pid."""
    return (os.getpid(), spec.execute().value)


def _point_specs():
    point_seed = derive_seed(11, "e1", 8, 0.3, "waypoint")
    return complexity_specs(
        Hypercube(8),
        p=8**-0.3,
        router=WaypointRouter(),
        trials=14,
        seed=point_seed,
        key=("e1", 8, 0.3, "waypoint"),
    )


def test_specs_reference_one_shared_workload():
    # The emission API: one Workload per sweep point, slim per-trial
    # tails.  A chunk's pickle writes the workload once, and the
    # unpickled specs share one Workload object again.
    specs = _point_specs()
    assert len(specs) == 14
    assert all(spec.fn is None for spec in specs)
    assert all(spec.workload.fn is run_trial for spec in specs)
    assert len({id(spec.workload) for spec in specs}) == 1
    payload = len(pickle.dumps(specs[0].workload))
    chunk = pickle.dumps(specs)
    assert len(chunk) < payload + len(specs) * 100  # key + (trial, seed)
    clones = pickle.loads(chunk)
    assert len({id(clone.workload) for clone in clones}) == 1
    assert clones[0].workload_id == specs[0].workload_id


def test_single_sweep_point_distributes_across_workers():
    # One E1-style (n, alpha, router) sweep point at small scale: its
    # trials are independent TrialSpecs, so the rejection-sampling loop
    # itself must spread over the pool — the per-trial migration's whole
    # point.  Wrap each trial to record the executing pid.  The wrapped
    # specs nest a workload-referencing spec inside a plain one, which
    # also exercises a workload carried as a plain spec's argument.
    specs = _point_specs()
    wrapped = [
        TrialSpec(key=spec.key, fn=_pid_stamped, args=(spec,))
        for spec in specs
    ]
    golden = repr([spec.execute().value for spec in specs])
    runner = ProcessPoolRunner(workers=2, chunksize=2)

    # Which worker takes which chunk is the scheduler's business; a
    # freshly forked pool can in principle let one worker drain every
    # chunk.  Retry a few times — determinism is asserted on every
    # attempt, only the both-workers-participated observation may need
    # another roll.
    seen_both = False
    with runner:
        for _ in range(5):
            outcomes = runner.run_values(wrapped)
            assert repr([record for _, record in outcomes]) == golden
            pids = {pid for pid, _ in outcomes}
            assert os.getpid() not in pids  # every trial ran out-of-process
            if len(pids) == 2:
                seen_both = True
                break
    assert seen_both  # ...and both workers took part
