"""Backend conformance: the gate every runner backend must pass.

One parametrized suite, run against **every** backend — the parameters
come straight from :func:`repro.runtime.available_backends` (the
``auto`` alias is skipped; it constructs one of the others).  Covered:
determinism versus ``SerialRunner``, ``run_grouped`` flattening,
workloads that first appear in a later batch, crash and traceback
propagation, and the chunking edge cases (empty batch,
chunk > batch, single spec).

The cluster backend runs against a session-scoped pair of localhost
``repro worker serve`` node processes; work units come from
:mod:`repro.runtime.testing` so any node process can unpickle them by
reference.
"""

import pytest

from repro.experiments.registry import all_experiments
from repro.runtime import (
    ClusterRunner,
    SerialRunner,
    TrialExecutionError,
    TrialSpec,
    available_backends,
    make_runner,
)
from repro.runtime import testing as kit
from repro.runtime.trial import TrialResult

BACKENDS = sorted(set(available_backends()) - {"auto"})

ALL_IDS = [spec.experiment_id for spec in all_experiments()]

NODES_ENV = "REPRO_CLUSTER_NODES"


def test_expected_backends_registered():
    assert {"serial", "process", "cluster"} <= set(available_backends())


@pytest.fixture(scope="session")
def cluster_addresses():
    """Two localhost worker nodes shared by the whole session."""
    with kit.local_nodes(2) as addresses:
        yield addresses


@pytest.fixture(scope="module")
def unequal_width_addresses():
    """A narrow localhost node (pool of 1) and a wide one (pool of 3)."""
    with kit.local_nodes(1, node_workers=1) as narrow:
        with kit.local_nodes(1, node_workers=3) as wide:
            yield narrow + wide


@pytest.fixture(params=BACKENDS)
def new_runner(request, cluster_addresses, monkeypatch):
    """A factory for runners of one backend; closes everything made.

    Construction goes through ``make_runner`` so the backend choice is
    part of what conformance certifies.  The cluster backend is pointed
    at the session nodes via ``$REPRO_CLUSTER_NODES`` — external-node
    mode, whose ``close()`` leaves the nodes serving.
    """
    if request.param == "cluster":
        monkeypatch.setenv(NODES_ENV, ",".join(cluster_addresses))
    else:
        monkeypatch.delenv(NODES_ENV, raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_CHUNKSIZE", raising=False)
    created = []

    def _make(workers=2, chunksize=2):
        runner = make_runner(workers, chunksize, backend=request.param)
        created.append(runner)
        return runner

    yield _make
    for runner in created:
        runner.close()


class TestConformance:
    def test_empty_batch(self, new_runner):
        assert new_runner().run([]) == []

    def test_single_spec(self, new_runner):
        results = new_runner().run(kit.square_specs(1))
        assert results == [TrialResult(key=("sq", 0), value=0)]

    def test_chunk_larger_than_batch(self, new_runner):
        runner = new_runner(workers=2, chunksize=64)
        assert runner.run_values(kit.square_specs(5)) == [0, 1, 4, 9, 16]

    def test_chunksize_one_preserves_order(self, new_runner):
        runner = new_runner(workers=2, chunksize=1)
        specs = kit.seeded_specs(11, label="order")
        assert runner.run(specs) == SerialRunner().run(specs)

    def test_matches_serial_on_seeded_trials(self, new_runner):
        specs = kit.seeded_specs(12, label="det")
        assert new_runner().run(specs) == SerialRunner().run(specs)

    def test_results_in_submission_order(self, new_runner):
        results = new_runner(chunksize=1).run(kit.square_specs(9))
        assert [r.key for r in results] == [("sq", i) for i in range(9)]
        assert [r.value for r in results] == [i * i for i in range(9)]

    def test_run_grouped_flattens_and_regroups(self, new_runner):
        groups = [
            ("squares", kit.square_specs(4)),
            ("empty", []),
            ("uniforms", kit.seeded_specs(3, label="g")),
        ]
        out = new_runner(chunksize=1).run_grouped(groups)
        assert out == SerialRunner().run_grouped(groups)
        assert out["empty"] == []

    def test_workload_specs_match_serial(self, new_runner):
        workload = kit.make_workload("conf-shipping")
        specs = kit.workload_specs(workload, 10)
        assert new_runner(chunksize=1).run(specs) == SerialRunner().run(specs)

    def test_second_batch_workload_runs(self, new_runner):
        # Batch 1 establishes the workers/nodes; batch 2's workload
        # appears only afterwards, so it must arrive with its chunks
        # rather than with any start-up snapshot.
        runner = new_runner(chunksize=1)
        first = kit.make_workload("conf-first")
        second = kit.make_workload("conf-second")
        out1 = runner.run(kit.workload_specs(first, 6, tag="f"))
        out2 = runner.run(kit.workload_specs(second, 6, tag="s"))
        assert out1 == SerialRunner().run(kit.workload_specs(first, 6, tag="f"))
        assert out2 == SerialRunner().run(kit.workload_specs(second, 6, tag="s"))

    def test_trial_error_carries_key_and_traceback(self, new_runner):
        specs = kit.square_specs(4) + [
            TrialSpec(key=("bad", 7), fn=kit.boom, args=(7,))
        ]
        with pytest.raises(TrialExecutionError) as err:
            new_runner(chunksize=1).run(specs)
        assert err.value.key == ("bad", 7)
        assert "Traceback (most recent call last)" in err.value.detail
        assert "boom" in err.value.detail

    def test_mixed_plain_and_workload_batch(self, new_runner):
        workload = kit.make_workload("conf-mixed")
        specs = []
        for t in range(10):
            if t % 2:
                specs.append(
                    TrialSpec(key=("plain", t), fn=kit.square, args=(t,))
                )
            else:
                specs.append(
                    TrialSpec(key=("wl", t), args=(t, t), workload=workload)
                )
        assert new_runner(chunksize=3).run(specs) == SerialRunner().run(specs)


class TestClusterExperimentParity:
    """Cluster-vs-serial byte parity at the ResultTable level.

    Every registered def, so every record type the registry produces
    (pair trials, demand-matrix trials, plain-``fn`` sweeps) crosses
    the wire as the pickled ``TrialResult`` list of a ``done`` reply,
    and every workload crosses inside the chunks that use it.  ``chunksize=1``
    maximises interleaving across the two nodes — the adversarial
    schedule.  A second sweep leaves the chunk size to the runner on
    two nodes of unequal pool widths, so the split over announced
    widths and the per-node chunk caps meet every def too.
    """

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_cluster_matches_serial(self, cluster_addresses, experiment_id):
        from repro.experiments.registry import get_experiment

        spec = get_experiment(experiment_id)
        serial = spec(scale="tiny", seed=11, runner=SerialRunner())
        with ClusterRunner(nodes=cluster_addresses, chunksize=1) as runner:
            clustered = spec(scale="tiny", seed=11, runner=runner)
        assert serial.render() == clustered.render()
        assert repr(serial.rows) == repr(clustered.rows)
        assert serial.notes == clustered.notes

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_unequal_widths_match_serial(
        self, unequal_width_addresses, experiment_id, monkeypatch
    ):
        # No chunksize: each batch splits into about four chunks per
        # announced pool worker (1 + 3), and each node holds as many
        # chunks in flight as its width, so the wide node takes most
        # of them.  The table must not notice.
        from repro.experiments.registry import get_experiment

        monkeypatch.delenv("REPRO_CHUNKSIZE", raising=False)
        spec = get_experiment(experiment_id)
        serial = spec(scale="tiny", seed=11, runner=SerialRunner())
        with ClusterRunner(nodes=unequal_width_addresses) as runner:
            clustered = spec(scale="tiny", seed=11, runner=runner)
            assert [node.workers for node in runner._nodes] == [1, 3]
        assert serial.render() == clustered.render()
        assert repr(serial.rows) == repr(clustered.rows)
        assert serial.notes == clustered.notes


class TestClusterSpecifics:
    """Cluster behaviours beyond the shared conformance bar."""

    def test_close_leaves_external_nodes_serving(self, cluster_addresses):
        specs = kit.square_specs(6)
        with ClusterRunner(nodes=cluster_addresses, chunksize=1) as runner:
            assert runner.run_values(specs) == [i * i for i in range(6)]
        # close() ran; the shared nodes must still accept a new runner.
        with ClusterRunner(nodes=cluster_addresses, chunksize=1) as runner:
            assert runner.run_values(specs) == [i * i for i in range(6)]

    def test_single_external_node_still_executes_remotely(self):
        # One *named* node is not "no parallelism": the user asked for
        # the work to run there, so multi-chunk batches must ship to
        # it rather than silently executing on the coordinator.  A
        # pool of one pins every trial to a single remote process.
        import os

        with kit.local_nodes(1, node_workers=1) as addresses:
            probes = [
                TrialSpec(key=("pid", i), fn=kit.process_id, args=(i,))
                for i in range(6)
            ]
            with ClusterRunner(nodes=addresses, chunksize=1) as runner:
                pids = set(runner.run_values(probes))
        assert os.getpid() not in pids
        assert len(pids) == 1

    def test_pooled_node_deep_pipeline_matches_serial(self):
        # The adversarial scheduling shape for the node-side pool: one
        # node executing many chunks concurrently (pool of 4), holding
        # one chunk in flight per pool worker.  Completion order is
        # maximally shuffled; the table must not notice.
        from repro.experiments.registry import get_experiment

        spec = get_experiment("E1")
        serial = spec(scale="tiny", seed=7, runner=SerialRunner())
        with kit.local_nodes(1, node_workers=4) as addresses:
            with ClusterRunner(nodes=addresses, chunksize=1) as runner:
                pooled = spec(scale="tiny", seed=7, runner=runner)
        assert serial.render() == pooled.render()
        assert repr(serial.rows) == repr(pooled.rows)

    def test_single_chunk_runs_inline_without_nodes(self, monkeypatch):
        # Mirrors the pool's inline path: a batch that folds into one
        # chunk must not connect (or spawn) anything.
        monkeypatch.delenv(NODES_ENV, raising=False)
        runner = ClusterRunner(workers=2, chunksize=64)
        assert runner.run_values(kit.square_specs(5)) == [0, 1, 4, 9, 16]
        assert runner._nodes is None
        assert runner._local == []

    def test_inline_batch_runs_through_the_chunk_kernels(
        self, monkeypatch
    ):
        # The inline path is the serial path: kernel-eligible trials
        # execute as one compiled chunk, not one spec at a time.
        from repro.core.complexity import complexity_specs
        from repro.graphs.hypercube import Hypercube
        from repro.routers.waypoint import WaypointRouter
        from repro.runtime import chunkexec

        monkeypatch.delenv(NODES_ENV, raising=False)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        specs = complexity_specs(
            Hypercube(5), 0.5, WaypointRouter(), trials=12, seed=3
        )
        lookups = []
        real_chunk_runner = chunkexec.chunk_runner

        def counting_chunk_runner(workload):
            runner = real_chunk_runner(workload)
            lookups.append(runner)
            return runner

        monkeypatch.setattr(chunkexec, "chunk_runner", counting_chunk_runner)
        runner = ClusterRunner(workers=1)
        clustered = runner.run(specs)
        assert runner._nodes is None
        assert lookups and all(found is not None for found in lookups)
        assert repr(clustered) == repr(SerialRunner().run(specs))
