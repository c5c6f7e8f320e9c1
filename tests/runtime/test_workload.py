"""Tests for content-addressed workloads and their wire form.

Covers the content-addressed :class:`Workload`, the chunk wire form
(each workload pickled by value, once per chunk), the one live copy a
process keeps per content id, workloads that first appear in a later
batch or nested inside another spec (fork and spawn), and pool
persistence across batches.
"""

import multiprocessing
import pickle
from collections import OrderedDict
from dataclasses import dataclass

import pytest

from repro.graphs.hypercube import Hypercube
from repro.kernels.topology import edge_index_for
from repro.runtime import (
    ProcessPoolRunner,
    SerialRunner,
    TrialSpec,
    Workload,
)
from repro.runtime import workload as workload_module

SPAWN = multiprocessing.get_context("spawn")


# Worker kernels live at module level so they pickle by reference.
def _tagged(payload, tag, t, seed):
    return (len(payload), tag, t, seed)


def _graph_size(graph, t, seed):
    return (graph.num_vertices(), t, seed)


@dataclass(frozen=True)
class _Budget:
    budget: int


def _budgeted(limit, budget):
    return (limit.budget, budget)


def _nested_execute(spec):
    return spec.execute().value


def _heavy(n=4096):
    """A payload big enough to dwarf a spec's per-trial tail."""
    return list(range(n))


def _specs(workload, count, tag="a"):
    return [
        TrialSpec(key=(tag, t), args=(t, t * 31), workload=workload)
        for t in range(count)
    ]


class TestWorkload:
    def test_content_addressed_id(self):
        a = Workload(fn=_tagged, args=(_heavy(), "x"))
        b = Workload(fn=_tagged, args=(_heavy(), "x"))
        c = Workload(fn=_tagged, args=(_heavy(), "y"))
        assert a.workload_id == b.workload_id
        assert a.workload_id != c.workload_id

    def test_id_stable_across_processes(self):
        # The id is a digest of pickled content, so a worker process
        # computes the identical id for the identical payload.
        w = Workload(fn=_tagged, args=(_heavy(), "x"))
        with ProcessPoolRunner(workers=2, chunksize=1) as runner:
            remote = runner.run_values(
                [
                    TrialSpec(key=("id", i), fn=_remote_id, args=("x",))
                    for i in range(2)
                ]
            )
        assert remote == [w.workload_id, w.workload_id]

    def test_call_merges_shared_and_trial_arguments(self):
        w = Workload(fn=_tagged, args=(_heavy(8), "x"))
        assert w.call(3, 7) == (8, "x", 3, 7)

    def test_unpicklable_payload_rejected_at_construction(self):
        with pytest.raises(TypeError, match="not picklable"):
            Workload(fn=_tagged, args=(lambda: None, "x"))

    def test_spec_requires_exactly_one_of_fn_and_workload(self):
        w = Workload(fn=_tagged, args=((), "x"))
        with pytest.raises(ValueError):
            TrialSpec(key=("k",))
        with pytest.raises(ValueError):
            TrialSpec(key=("k",), fn=_tagged, workload=w)


def _remote_id(tag):
    return Workload(fn=_tagged, args=(_heavy(), tag)).workload_id


class TestWireForm:
    def test_chunk_pickles_each_workload_once(self):
        # Pickle's memo writes the shared workload once per chunk, so a
        # chunk costs one payload plus a small tail per spec.
        w = Workload(fn=_tagged, args=(_heavy(), "x"))
        specs = _specs(w, 20)
        payload = len(pickle.dumps(w))
        assert payload > 10_000
        assert len(pickle.dumps(specs)) < payload + 20 * 100

    def test_unpickled_chunk_specs_share_one_workload(self):
        w = Workload(fn=_tagged, args=(_heavy(8), "x"))
        specs = _specs(w, 6)
        clones = pickle.loads(pickle.dumps(specs))
        assert all(type(clone.workload) is Workload for clone in clones)
        assert len({id(clone.workload) for clone in clones}) == 1
        assert clones[0].workload_id == w.workload_id
        assert [c.execute() for c in clones] == [s.execute() for s in specs]

    def test_two_chunks_resolve_to_one_live_workload(self):
        # Chunks of one workload unpickled in one process (a worker
        # taking chunk after chunk) resolve to the same live copy, so
        # its graph's cached edge index survives between them.
        w = Workload(fn=_graph_size, args=(Hypercube(5),))
        first = pickle.loads(pickle.dumps(_specs(w, 3, tag="c1")))
        live = first[0].workload
        assert live is not w
        index = edge_index_for(live.args[0])
        second = pickle.loads(pickle.dumps(_specs(w, 3, tag="c2")))
        assert second[0].workload is live
        assert edge_index_for(second[0].workload.args[0]) is index

    def test_unpickled_workload_keeps_the_senders_id(self):
        # The kwarg key "budget" and the argument's attribute name are
        # one interned string here; unpickled, they come back as two
        # objects, so the content re-pickles to other bytes.  The id
        # must still be the sender's: it keys the compile cache and
        # the result digests in every process.
        w = Workload(fn=_budgeted, args=(_Budget(1),), kwargs={"budget": 2})
        clone = pickle.loads(pickle.dumps(w))
        assert clone.workload_id == w.workload_id
        assert clone.call() == w.call() == (1, 2)

    def test_live_copies_are_bounded(self, monkeypatch):
        monkeypatch.setattr(workload_module, "_LIVE", OrderedDict())
        cap = workload_module._LIVE_CAP
        assert cap == 64
        workloads = [
            Workload(fn=_tagged, args=((), f"lru-{i}"))
            for i in range(cap + 1)
        ]
        for w in workloads:
            pickle.loads(pickle.dumps(w))
        live = workload_module._LIVE
        assert len(live) == cap
        assert workloads[0].workload_id not in live
        assert workloads[-1].workload_id in live


class TestShipping:
    @pytest.mark.parametrize("mp_context", [None, SPAWN])
    def test_pool_matches_serial(self, mp_context):
        w = Workload(fn=_tagged, args=(_heavy(), "x"))
        specs = _specs(w, 12)
        serial = SerialRunner().run(specs)
        with ProcessPoolRunner(
            workers=2, chunksize=2, mp_context=mp_context
        ) as runner:
            assert runner.run(specs) == serial

    @pytest.mark.parametrize("mp_context", [None, SPAWN])
    def test_persistent_pool_survives_new_workloads(self, mp_context):
        # Batch 2's workload appears only after the workers exist, so
        # it must arrive inside its chunks — on spawn nothing is
        # inherited, making this the sharpest test of that.
        with ProcessPoolRunner(
            workers=2, chunksize=1, mp_context=mp_context
        ) as runner:
            first = Workload(fn=_tagged, args=(_heavy(), "first"))
            out1 = runner.run_values(_specs(first, 6, tag="f"))
            pool = runner._pool
            assert pool is not None
            second = Workload(fn=_tagged, args=(_heavy(), "second"))
            out2 = runner.run_values(_specs(second, 6, tag="s"))
            assert runner._pool is pool  # no restart between batches
        assert out1 == SerialRunner().run_values(_specs(first, 6, tag="f"))
        assert out2 == SerialRunner().run_values(_specs(second, 6, tag="s"))

    def test_many_distinct_nested_workloads_run(self):
        # Each spec nests a *different* workload inside a plain spec's
        # arguments; every one must travel inside its chunk.
        workloads = [
            Workload(fn=_tagged, args=(_heavy(64), f"w{i}"))
            for i in range(8)
        ]
        inner = [
            TrialSpec(key=("n", i), args=(i, 0), workload=w)
            for i, w in enumerate(workloads)
        ]
        outer = [
            TrialSpec(key=spec.key, fn=_nested_execute, args=(spec,))
            for spec in inner
        ]
        expected = [spec.execute().value for spec in inner]
        with ProcessPoolRunner(
            workers=2, chunksize=4, mp_context=SPAWN
        ) as runner:
            assert runner.run_values(outer) == expected

    def test_nested_spec_runs_under_spawn(self):
        # A workload-referencing spec nested inside a plain spec must
        # run on a spawned worker that inherited nothing.
        w = Workload(fn=_tagged, args=(_heavy(), "nested"))
        inner = _specs(w, 6, tag="n")
        outer = [
            TrialSpec(key=spec.key, fn=_nested_execute, args=(spec,))
            for spec in inner
        ]
        with ProcessPoolRunner(
            workers=2, chunksize=1, mp_context=SPAWN
        ) as runner:
            assert runner.run_values(outer) == [
                spec.execute().value for spec in inner
            ]

    def test_mixed_plain_and_workload_specs_in_one_batch(self):
        w = Workload(fn=_tagged, args=(_heavy(16), "m"))
        specs = []
        for t in range(10):
            if t % 2:
                specs.append(
                    TrialSpec(
                        key=("plain", t), fn=_tagged, args=((), "p", t, 0)
                    )
                )
            else:
                specs.append(
                    TrialSpec(key=("wl", t), args=(t, 0), workload=w)
                )
        serial = SerialRunner().run(specs)
        with ProcessPoolRunner(workers=2, chunksize=3) as runner:
            assert runner.run(specs) == serial


class TestPoolLifecycle:
    def test_close_is_idempotent_and_pool_rebuilds(self):
        runner = ProcessPoolRunner(workers=2, chunksize=1)
        w = Workload(fn=_tagged, args=(_heavy(16), "x"))
        assert runner.run_values(_specs(w, 4))
        runner.close()
        assert runner._pool is None
        runner.close()  # no-op
        # a closed runner is still usable; it just pays start-up again
        assert runner.run_values(_specs(w, 4))
        runner.close()

    def test_inline_paths_never_build_a_pool(self):
        w = Workload(fn=_tagged, args=(_heavy(16), "x"))
        runner = ProcessPoolRunner(workers=4, chunksize=64)
        assert runner.run_values(_specs(w, 5))  # folds into one chunk
        assert runner._pool is None
