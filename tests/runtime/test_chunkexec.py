"""Mechanics of the batch-kernel seam (grouping, lifetime, the switch).

These tests drive :mod:`repro.runtime.chunkexec` with a synthetic
kernel, so they check the *seam* — eligibility, maximal-run grouping,
order preservation, the environment switch, where a compiled runner
lives and when it goes, the execution tally — rather than any real
vectorized kernel (those live in ``tests/kernels/``).
"""

from __future__ import annotations

import gc
import pickle
import weakref
from collections import OrderedDict

import pytest

import repro.runtime.chunkexec as chunkexec
import repro.runtime.workload as workload_module
from repro.graphs.hypercube import Hypercube
from repro.runtime import TrialResult, TrialSpec, Workload
from repro.runtime.chunkexec import (
    TALLY,
    chunk_runner,
    execute_specs,
    register_chunk_kernel,
)


def _work(tag, trial, seed):
    return ("slow", tag, trial, seed)


def _other(x):
    return ("plain", x)


@pytest.fixture(autouse=True)
def _isolated_registry():
    # Register the built-in compilers first: loading them mid-test
    # would drop them at restore while the module stays marked loaded.
    chunkexec._ensure_kernels()
    compilers = dict(chunkexec._COMPILERS)
    yield
    chunkexec._COMPILERS.clear()
    chunkexec._COMPILERS.update(compilers)


class _Recorder:
    """A chunk compiler whose runner logs every batched call."""

    def __init__(self):
        self.compiles = 0
        self.calls = []

    def __call__(self, workload):
        self.compiles += 1
        tag = workload.args[0]

        def runner(keys, tails):
            self.calls.append(list(tails))
            return [("fast", tag, t, s) for t, s in tails]

        return runner


def _specs(workload, trials, key="k"):
    return [
        TrialSpec(key=(key, t), args=(t, 100 + t), workload=workload)
        for t in range(trials)
    ]


def test_maximal_runs_batch_through_one_call():
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w1 = Workload(fn=_work, args=("a",))
    w2 = Workload(fn=_work, args=("b",))
    plain = TrialSpec(key=("plain",), fn=_other, args=(9,))
    specs = _specs(w1, 3) + [plain] + _specs(w2, 2, key="k2")
    results = execute_specs(specs)
    # One batched call per maximal same-workload run.
    assert recorder.calls == [[(0, 100), (1, 101), (2, 102)], [(0, 100), (1, 101)]]
    # Order and keys preserved; kernel values in kernel slots.
    assert [r.key for r in results] == [s.key for s in specs]
    assert results[0].value == ("fast", "a", 0, 100)
    assert results[3].value == ("plain", 9)
    assert results[4].value == ("fast", "b", 0, 100)


def test_ineligible_tails_fall_back_per_spec():
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w = Workload(fn=_work, args=("a",))
    eligible = TrialSpec(key=("e",), args=(0, 100), workload=w)
    kwargs_spec = TrialSpec(
        key=("kw",), args=(1,), kwargs={"seed": 101}, workload=w
    )
    non_int = TrialSpec(key=("f",), args=(2, 102.5), workload=w)
    results = execute_specs([eligible, kwargs_spec, non_int])
    assert recorder.calls == [[(0, 100)]]
    assert results[0].value == ("fast", "a", 0, 100)
    assert results[1].value == ("slow", "a", 1, 101)
    assert results[2].value == ("slow", "a", 2, 102.5)


def test_results_match_per_spec_execution():
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w = Workload(fn=_work, args=("a",))
    specs = _specs(w, 4)
    got = execute_specs(specs)
    expected = [
        TrialResult(key=s.key, value=("fast", "a", *s.args)) for s in specs
    ]
    assert got == expected


def test_declining_compiler_falls_back():
    register_chunk_kernel(_work, lambda workload: None)
    w = Workload(fn=_work, args=("a",))
    assert chunk_runner(w) is None
    results = execute_specs(_specs(w, 2))
    assert results[0].value == ("slow", "a", 0, 100)


def test_unregistered_fn_falls_back():
    w = Workload(fn=_other, args=())
    spec = TrialSpec(key=("x",), args=(1, 2), workload=w)
    # _other(1, 2) raises TypeError -> wrapped; proves the kernel path
    # was never taken for an unregistered fn (it would have crashed
    # differently) and the normal execute machinery ran.
    results = execute_specs([TrialSpec(key=("y",), fn=_other, args=(7,))])
    assert results[0].value == ("plain", 7)
    assert chunk_runner(w) is None
    del spec


def test_workload_compiles_once_across_chunks():
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w = Workload(fn=_work, args=("a",))
    for trials in (2, 3, 1, 4):
        execute_specs(_specs(w, trials))
    assert recorder.compiles == 1
    assert len(recorder.calls) == 4


def test_dropped_specs_free_workload_runner_and_graph():
    # The runner lives on its workload and pins the graph; nothing
    # process-wide keeps any of them once the specs go.
    def compiler(workload):
        graph = workload.args[0]
        return lambda keys, tails: [graph.num_vertices() for _ in tails]

    register_chunk_kernel(_work, compiler)
    graph = Hypercube(3)
    specs = _specs(Workload(fn=_work, args=(graph,)), 3)
    assert [r.value for r in execute_specs(specs)] == [8, 8, 8]
    refs = [
        weakref.ref(specs[0].workload),
        weakref.ref(chunk_runner(specs[0].workload)),
        weakref.ref(graph),
    ]
    del specs, graph
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_unpickled_copies_compile_once(monkeypatch):
    # Two chunks of one workload, unpickled in one process, resolve to
    # one live copy (`_live_copy`), so its runner compiles once.
    monkeypatch.setattr(workload_module, "_LIVE", OrderedDict())
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w = Workload(fn=_work, args=("a",))
    first = pickle.loads(pickle.dumps(_specs(w, 2)))
    second = pickle.loads(pickle.dumps(_specs(w, 3, key="k2")))
    assert first[0].workload is second[0].workload is not w
    execute_specs(first)
    execute_specs(second)
    assert recorder.compiles == 1
    assert len(recorder.calls) == 2


def test_env_switch(monkeypatch):
    # The switch's accepted spellings are resolver cases in
    # tests/test_settings.py; here, "off" must bypass the kernel.
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w = Workload(fn=_work, args=("a",))
    monkeypatch.setenv("REPRO_KERNEL", "off")
    results = execute_specs(_specs(w, 2))
    assert recorder.calls == []
    assert results[0].value == ("slow", "a", 0, 100)
    assert chunk_runner(w) is None


def test_env_switch_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "maybe")
    with pytest.raises(ValueError, match="REPRO_KERNEL"):
        execute_specs([])


def _ran(specs):
    """Execute ``specs``; return what the tally counted doing it."""
    before = TALLY.copy()
    execute_specs(specs)
    return TALLY - before


def _run_inner(trials):
    return execute_specs(_specs(Workload(fn=_work, args=("inner",)), trials))


def test_tally_counts_what_executed():
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    w = Workload(fn=_work, args=("a",))
    plain = TrialSpec(key=("p",), fn=_other, args=(1,))
    assert _ran(_specs(w, 3) + [plain]) == {"kernel": 3, "per-trial": 1}
    assert len(recorder.calls) == 1


def test_tally_counts_specs_a_nested_runner_executes():
    # A spec whose body runs its own batch (as E13's points do) counts
    # as one per-trial spec, and each inner spec where it ran.
    register_chunk_kernel(_work, _Recorder())
    nested = TrialSpec(key=("outer",), fn=_run_inner, args=(4,))
    assert _ran([nested]) == {"kernel": 4, "per-trial": 1}


def test_tally_all_per_trial_when_disabled(monkeypatch):
    recorder = _Recorder()
    register_chunk_kernel(_work, recorder)
    monkeypatch.setenv("REPRO_KERNEL", "off")
    w = Workload(fn=_work, args=("a",))
    assert _ran(_specs(w, 3)) == {"per-trial": 3}
    assert recorder.calls == []
