"""Tests for CachedRunner — point-level caching over any inner runner.

The contract under test: results through the wrapper are identical to
the inner runner's (hit or miss), a repeated sweep executes zero
trials, an overlapping sweep executes exactly the delta, and a miss
batch reaches the inner runner as ONE flat run_grouped call so the
delta still parallelises across points.
"""

import pytest

from repro.runtime import SerialRunner, TrialSpec, Workload
from repro.serve.cache import ResultCache
from repro.serve.cached_runner import CachedRunner
from repro.serve.digest import point_digest

VERSION = "cached-runner-test"


def _kernel(payload, trial, seed):
    return {"payload": payload, "trial": trial, "seed": seed}


def _point(label, trials=3):
    workload = Workload(_kernel, args=(label,))
    return [
        TrialSpec(key=(label, t), workload=workload, args=(t, 50 + t))
        for t in range(trials)
    ]


class _CountingRunner(SerialRunner):
    """Serial inner runner that tallies what actually reaches it."""

    def __init__(self):
        super().__init__()
        self.run_calls = 0
        self.grouped_calls = 0
        self.executed = 0

    def run(self, specs):
        specs = list(specs)
        self.run_calls += 1
        self.executed += len(specs)
        return super().run(specs)

    def run_grouped(self, groups):
        groups = [(label, list(specs)) for label, specs in groups]
        self.grouped_calls += 1
        self.executed += sum(len(specs) for _, specs in groups)
        return super().run_grouped(groups)


@pytest.fixture
def cached(tmp_path):
    inner = _CountingRunner()
    runner = CachedRunner(
        inner, ResultCache(tmp_path), version=VERSION
    )
    return runner, inner


class TestRunGrouped:
    def test_results_match_serial(self, cached):
        runner, _ = cached
        groups = [("a", _point("a")), ("b", _point("b"))]
        expected = SerialRunner().run_grouped(
            [("a", _point("a")), ("b", _point("b"))]
        )
        assert runner.run_grouped(groups) == expected

    def test_repeat_executes_zero_trials(self, cached):
        runner, inner = cached
        groups = lambda: [("a", _point("a")), ("b", _point("b"))]
        first = runner.run_grouped(groups())
        executed_after_first = inner.executed
        runner.reset_counters()
        second = runner.run_grouped(groups())
        assert second == first
        assert inner.executed == executed_after_first
        assert runner.trials_executed == 0
        assert runner.points_cached == runner.points_total == 2

    def test_overlap_executes_only_the_delta(self, cached):
        runner, inner = cached
        runner.run_grouped([("a", _point("a")), ("b", _point("b"))])
        runner.reset_counters()
        out = runner.run_grouped(
            [("b", _point("b")), ("c", _point("c"))]
        )
        assert set(out) == {"b", "c"}
        assert runner.points_cached == 1
        assert runner.trials_executed == len(_point("c"))
        assert out["b"] == SerialRunner().run_grouped(
            [("b", _point("b"))]
        )["b"]

    def test_misses_reach_inner_as_one_flat_batch(self, cached):
        runner, inner = cached
        runner.run_grouped([("a", _point("a"))])
        inner.grouped_calls = 0
        runner.run_grouped(
            [
                ("a", _point("a")),
                ("c", _point("c")),
                ("d", _point("d")),
            ]
        )
        # Two misses, ONE inner run_grouped call (the delta stays a
        # single batch so it parallelises across points).
        assert inner.grouped_calls == 1

    def test_all_hits_skip_inner_entirely(self, cached):
        runner, inner = cached
        runner.run_grouped([("a", _point("a"))])
        inner.grouped_calls = 0
        runner.run_grouped([("a", _point("a"))])
        assert inner.grouped_calls == 0

    def test_duplicate_labels_rejected(self, cached):
        runner, _ = cached
        with pytest.raises(ValueError, match="unique"):
            runner.run_grouped([("a", _point("a")), ("a", _point("a"))])

    @pytest.mark.parametrize(
        "entry", [[0] * 4, 5], ids=["wrong-length", "not-a-list"]
    )
    def test_wrong_shaped_entry_is_a_miss(self, cached, entry):
        runner, _ = cached
        digest = point_digest(_point("a"), version=VERSION)
        runner.cache.put(digest, entry)
        before = runner.cache.stats()
        out = runner.run_grouped([("a", _point("a"))])
        after = runner.cache.stats()
        assert after["hits"] - before["hits"] == 0
        assert after["misses"] - before["misses"] == 1
        assert runner.trials_executed == len(_point("a"))
        assert out == SerialRunner().run_grouped([("a", _point("a"))])
        # The recompute overwrote the entry.
        assert runner.cache.get(digest) == out["a"]

    def test_version_change_invalidates(self, cached, tmp_path):
        runner, inner = cached
        runner.run_grouped([("a", _point("a"))])
        bumped = CachedRunner(
            inner, ResultCache(tmp_path), version=VERSION + "-2"
        )
        bumped.run_grouped([("a", _point("a"))])
        assert bumped.points_cached == 0


class TestRun:
    def test_plain_run_caches_whole_batch(self, cached):
        runner, inner = cached
        specs = _point("flat", trials=4)
        first = runner.run(specs)
        assert inner.run_calls == 1
        second = runner.run(_point("flat", trials=4))
        assert inner.run_calls == 1  # served from cache
        assert [r.value for r in second] == [r.value for r in first]
        assert [r.key for r in second] == [s.key for s in specs]


class TestProgressAndCounters:
    def test_on_progress_sees_final_counters(self, cached, tmp_path):
        snapshots = []
        runner = CachedRunner(
            SerialRunner(),
            ResultCache(tmp_path / "p"),
            version=VERSION,
            on_progress=snapshots.append,
        )
        runner.run_grouped([("a", _point("a")), ("b", _point("b"))])
        assert snapshots[-1] == runner.counters()
        assert snapshots[-1]["trials_executed"] == 6
        assert snapshots[-1]["points_total"] == 2

    def test_unpicklable_results_run_but_do_not_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = CachedRunner(
            _CountingRunner(), cache, version=VERSION
        )
        workload = Workload(_unpicklable_kernel)
        specs = [
            TrialSpec(key=("u", t), workload=workload, args=(t, 0))
            for t in range(2)
        ]
        out = runner.run_grouped([("u", specs)])
        assert len(out["u"]) == 2
        assert cache.stats()["declined"] == 1
        assert cache.entry_count() == 0


def _unpicklable_kernel(trial, seed):
    return lambda: (trial, seed)  # closures do not pickle


class TestLifecycle:
    def test_does_not_own_inner_by_default(self, tmp_path):
        inner = _CountingRunner()
        closed = []
        inner.close = lambda: closed.append(True)
        CachedRunner(inner, ResultCache(tmp_path)).close()
        assert closed == []
        CachedRunner(
            inner, ResultCache(tmp_path), own_inner=True
        ).close()
        assert closed == [True]

    def test_workers_mirror_inner(self, tmp_path):
        inner = SerialRunner()
        runner = CachedRunner(inner, ResultCache(tmp_path))
        assert runner.workers == inner.workers
