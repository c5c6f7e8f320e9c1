"""Tests for the trial-execution runtime (specs, runners, chunking)."""

import os

import pytest

from repro.runtime import (
    ClusterRunner,
    ProcessPoolRunner,
    SerialRunner,
    TrialExecutionError,
    TrialResult,
    TrialSpec,
    available_backends,
    make_runner,
)
from repro.util.rng import uniform_for


@pytest.fixture
def pinned_backend(monkeypatch):
    """Neutralise $REPRO_BACKEND for tests asserting construction types."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


# Worker functions must live at module level so they pickle by reference.
def _square(x):
    return x * x


def _seeded_value(seed, label):
    return uniform_for(seed, label)


def _fail(x):
    raise ValueError(f"boom {x}")


def _kwarg_echo(a, b=0):
    return (a, b)


def _die():  # pragma: no cover - runs in a worker process
    os._exit(13)


def _specs(count):
    return [
        TrialSpec(key=("sq", i), fn=_square, args=(i,)) for i in range(count)
    ]


class TestTrialSpec:
    def test_execute_returns_result(self):
        result = TrialSpec(key=("k",), fn=_square, args=(3,)).execute()
        assert result == TrialResult(key=("k",), value=9)

    def test_kwargs_passed(self):
        spec = TrialSpec(key=("k",), fn=_kwarg_echo, args=(1,), kwargs={"b": 2})
        assert spec.execute().value == (1, 2)

    def test_failure_wrapped_with_key(self):
        spec = TrialSpec(key=("bad", 7), fn=_fail, args=(7,))
        with pytest.raises(TrialExecutionError) as err:
            spec.execute()
        assert err.value.key == ("bad", 7)
        assert "ValueError" in str(err.value)
        assert "boom 7" in str(err.value)

    def test_failure_detail_carries_traceback(self):
        # The original exception's frames must survive in text form —
        # they are all a pool failure ever reports back.
        spec = TrialSpec(key=("bad", 7), fn=_fail, args=(7,))
        with pytest.raises(TrialExecutionError) as err:
            spec.execute()
        assert "Traceback (most recent call last)" in err.value.detail
        assert "_fail" in err.value.detail  # the failing frame is named

    def test_pool_failure_detail_carries_worker_traceback(self):
        # Same guarantee across the process boundary: the frame that
        # raised inside the worker appears in the parent-side error.
        specs = _specs(4) + [TrialSpec(key=("bad", 1), fn=_fail, args=(1,))]
        with ProcessPoolRunner(workers=2, chunksize=1) as runner:
            with pytest.raises(TrialExecutionError) as err:
                runner.run(specs)
        assert err.value.key == ("bad", 1)
        assert "Traceback (most recent call last)" in err.value.detail
        assert "_fail" in err.value.detail


class TestSerialRunner:
    def test_order_preserved(self):
        results = SerialRunner().run(_specs(5))
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert [r.key for r in results] == [("sq", i) for i in range(5)]

    def test_zero_trials(self):
        assert SerialRunner().run([]) == []

    def test_run_values(self):
        assert SerialRunner().run_values(_specs(3)) == [0, 1, 4]

    def test_error_propagates(self):
        specs = _specs(2) + [TrialSpec(key=("bad",), fn=_fail, args=(0,))]
        with pytest.raises(TrialExecutionError):
            SerialRunner().run(specs)


class TestProcessPoolRunner:
    def test_order_preserved_many_chunks(self):
        runner = ProcessPoolRunner(workers=3, chunksize=2)
        assert runner.run_values(_specs(11)) == [i * i for i in range(11)]

    def test_zero_trials(self):
        assert ProcessPoolRunner(workers=4).run([]) == []

    def test_fewer_trials_than_workers(self):
        # 2 specs on 8 workers: pool must shrink, not hang or drop work.
        runner = ProcessPoolRunner(workers=8)
        assert runner.run_values(_specs(2)) == [0, 1]

    def test_single_trial_runs_inline(self):
        assert ProcessPoolRunner(workers=4).run_values(_specs(1)) == [0]

    def test_matches_serial(self):
        specs = [
            TrialSpec(key=("u", i), fn=_seeded_value, args=(i, "x"))
            for i in range(10)
        ]
        serial = SerialRunner().run(specs)
        parallel = ProcessPoolRunner(workers=4, chunksize=3).run(specs)
        assert serial == parallel

    def test_worker_exception_propagates(self):
        specs = _specs(6) + [TrialSpec(key=("bad", 1), fn=_fail, args=(1,))]
        runner = ProcessPoolRunner(workers=2, chunksize=2)
        with pytest.raises(TrialExecutionError) as err:
            runner.run(specs)
        assert err.value.key == ("bad", 1)

    def test_worker_crash_propagates(self):
        # A worker dying outright (not raising) must surface as an
        # error, not a hang or a silent partial result.
        specs = _specs(3) + [TrialSpec(key=("die",), fn=_die)]
        runner = ProcessPoolRunner(workers=2, chunksize=1)
        with pytest.raises(TrialExecutionError) as err:
            runner.run(specs)
        assert "worker process died" in str(err.value)

    def test_chunksize_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(workers=2, chunksize=0)

    def test_zero_workers_rejected(self):
        # 0 must not silently fall back to cpu_count.
        with pytest.raises(ValueError):
            ProcessPoolRunner(workers=0)

    def test_auto_chunksize_covers_batch(self):
        runner = ProcessPoolRunner(workers=4)
        for total in (1, 2, 15, 16, 17, 1000):
            size = runner._pick_chunksize(total)
            assert size >= 1
            chunk_count = -(-total // size)
            assert chunk_count * size >= total

    def test_fewer_trials_than_chunksize_runs_inline(self, monkeypatch):
        # Regression: a batch that folds into a single chunk must not
        # spawn a pool (it used to ship the lone chunk to a worker).
        import repro.runtime.runner as runner_module

        def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool spawned for a single chunk")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", _no_pool)
        runner = ProcessPoolRunner(workers=8, chunksize=16)
        assert runner.run_values(_specs(3)) == [0, 1, 4]

    def test_pool_never_larger_than_chunk_count(self):
        # 3 specs, chunksize 2 → 2 chunks; a 8-worker runner must shrink
        # its pool to 2, not spawn idle (or empty-chunk) workers.
        runner = ProcessPoolRunner(workers=8, chunksize=2)
        specs = _specs(3)
        size = runner._pick_chunksize(len(specs))
        chunks = [
            specs[start : start + size]
            for start in range(0, len(specs), size)
        ]
        assert all(chunks)  # no empty chunks, ever
        assert min(runner.workers, len(chunks)) == 2
        assert runner.run_values(specs) == [0, 1, 4]


class TestRunGrouped:
    def test_values_regrouped_in_order(self):
        groups = [
            ("squares", _specs(3)),
            (
                "uniforms",
                [
                    TrialSpec(key=("u", i), fn=_seeded_value, args=(i, "x"))
                    for i in range(2)
                ],
            ),
            ("empty", []),
        ]
        out = SerialRunner().run_grouped(groups)
        assert out["squares"] == [0, 1, 4]
        assert out["uniforms"] == [_seeded_value(0, "x"), _seeded_value(1, "x")]
        assert out["empty"] == []

    def test_single_flat_batch_matches_serial(self):
        groups = [(("g", i), _specs(4)) for i in range(3)]
        serial = SerialRunner().run_grouped(groups)
        parallel = ProcessPoolRunner(workers=2, chunksize=1).run_grouped(
            groups
        )
        assert serial == parallel

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            SerialRunner().run_grouped([("a", _specs(1)), ("a", _specs(1))])


class TestWorkerResolution:
    # The resolver cases themselves (argument beats environment beats
    # default, garbage rejected) live in tests/test_settings.py; these
    # pin that every construction path goes through it.
    def test_default_is_serial(self, monkeypatch, pinned_backend):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(make_runner(), SerialRunner)

    def test_env_zero_rejected_everywhere(self, monkeypatch):
        # Regression for the uniform-validation contract: an
        # env-supplied 0 must raise on EVERY construction path —
        # including a directly-built pool that previously never
        # consulted the variable.
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            make_runner()
        with pytest.raises(ValueError):
            ProcessPoolRunner()

    def test_argument_float_rejected(self):
        # The uniform contract covers arguments too: a float must
        # raise at the call site, not defer the crash to the pool.
        with pytest.raises(ValueError):
            ProcessPoolRunner(workers=2.5)

    def test_make_runner_parallel(self, pinned_backend):
        runner = make_runner(3)
        assert isinstance(runner, ProcessPoolRunner)
        assert runner.workers == 3


class TestChunksizeResolution:
    def test_env_zero_rejected_by_direct_construction(self, monkeypatch):
        # Regression: ProcessPoolRunner(chunksize=None) used to ignore
        # $REPRO_CHUNKSIZE entirely, silently accepting an invalid 0
        # in the environment; it now resolves (and validates) it.
        monkeypatch.setenv("REPRO_CHUNKSIZE", "0")
        with pytest.raises(ValueError):
            ProcessPoolRunner(workers=2)

    def test_env_reaches_direct_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNKSIZE", "5")
        assert ProcessPoolRunner(workers=2).chunksize == 5
        assert ProcessPoolRunner(workers=2, chunksize=7).chunksize == 7

    def test_make_runner_threads_chunksize(self, monkeypatch, pinned_backend):
        monkeypatch.delenv("REPRO_CHUNKSIZE", raising=False)
        assert make_runner(3, 9).chunksize == 9
        monkeypatch.setenv("REPRO_CHUNKSIZE", "4")
        assert make_runner(3).chunksize == 4
        assert make_runner(3, 9).chunksize == 9  # argument beats env

    def test_serial_runner_ignores_chunksize(self, monkeypatch, pinned_backend):
        monkeypatch.setenv("REPRO_CHUNKSIZE", "4")
        assert isinstance(make_runner(1), SerialRunner)


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert available_backends() == (
            "auto", "serial", "process", "cluster",
        )

    def test_explicit_backend_beats_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert isinstance(make_runner(backend="serial"), SerialRunner)

    def test_process_backend_even_for_one_worker(self, pinned_backend):
        runner = make_runner(1, backend="process")
        assert isinstance(runner, ProcessPoolRunner)
        assert runner.workers == 1

    def test_cluster_backend_constructs_lazily(self, monkeypatch):
        # Construction must not connect or spawn anything yet.
        monkeypatch.delenv("REPRO_CLUSTER_NODES", raising=False)
        runner = make_runner(2, backend="cluster")
        assert isinstance(runner, ClusterRunner)
        assert runner.workers == 2
        assert runner._nodes is None

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert isinstance(make_runner(1), ProcessPoolRunner)
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert isinstance(make_runner(5), SerialRunner)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert isinstance(make_runner(1, backend="auto"), SerialRunner)

    def test_unknown_backend_rejected_with_listing(self, pinned_backend):
        with pytest.raises(ValueError, match="serial"):
            make_runner(backend="warp-drive")

    def test_env_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError):
            make_runner()

    def test_serial_backend_still_validates_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            make_runner(backend="serial")
