"""Fault-path tests for the experiment service.

Three failure stories the service must survive without serving wrong
results or losing work:

* a **corrupted or truncated cache entry** degrades to a miss — the
  point recomputes and the entry is repaired in place, never fatal;
* a **client that disconnects mid-stream** only tears down its own
  watcher; the job completes and populates the cache for the next
  submission;
* **concurrent identical submissions** coalesce onto one in-flight
  job (single-flight) — the computation runs once.

The slow/countable experiment these need is registered in the test
registry for the duration of the module and removed afterwards (the
framework tests assert the exact production registry).
"""

import socket
import threading
import time

import pytest

from repro.experiments import registry
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec
from repro.runtime import TrialSpec
from repro.serve.testing import (
    request,
    start_service,
    submit_job,
    wait_for_job,
)

# -- a countable, optionally slow test experiment -------------------------

_EXECUTIONS = []  # one entry per executed trial, across the module
_SLOW_SECONDS = 0.0


def _counting_trial(label, trial, seed):
    _EXECUTIONS.append((label, trial))
    if _SLOW_SECONDS:
        time.sleep(_SLOW_SECONDS)
    return {"label": label, "trial": trial, "seed": seed}


def _slow1_run(scale, seed, runner):
    groups = [
        (
            label,
            [
                TrialSpec(
                    key=("slow1", label, t),
                    fn=_counting_trial,
                    args=(label, t, seed),
                )
                for t in range(3)
            ],
        )
        for label in ("a", "b")
    ]
    records = runner.run_grouped(groups)
    table = ResultTable("SLOW1", "countable test experiment",
                        columns=["label", "trials"])
    for label in ("a", "b"):
        table.add_row(label=label, trials=len(records[label]))
    return table


@pytest.fixture(scope="module", autouse=True)
def _slow1_registered():
    registry.register(
        ExperimentSpec(
            experiment_id="SLOW1",
            title="countable test experiment",
            claim="test-only",
            reference="tests/serve",
            run=_slow1_run,
        )
    )
    try:
        yield
    finally:
        registry._REGISTRY.pop("SLOW1", None)


@pytest.fixture()
def service(tmp_path):
    svc = start_service(backend="serial", cache_dir=tmp_path / "cache")
    yield svc
    svc.stop()


def _set_slow(seconds):
    global _SLOW_SECONDS
    _SLOW_SECONDS = seconds


# -- corruption → recompute-and-repair ------------------------------------

class TestCorruptEntryRepair:
    @pytest.mark.parametrize(
        "damage",
        [lambda blob: blob[: len(blob) // 2], lambda blob: b"garbage"],
        ids=["truncated", "corrupted"],
    )
    def test_recompute_and_repair_through_the_service(
        self, service, damage
    ):
        _set_slow(0.0)
        _EXECUTIONS.clear()
        wait_for_job(
            service, submit_job(service, "SLOW1", seed=1)["job_id"]
        )
        assert len(_EXECUTIONS) == 6

        # Damage every entry behind the service's back.
        entries = list(service.cache.directory.glob("*/*.rpc"))
        assert entries
        for path in entries:
            path.write_bytes(damage(path.read_bytes()))

        _EXECUTIONS.clear()
        done = wait_for_job(
            service, submit_job(service, "SLOW1", seed=1)["job_id"]
        )
        assert done["state"] == "done"
        assert len(_EXECUTIONS) == 6, "damaged points must recompute"
        assert service.cache.stats()["repairs"] == len(entries)

        # ...and the rewritten entries serve the next repeat cold.
        _EXECUTIONS.clear()
        repaired = wait_for_job(
            service, submit_job(service, "SLOW1", seed=1)["job_id"]
        )
        assert repaired["trials_executed"] == 0
        assert _EXECUTIONS == []


# -- client disconnect mid-stream -----------------------------------------

class TestClientDisconnect:
    def test_job_completes_and_caches_after_watcher_drops(self, service):
        _set_slow(0.1)  # ~0.6s job: long enough to disconnect into
        _EXECUTIONS.clear()
        try:
            job_id = submit_job(service, "SLOW1", seed=2)["job_id"]
            # Open the progress stream raw, read one snapshot line,
            # then slam the connection shut mid-stream.
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                sock.sendall(
                    f"GET /jobs/{job_id} HTTP/1.1\r\n"
                    f"Host: {service.host}\r\n\r\n".encode()
                )
                assert sock.recv(1024)
        finally:
            _set_slow(0.0)

        done = wait_for_job(service, job_id)
        assert done["state"] == "done"
        assert done["trials_executed"] == 6

        # The abandoned job populated the cache: a fresh submission is
        # pure lookup.
        _EXECUTIONS.clear()
        repeat = wait_for_job(
            service, submit_job(service, "SLOW1", seed=2)["job_id"]
        )
        assert repeat["trials_executed"] == 0
        assert _EXECUTIONS == []
        assert repeat["cached"] is True


# -- single-flight coalescing ---------------------------------------------

class TestSingleFlight:
    def test_concurrent_identical_submissions_coalesce(self, service):
        _set_slow(0.1)
        _EXECUTIONS.clear()
        results = []

        def _submit():
            results.append(submit_job(service, "SLOW1", seed=3))

        try:
            threads = [
                threading.Thread(target=_submit) for _ in range(5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            _set_slow(0.0)

        job_ids = {snap["job_id"] for snap in results}
        assert len(job_ids) == 1, "identical in-flight submissions " \
            "must coalesce onto one job"
        (job_id,) = job_ids
        done = wait_for_job(service, job_id)
        assert done["state"] == "done"
        assert done["coalesced"] == 4
        assert len(_EXECUTIONS) == 6, "the computation ran exactly once"

    def test_different_keys_do_not_coalesce(self, service):
        a = submit_job(service, "SLOW1", seed=4)
        b = submit_job(service, "SLOW1", seed=5)
        assert a["job_id"] != b["job_id"]
        wait_for_job(service, a["job_id"])
        wait_for_job(service, b["job_id"])

    def test_finished_key_starts_a_fresh_job(self, service):
        first = submit_job(service, "SLOW1", seed=6)
        wait_for_job(service, first["job_id"])
        second = submit_job(service, "SLOW1", seed=6)
        assert second["job_id"] != first["job_id"]
        assert wait_for_job(service, second["job_id"])["cached"] is True


# -- failures surface, not hang -------------------------------------------

def _failing_trial(trial, seed):
    raise RuntimeError("trial exploded")


def _fail1_run(scale, seed, runner):
    runner.run(
        [
            TrialSpec(key=("fail1", 0), fn=_failing_trial, args=(0, seed))
        ]
    )
    raise AssertionError("unreachable")


class TestFailedJob:
    def test_failure_reported_and_table_404s(self, service):
        registry.register(
            ExperimentSpec(
                experiment_id="FAIL1",
                title="always fails",
                claim="test-only",
                reference="tests/serve",
                run=_fail1_run,
            )
        )
        try:
            done = wait_for_job(
                service, submit_job(service, "FAIL1")["job_id"]
            )
        finally:
            registry._REGISTRY.pop("FAIL1", None)
        assert done["state"] == "failed"
        assert "trial exploded" in done["error"]
        status, _ = request(
            service, "GET", f"/jobs/{done['job_id']}/table"
        )
        assert status == 404
