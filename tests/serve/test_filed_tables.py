"""The finished-table entry a served job files under its job key.

A job that finishes files its table in the result cache under the job
key; a later job with that key reads the one entry instead of calling
the definition.  These tests cover the entry's failure cases: an entry
under a job key that passed its checksum but is not a well-formed
:class:`~repro.serve.jobs.FiledTable` is a miss (the job recomputes
from its points and overwrites it), a failed job files nothing, and a
store that declines the entry still lets the job finish.
"""

import dataclasses

import pytest

from repro.experiments import registry
from repro.experiments.registry import get_experiment
from repro.experiments.spec import ExperimentSpec
from repro.runtime import SerialRunner, TrialSpec
from repro.serve.digest import job_key
from repro.serve.jobs import FiledTable
from repro.serve.testing import (
    request,
    start_service,
    submit_job,
    wait_for_job,
)


@pytest.fixture()
def service(tmp_path):
    svc = start_service(backend="serial", cache_dir=tmp_path / "cache")
    yield svc
    svc.stop()


def _run(service, experiment, seed=0):
    done = wait_for_job(
        service, submit_job(service, experiment, seed=seed)["job_id"]
    )
    status, table = request(service, "GET", f"/jobs/{done['job_id']}/table")
    return done, (table if status == 200 else None)


@pytest.mark.parametrize(
    "reshape",
    [
        lambda filed: [0] * filed.trials_total,
        lambda filed: filed.table,
        lambda filed: dataclasses.replace(
            filed, points_total=float(filed.points_total)
        ),
    ],
    ids=["point-values", "bare-table", "float-count"],
)
def test_wrong_shaped_entry_is_a_miss(service, def_calls, reshape):
    cold, cold_table = _run(service, "E1")
    key = cold["key"]
    filed = service.cache.get(key)
    assert type(filed) is FiledTable
    assert service.cache.put(key, reshape(filed))
    def_calls.clear()

    repeat, repeat_table = _run(service, "E1")
    assert def_calls == ["E1"], "a wrong-shaped entry must not be served"
    assert repeat["state"] == "done"
    assert repeat["trials_executed"] == 0
    assert repeat["points_cached"] == repeat["points_total"]
    assert repeat["points_total"] == cold["points_total"]
    assert repeat_table == cold_table

    # The recompute overwrote the entry with a well-formed record.
    refiled = service.cache.get(key)
    assert type(refiled) is FiledTable
    assert refiled.points_total == cold["points_total"]
    assert refiled.trials_total == cold["trials_total"]
    assert refiled.table.render().encode() == cold_table


def test_rejected_entry_counts_one_miss(service):
    cold, _ = _run(service, "E17")
    assert service.cache.put(cold["key"], [1, 2, 3])
    before = service.cache.stats()

    repeat, _ = _run(service, "E17")
    after = service.cache.stats()
    # The rejected table entry is the one miss; every point is a hit.
    assert repeat["points_cached"] == repeat["points_total"] == 6
    assert after["hits"] - before["hits"] == 6
    assert after["misses"] - before["misses"] == 1


def _square(value):
    return value * value


def _summary_fails_run(scale, seed, runner):
    runner.run_grouped(
        [
            (
                "a",
                [
                    TrialSpec(key=("sumfail", t), fn=_square, args=(t,))
                    for t in range(3)
                ],
            )
        ]
    )
    raise RuntimeError("summary exploded")


def test_failed_job_files_no_table(service, def_calls):
    registry.register(
        ExperimentSpec(
            experiment_id="SUMFAIL",
            title="fails after its sweep",
            claim="test-only",
            reference="tests/serve",
            run=_summary_fails_run,
        )
    )
    try:
        failed, _ = _run(service, "SUMFAIL")
        assert failed["state"] == "failed"
        assert "summary exploded" in failed["error"]
        assert service.cache.get(failed["key"]) is None

        # Its sweep point was cached, but no table was filed: the
        # resubmission calls the definition, which fails again.
        again, _ = _run(service, "SUMFAIL")
    finally:
        registry._REGISTRY.pop("SUMFAIL", None)
    assert again["state"] == "failed"
    assert again["points_cached"] == again["points_total"] == 1
    assert def_calls == ["SUMFAIL", "SUMFAIL"]


def test_declined_table_put_still_ends_done(service):
    key = job_key("E1", "tiny", 0, {}, version=service.manager.version)
    # A file where the entry's shard directory goes: the store declines
    # every write under that shard, the table's included.
    service.cache.directory.mkdir(parents=True)
    (service.cache.directory / key[:2]).write_bytes(b"")

    done, table = _run(service, "E1")
    assert done["key"] == key
    assert done["state"] == "done"
    assert service.cache.stats()["declined"] >= 1
    assert service.cache.get(key) is None
    direct = get_experiment("E1")(scale="tiny", seed=0, runner=SerialRunner())
    assert table == direct.render().encode()
