"""Every registered definition, served cold and then repeated.

One service answers each definition at tiny, seed 0, twice.  Both
tables must be the bytes a direct serial run renders, and the repeat
must be one cache read that never calls the definition.
"""

import pytest

from repro.experiments.registry import all_experiments, get_experiment
from repro.runtime import SerialRunner
from repro.serve.testing import (
    request,
    start_service,
    submit_job,
    wait_for_job,
)

ALL_IDS = [spec.experiment_id for spec in all_experiments()]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = start_service(
        backend="serial",
        cache_dir=tmp_path_factory.mktemp("parity-cache"),
    )
    yield svc
    svc.stop()


def _served_table(service, experiment_id) -> bytes:
    done = wait_for_job(
        service, submit_job(service, experiment_id, seed=0)["job_id"]
    )
    assert done["state"] == "done", done
    status, table = request(service, "GET", f"/jobs/{done['job_id']}/table")
    assert status == 200
    return table


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_served_repeat_is_one_read_of_the_serial_table(
    service, def_calls, experiment_id
):
    expected = get_experiment(experiment_id)(
        scale="tiny", seed=0, runner=SerialRunner()
    ).render().encode()
    cold = _served_table(service, experiment_id)

    hits = service.cache.stats()["hits"]
    def_calls.clear()
    repeat = _served_table(service, experiment_id)

    assert cold == expected
    assert repeat == expected
    assert service.cache.stats()["hits"] == hits + 1
    assert def_calls == [], "the repeat must not call the definition"
