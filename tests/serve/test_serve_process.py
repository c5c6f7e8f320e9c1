"""``repro serve`` as its own process: signals, restarts.

Each test starts ``python -m repro serve --port 0`` in a subprocess,
reads the address it announces, and talks to it with the
:mod:`repro.serve.testing` client helpers (they need only a host and a
port).  SIGTERM must stop the service cleanly — exit 0, no traceback,
its pool workers gone — and a service restarted on the same cache
directory must answer a repeat with one cache read.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.serve.testing import get_json, request, submit_job, wait_for_job

_ANNOUNCED = re.compile(r" on http://([^\s:]+):(\d+) ")


class _ServeProcess:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir, *flags) -> None:
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", str(cache_dir), *flags,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        announced = self.proc.stdout.readline()
        match = _ANNOUNCED.search(announced)
        if match is None:
            self.proc.kill()
            _, err = self.proc.communicate(timeout=60)
            raise AssertionError(f"no address announced: {announced!r}\n{err}")
        self.host, self.port = match.group(1), int(match.group(2))

    def children(self) -> set[int]:
        """The pids of the service's child processes (whichever of its
        threads started them)."""
        tasks = Path(f"/proc/{self.proc.pid}/task")
        return {
            int(pid)
            for task in tasks.iterdir()
            for pid in (task / "children").read_text().split()
        }

    def terminate(self) -> str:
        """Send SIGTERM and wait for the exit; returns stderr."""
        self.proc.send_signal(signal.SIGTERM)
        _, err = self.proc.communicate(timeout=60)
        return err

    def __enter__(self) -> "_ServeProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate(timeout=60)


def _table(service, job_id) -> bytes:
    status, body = request(service, "GET", f"/jobs/{job_id}/table")
    assert status == 200, body
    return body


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<tid>/children",
)
def test_sigterm_stops_the_service_and_its_pool_workers(tmp_path):
    workers: set[int] = set()
    try:
        with _ServeProcess(
            tmp_path / "cache", "--backend", "process", "--workers", "2"
        ) as service:
            done = wait_for_job(
                service, submit_job(service, "E1")["job_id"]
            )
            assert done["state"] == "done"
            workers = service.children()
            assert len(workers) == 2, workers
            err = service.terminate()
            assert service.proc.returncode == 0, err
            assert "Traceback" not in err
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
    finally:
        for pid in workers:  # a service that died without them
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def test_restart_keeps_a_repeat_at_one_read(tmp_path):
    cache_dir = tmp_path / "cache"
    with _ServeProcess(cache_dir, "--backend", "serial") as first:
        cold = wait_for_job(
            first, submit_job(first, "E17")["job_id"]
        )
        cold_table = _table(first, cold["job_id"])
        first.terminate()
    with _ServeProcess(cache_dir, "--backend", "serial") as second:
        repeat = wait_for_job(
            second, submit_job(second, "E17")["job_id"]
        )
        repeat_table = _table(second, repeat["job_id"])
        stats = get_json(second, "/cache/stats")
        second.terminate()
    assert cold["state"] == "done"
    assert cold["trials_executed"] > 0
    assert repeat["cached"] is True
    assert repeat["trials_executed"] == 0
    assert stats["hits"] == 1
    assert repeat_table == cold_table
