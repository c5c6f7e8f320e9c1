"""End-to-end tests for the experiment service (repro serve).

A real :class:`ExperimentService` — TCP socket, asyncio front-end, job
executor — boots on an ephemeral port per test class; clients talk
genuine HTTP.  The acceptance claims under test:

* a repeated job is served **entirely from cache** (zero trials
  executed — asserted through the runner instrumentation, not timing)
  and its table is byte-identical to a direct ``repro run``-style
  serial execution;
* an **overlapping sweep** (50% shared points) executes only the
  delta;
* ``/healthz`` reports the resolved backend, cache dir and entry
  count the small-fix satellite added.
"""

import json
import socket
import time

import pytest

from repro.experiments.registry import get_experiment
from repro.runtime import SerialRunner
from repro.serve import http
from repro.serve.testing import (
    get_json,
    request,
    start_service,
    submit_job,
    wait_for_job,
)


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    svc = start_service(
        backend="serial",
        cache_dir=tmp_path_factory.mktemp("serve-cache"),
    )
    yield svc
    svc.stop()


class TestRepeatedJob:
    def test_second_submission_is_pure_cache(self, service):
        first = wait_for_job(
            service, submit_job(service, "E1", seed=3)["job_id"]
        )
        assert first["state"] == "done"
        assert first["trials_executed"] > 0
        assert first["cached"] is False

        second = wait_for_job(
            service, submit_job(service, "E1", seed=3)["job_id"]
        )
        assert second["state"] == "done"
        assert second["trials_executed"] == 0, (
            "repeat of a finished job must execute zero trials"
        )
        assert second["cached"] is True
        assert second["points_cached"] == second["points_total"] > 0
        assert second["job_id"] != first["job_id"]

        _, table1 = request(
            service, "GET", f"/jobs/{first['job_id']}/table"
        )
        _, table2 = request(
            service, "GET", f"/jobs/{second['job_id']}/table"
        )
        assert table1 == table2

    def test_table_byte_identical_to_direct_serial_run(self, service):
        done = wait_for_job(
            service, submit_job(service, "E1", seed=3)["job_id"]
        )
        status, served = request(
            service, "GET", f"/jobs/{done['job_id']}/table"
        )
        assert status == 200
        with SerialRunner() as runner:
            direct = get_experiment("E1")(
                scale="tiny", seed=3, runner=runner
            )
        assert served == direct.render().encode()

    def test_table_json_format(self, service):
        done = wait_for_job(
            service, submit_job(service, "E1", seed=3)["job_id"]
        )
        payload = get_json(
            service, f"/jobs/{done['job_id']}/table?format=json"
        )
        assert payload["experiment_id"] == "E1"
        assert payload["columns"][0] == "n"
        assert len(payload["rows"]) == done["rows"]
        assert payload["render"].encode() == request(
            service, "GET", f"/jobs/{done['job_id']}/table"
        )[1]


class TestOverlappingSweep:
    def test_half_shared_sweep_executes_only_the_delta(self, service):
        # Two 4-point sweeps over (n=6) x (2 alphas) x (2 routers),
        # sharing alpha=0.5 — 50% of their points.
        first = wait_for_job(
            service,
            submit_job(
                service,
                "E1",
                seed=7,
                overrides={"alphas": [0.3, 0.5], "trials": 4},
            )["job_id"],
        )
        assert first["state"] == "done"
        assert first["points_total"] == 4
        assert first["trials_executed"] == 16

        second = wait_for_job(
            service,
            submit_job(
                service,
                "E1",
                seed=7,
                overrides={"alphas": [0.5, 0.7], "trials": 4},
            )["job_id"],
        )
        assert second["state"] == "done"
        assert second["points_total"] == 4
        assert second["points_cached"] == 2, (
            "the alpha=0.5 points must come from cache"
        )
        assert second["trials_executed"] == 8, (
            "only the alpha=0.7 delta may execute"
        )

    def test_override_order_coalesces_to_same_key(self, service):
        a = submit_job(
            service,
            "E1",
            seed=7,
            overrides={"alphas": [0.3, 0.5], "trials": 4},
        )
        b = submit_job(
            service,
            "E1",
            seed=7,
            overrides={"trials": 4, "alphas": [0.3, 0.5]},
        )
        assert a["key"] == b["key"]


class TestEndpoints:
    def test_healthz_reports_resolved_environment(self, service):
        health = get_json(service, "/healthz")
        assert health["status"] == "ok"
        assert health["backend"] == "serial"
        assert health["cache_dir"] == str(service.cache.directory)
        assert health["cache_entries"] == service.cache.entry_count()
        assert health["code_version"]
        assert set(health["jobs"]) == {
            "total", "queued", "running", "done", "failed",
        }

    def test_cache_stats_endpoint(self, service):
        stats = get_json(service, "/cache/stats")
        for counter in (
            "hits", "misses", "stores", "repairs", "evictions",
            "declined", "entries", "cap",
        ):
            assert counter in stats

    def test_jobs_listing(self, service):
        wait_for_job(
            service, submit_job(service, "E1", seed=3)["job_id"]
        )
        listing = get_json(service, "/jobs")
        assert any(
            job["experiment"] == "E1" for job in listing["jobs"]
        )

    def test_stream_ends_with_terminal_snapshot(self, service):
        job_id = submit_job(service, "E1", seed=11)["job_id"]
        status, body = request(service, "GET", f"/jobs/{job_id}")
        assert status == 200
        lines = [
            json.loads(line)
            for line in body.decode().splitlines()
            if line
        ]
        assert lines, "stream must carry at least one snapshot"
        assert lines[-1]["state"] == "done"
        assert all(line["job_id"] == job_id for line in lines)

    def test_validation_errors_are_400(self, service):
        cases = [
            {"experiment": "E99"},
            {"experiment": "E1", "scale": "huge"},
            {"experiment": "E1", "seed": "zero"},
            {"experiment": "E2", "overrides": {"alphas": [1]}},
            {"experiment": "E1", "overrides": {"bogus": 1}},
            {"experiment": "E1", "unknown_field": 1},
            {},
        ]
        for payload in cases:
            status, body = request(
                service, "POST", "/jobs", body=payload
            )
            assert status == 400, (payload, body)
            assert "error" in json.loads(body)

    def test_unknown_routes_and_methods(self, service):
        assert request(service, "GET", "/nope")[0] == 404
        assert request(service, "DELETE", "/jobs")[0] == 405
        assert request(service, "GET", "/jobs/j9999-missing")[0] == 404
        assert (
            request(service, "GET", "/jobs/j9999-missing/table")[0]
            == 404
        )


class TestStreamPolling:
    def test_stream_backs_off_from_one_to_fifty_ms(
        self, tmp_path, monkeypatch
    ):
        # A stream re-reads its job after 1/20 of the time it has waited
        # so far, between 1 and 50 ms, and ends on the first terminal
        # snapshot.  The schedule is read off a patched asyncio.sleep.
        import asyncio

        from repro.serve import http
        from repro.serve.http import ExperimentService

        running = 150
        snapshots = [{"job_id": "j1", "state": "running"}] * (running + 1)
        snapshots.append({"job_id": "j1", "state": "done"})
        delays = []

        async def sleep(delay):
            delays.append(delay)

        class Writer:
            def __init__(self):
                self.lines = []

            def write(self, data):
                self.lines.append(data)

            async def drain(self):
                pass

        service = ExperimentService(backend="serial", cache_dir=tmp_path)
        try:
            monkeypatch.setattr(
                service.manager, "snapshot", lambda job_id: snapshots.pop(0)
            )
            monkeypatch.setattr(http.asyncio, "sleep", sleep)
            writer = Writer()
            asyncio.run(service._stream(writer, "j1"))
        finally:
            service.manager.close()
        assert snapshots == []
        assert json.loads(writer.lines[-1])["state"] == "done"
        assert len(delays) == running + 1
        assert delays[:20] == [0.001] * 20
        assert delays[21] == pytest.approx(0.021 / 20)
        assert delays == sorted(delays)
        assert delays[-1] == 0.05
        for index, delay in enumerate(delays):
            if 0.001 < delay < 0.05:
                assert delay == pytest.approx(sum(delays[:index]) / 20)


class TestCacheStatsFromTheTally:
    def test_healthz_and_stats_do_not_scan_the_store(
        self, tmp_path, monkeypatch
    ):
        # The service seeds the cache's tally at start-up; afterwards
        # neither endpoint globs the store on the event loop.
        from repro.serve.cache import ResultCache

        store = ResultCache(tmp_path)
        for i in range(3000):
            assert store.put(f"{i:04x}" + "f" * 28, [i])
        service = start_service(backend="serial", cache_dir=tmp_path)
        scans = []
        entries = ResultCache._entries

        def counting(self):
            scans.append(1)
            return entries(self)

        try:
            monkeypatch.setattr(ResultCache, "_entries", counting)
            health = get_json(service, "/healthz")
            stats = get_json(service, "/cache/stats")
        finally:
            service.stop()
        assert scans == []
        assert health["cache_entries"] == stats["entries"] == 3000
        assert stats["bytes"] == store.total_bytes()


def _exchange(service, request: bytes) -> bytes:
    """Send raw request bytes; return every byte the service answers."""
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(1 << 16):
            reply += chunk
    return reply


class TestRequestBounds:
    def test_more_than_100_header_lines_is_431_before_the_body(
        self, service
    ):
        # http.client's own limit: 100 header lines are served, and a
        # 101st is answered 431 before the body behind it is read, so
        # the job it carries is never submitted.
        lines = "".join(f"X-Line-{i}: {i}\r\n" for i in range(100))
        reply = _exchange(
            service, f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode()
        )
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        body = json.dumps({"experiment": "E17", "scale": "tiny", "seed": 431})
        reply = _exchange(
            service,
            (
                f"POST /jobs HTTP/1.1\r\n{lines}"
                f"Content-Length: {len(body)}\r\n\r\n{body}"
            ).encode(),
        )
        assert reply.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )
        assert b"more than 100 header lines" in reply
        jobs = get_json(service, "/jobs")["jobs"]
        assert not [job for job in jobs if job["seed"] == 431]

    @pytest.mark.parametrize(
        "length, status",
        [
            ("abc", b"400 Bad Request"),
            ("-5", b"400 Bad Request"),
            (str(http.MAX_BODY + 1), b"413 "),
        ],
        ids=["not-a-number", "negative", "over-the-cap"],
    )
    def test_bad_content_length_is_answered_before_the_body(
        self, service, length, status
    ):
        # A length that is not a number or is negative is 400, one past
        # the cap is 413; either way the body is never read, so the job
        # it carries is never submitted.
        body = json.dumps({"experiment": "E17", "scale": "tiny", "seed": 400})
        reply = _exchange(
            service,
            (
                f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                f"{body}"
            ).encode(),
        )
        assert reply.startswith(b"HTTP/1.1 " + status), reply[:80]
        jobs = get_json(service, "/jobs")["jobs"]
        assert not [job for job in jobs if job["seed"] == 400]

    def test_whole_request_must_arrive_within_one_timeout(
        self, service, monkeypatch
    ):
        # REQUEST_TIMEOUT bounds the whole request, not each line: a
        # client that sends a header line every 0.3s is cut off,
        # unanswered, once the timeout has passed since it connected.
        monkeypatch.setattr(http, "REQUEST_TIMEOUT", 1.0)
        reply = None
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            start = time.monotonic()
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            sock.settimeout(0.3)
            try:
                for i in range(20):
                    try:
                        reply = sock.recv(1024)
                        break
                    except TimeoutError:
                        sock.sendall(f"X-Drip-{i}: {i}\r\n".encode())
            except (ConnectionResetError, BrokenPipeError):
                reply = b""
            held = time.monotonic() - start
        assert reply == b"", f"the service answered {reply!r:.80}"
        assert held < 2.5
