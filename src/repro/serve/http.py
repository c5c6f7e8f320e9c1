"""The asyncio HTTP/1.1 front-end of the experiment service.

Standard library only: a minimal, deliberately small HTTP/1.1 handler
on :func:`asyncio.start_server` — request line, headers, optional
``Content-Length`` body, one request per connection (responses carry
``Connection: close``).  That is all the service needs, and it keeps
the wire layer auditable instead of adding a framework dependency.
Every request is bounded: it must arrive whole within
:data:`REQUEST_TIMEOUT` seconds (else the connection closes
unanswered), with at most :data:`MAX_HEADERS` header lines (else 431)
and a body of at most :data:`MAX_BODY` bytes (else 413).

Endpoints
---------

====== ========================= ========================================
Method Path                      Meaning
====== ========================= ========================================
GET    ``/healthz``              service health: resolved backend, cache
                                 dir, cache entry count + stats, job
                                 counts, code version
GET    ``/cache/stats``          result-cache counters
POST   ``/jobs``                 submit ``{experiment, scale, seed,
                                 overrides}`` (JSON); 202 with the job
                                 id, or the coalesced in-flight job's id
GET    ``/jobs``                 all job snapshots
GET    ``/jobs/<id>``            **stream** progress as NDJSON snapshots
                                 until the job finishes;
                                 ``?wait=0`` returns one snapshot
GET    ``/jobs/<id>/table``      the finished table, byte-identical to
                                 ``repro run`` output (``text/plain``);
                                 ``?format=json`` for rows + notes
====== ========================= ========================================

A client that disconnects mid-stream only tears down its own watcher
coroutine — the job runs on the :class:`~repro.serve.jobs.JobManager`
executor thread and completes (and populates the cache) regardless.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from urllib.parse import parse_qs, urlsplit

from repro.runtime.backends import make_runner
from repro.serve.cache import ResultCache
from repro.serve.digest import code_version
from repro.serve.jobs import FINISHED, JobManager, JobRequestError
from repro.settings import resolve

__all__ = ["ExperimentService"]

#: Largest accepted request body (a job submission is a few hundred
#: bytes; anything bigger is a client bug or abuse).
MAX_BODY = 1 << 20

#: A progress stream re-reads its job after 1/20 of the time it has
#: waited so far, between these bounds (seconds): a job that finishes
#: in a millisecond ends its stream about then, and a long job is read
#: 20 times a second.
STREAM_POLL_MIN_SECONDS = 0.001
STREAM_POLL_MAX_SECONDS = 0.05

#: Seconds a client may take to send its whole request (request line,
#: headers and body) before the connection is dropped unanswered
#: (slowloris guard).
REQUEST_TIMEOUT = 30.0

#: Most header lines a request may carry (``http.client``'s own
#: limit); one more is answered 431 before any body is read.
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ExperimentService:
    """The long-lived service: cache + persistent runner + HTTP app.

    Parameters mirror the ``repro serve`` CLI flags; every knob —
    ``backend``, ``workers``, ``chunksize`` and the cache's directory
    and caps — resolves through :func:`repro.settings.resolve`
    (argument, else environment, else default, validated), exactly as
    ``repro run``'s do.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backend: str | None = None,
        workers: int | None = None,
        chunksize: int | None = None,
        cache_dir=None,
        cache_cap: int | None = None,
        cache_cap_bytes: int | None = None,
        job_ttl: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.backend = resolve("backend", backend)
        self.cache = ResultCache(cache_dir, cache_cap, cache_cap_bytes)
        # Scan the store once now, so /healthz and /cache/stats read the
        # running tally instead of scanning on the event loop.
        self.cache.tally()
        self.runner = make_runner(workers, chunksize, backend=self.backend)
        self.manager = JobManager(self.runner, self.cache, job_ttl=job_ttl)
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stopping: asyncio.Event | None = None

    # -- request handling -------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                method, path, query, body = await asyncio.wait_for(
                    self._read_request(reader), REQUEST_TIMEOUT
                )
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ConnectionError,
                ValueError,
            ):
                return  # torn or overdue request; nothing to answer
            try:
                await self._dispatch(writer, method, path, query, body)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # pragma: no cover - defensive
                await self._send_json(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away; the job (if any) keeps running
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader):
        request_line = await reader.readline()
        if not request_line.strip():
            raise ValueError("empty request")
        try:
            method, target, _version = (
                request_line.decode("latin-1").split()
            )
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers = {}
        for count in range(MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADERS:
                raise _HttpError(
                    431, f"more than {MAX_HEADERS} header lines"
                )
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1  # not a number: as bad as a negative length
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY:
            raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
        body = b""
        if length:
            body = await reader.readexactly(length)
        parts = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        return method.upper(), parts.path, query, body

    async def _dispatch(self, writer, method, path, query, body) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self._health())
            return
        if path == "/cache/stats" and method == "GET":
            await self._send_json(writer, 200, self.cache.stats())
            return
        if path == "/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path == "/jobs" and method == "GET":
            await self._send_json(
                writer, 200, {"jobs": self.manager.jobs()}
            )
            return
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/") :]
            job_id, _, tail = rest.partition("/")
            if tail == "table":
                await self._table(writer, job_id, query)
                return
            if tail == "":
                if query.get("wait") == "0":
                    snapshot = self._snapshot_or_404(job_id)
                    await self._send_json(writer, 200, snapshot)
                else:
                    await self._stream(writer, job_id)
                return
        if path in ("/healthz", "/cache/stats", "/jobs") or path.startswith(
            "/jobs/"
        ):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {path}")

    # -- endpoint bodies --------------------------------------------------

    def _health(self) -> dict:
        cache = self.cache.stats()
        return {
            "status": "ok",
            "backend": self.backend,
            "runner": repr(self.runner),
            "cache_dir": str(self.cache.directory),
            "cache_entries": cache["entries"],
            "cache": cache,
            "jobs": self.manager.counts(),
            "code_version": code_version(),
        }

    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        unknown = sorted(
            set(payload) - {"experiment", "scale", "seed", "overrides"}
        )
        if unknown:
            raise _HttpError(400, f"unknown field(s) {unknown}")
        if "experiment" not in payload:
            raise _HttpError(400, "missing required field 'experiment'")
        try:
            job, created = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: self.manager.submit(
                    payload["experiment"],
                    payload.get("scale", "small"),
                    payload.get("seed", 0),
                    payload.get("overrides"),
                ),
            )
        except JobRequestError as exc:
            raise _HttpError(400, str(exc)) from None
        snapshot = self.manager.snapshot(job.job_id) or {}
        snapshot["created"] = created
        await self._send_json(writer, 202, snapshot)

    def _snapshot_or_404(self, job_id: str) -> dict:
        snapshot = self.manager.snapshot(job_id)
        if snapshot is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return snapshot

    async def _stream(self, writer, job_id: str) -> None:
        """NDJSON progress: one snapshot line per state/counter change,
        final line is the terminal snapshot."""
        last = self._snapshot_or_404(job_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(_json_line(last))
        await writer.drain()
        waited = 0.0
        while last["state"] not in FINISHED:
            delay = min(
                max(STREAM_POLL_MIN_SECONDS, waited / 20),
                STREAM_POLL_MAX_SECONDS,
            )
            await asyncio.sleep(delay)
            waited += delay
            snapshot = self.manager.snapshot(job_id)
            if snapshot is None:
                # Reaped mid-stream (job TTL): end the stream like the
                # job finished — the watcher already has the last state.
                break
            changed = {
                k: v
                for k, v in snapshot.items()
                if k != "elapsed_seconds"
            } != {k: v for k, v in last.items() if k != "elapsed_seconds"}
            last = snapshot
            if changed or snapshot["state"] in FINISHED:
                writer.write(_json_line(snapshot))
                await writer.drain()

    async def _table(self, writer, job_id: str, query) -> None:
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if job.state != "done" or job.table is None:
            raise _HttpError(
                404,
                f"job {job_id} has no table (state: {job.state}"
                + (f"; error: {job.error}" if job.error else "")
                + ")",
            )
        table = job.table
        if query.get("format") == "json":
            await self._send_json(
                writer,
                200,
                {
                    "experiment_id": table.experiment_id,
                    "title": table.title,
                    "columns": table.columns,
                    "rows": table.rows,
                    "notes": table.notes,
                    "render": table.render(),
                },
            )
            return
        body = table.render().encode()
        await self._send(writer, 200, body, "text/plain; charset=utf-8")

    # -- response plumbing ------------------------------------------------

    async def _send(self, writer, status, body, content_type) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    async def _send_json(self, writer, status, payload) -> None:
        body = json.dumps(payload, default=_json_default).encode()
        await self._send(writer, status, body, "application/json")

    # -- lifecycle --------------------------------------------------------

    async def _run(self, ready=None, stop_signals=()) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        for signum in stop_signals:
            self._loop.add_signal_handler(signum, self._stopping.set)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        if ready is not None:
            ready(self)
        async with self._server:
            await self._stopping.wait()

    def serve_forever(self, ready=None) -> None:
        """Run the service on the calling thread until SIGTERM or
        SIGINT (the ``repro serve`` entry point).  ``ready(service)``
        is called once the port is bound — after an ephemeral
        ``port=0`` has been replaced by the real one.

        Either signal stops accepting and returns once the job in hand
        has finished and the backend runner (its worker processes or
        node connections) is closed; signal handlers can only be
        installed on the main thread, which is why :meth:`start`
        installs none."""
        try:
            asyncio.run(
                self._run(ready, (signal.SIGTERM, signal.SIGINT))
            )
        finally:
            self.manager.close()

    # -- in-process harness (tests, benchmarks) ---------------------------

    def start(self) -> "ExperimentService":
        """Serve on a daemon thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._run())
        except Exception:  # pragma: no cover - surfaced via timeout
            self._started.set()

    def stop(self) -> None:
        """Stop accepting, finish the job in hand, release the runner."""
        if self._loop is not None and self._stopping is not None:
            try:
                self._loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:  # pragma: no cover - loop already dead
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.manager.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"


def _json_default(value):
    try:
        return repr(value)
    except Exception:  # pragma: no cover - defensive
        return "<unrepresentable>"


def _json_line(payload: dict) -> bytes:
    return json.dumps(payload, default=_json_default).encode() + b"\n"
