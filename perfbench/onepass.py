#!/usr/bin/env python3
"""One pass of one workload, in a fresh interpreter (``run.py`` spawns it).

A fresh process per pass is what a user pays for: ``repro run all``
imports, loads the registry and compiles its chunk kernels every
time.  The pass prints one JSON line: when set-up finished
(``ready_at``, wall clock, so the parent can add interpreter start-up),
the pass's wall clock and per-request latencies, peak RSS, the
correctness gate's verdict and, when traced, the per-layer metrics.

``--setup-only`` stops once the registry is loaded and the runner or
service is ready: the set-up probe.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gate import Gate, load_reference  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_SCALE,
    client_schedule,
    kernel_plan,
    reference_key,
    suite_plan,
)

#: A waiting client checks its job's state every 1/20 of the time it
#: has waited, between these bounds (seconds).  It checks in process,
#: not over HTTP: a client polling over HTTP every few milliseconds
#: takes the service's interpreter lock from the job it waits for.
POLL_MIN_S = 0.001
POLL_MAX_S = 0.01


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_tables(plan, runner, gate: Gate) -> dict:
    """Compute each table of a suite plan; time first start to last table."""
    from repro.experiments import all_experiments, get_experiment

    scale, seed, ids = plan
    if ids is None:
        ids = [spec.experiment_id for spec in all_experiments()]
    latencies, tables = [], []
    start = time.perf_counter()
    for experiment in ids:
        began = time.perf_counter()
        try:
            table = get_experiment(experiment)(
                scale=scale, seed=seed, runner=runner
            )
            tables.append((experiment, table.render(), None))
        except Exception as exc:  # counted by the gate as a failure
            tables.append((experiment, None, f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    for experiment, rendered, error in tables:
        gate.check(reference_key(experiment, scale, seed), rendered, error)
    return {"wall_s": wall, "latencies_s": latencies}


def _serve_job(service, job) -> dict:
    """Submit over HTTP, wait for the job, fetch the table over HTTP."""
    from repro.serve.testing import request

    began = time.perf_counter()
    payload = {"experiment": job.experiment, "scale": SERVE_SCALE,
               "seed": job.seed}
    if job.overrides:
        payload["overrides"] = job.overrides
    status, body = request(service, "POST", "/jobs", body=payload)
    if status != 202:
        raise RuntimeError(f"POST /jobs -> {status}: {body[:200]!r}")
    job_id = json.loads(body)["job_id"]
    submitted = time.perf_counter()
    while True:
        snapshot = service.manager.snapshot(job_id)
        if snapshot is None or snapshot["state"] in ("done", "failed"):
            break
        waited = time.perf_counter() - submitted
        time.sleep(min(max(POLL_MIN_S, waited / 20), POLL_MAX_S))
    if snapshot is None or snapshot["state"] != "done":
        raise RuntimeError(f"job {job_id} failed: {snapshot}")
    status, table = request(service, "GET", f"/jobs/{job_id}/table")
    if status != 200:
        raise RuntimeError(f"GET table -> {status}")
    return {
        "latency_s": time.perf_counter() - began,
        "snapshot": snapshot,
        "table": table,
    }


def run_serve(service, seed: int, gate: Gate) -> dict:
    """Two closed-loop clients, each on its own schedule."""
    schedules = [client_schedule(seed, c) for c in (0, 1)]
    results: list[list] = [[] for _ in schedules]
    go = threading.Event()

    def client(index: int) -> None:
        go.wait()
        for job in schedules[index]:
            try:
                outcome = _serve_job(service, job)
            except Exception as exc:  # counted by the gate as a failure
                outcome = {"error": f"{type(exc).__name__}: {exc}"}
            results[index].append((job, outcome))

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(schedules))
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    go.set()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    latencies, kinds, snapshots, hits = [], [], [], []
    for job, outcome in (pair for rs in results for pair in rs):
        key = job.key
        if "error" in outcome:
            gate.check(key, None, outcome["error"])
            continue
        snapshot = outcome["snapshot"]
        executed = snapshot.get("trials_executed", 0)
        kind = (
            "hit" if executed == 0
            else "partial" if snapshot.get("points_cached", 0)
            else "cold"
        )
        if kind != job.kind:
            gate.check(key, None, f"expected a {job.kind} job, got {kind}")
            continue
        gate.check(key, outcome["table"])
        latencies.append(outcome["latency_s"])
        kinds.append(kind)
        snapshots.append((outcome["latency_s"], snapshot))
        if kind == "hit":
            hits.append((
                snapshot["job_id"],
                outcome["latency_s"],
                snapshot["started_at"] - snapshot["submitted_at"],
            ))
    stats = service.cache.stats()
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "kinds": kinds,
        "serve": _serve_layers(snapshots, stats),
        "hit_jobs": hits,
    }


def _serve_layers(snapshots, stats) -> dict:
    """Serve-layer figures derived from job snapshots and cache counters."""
    n = max(1, len(snapshots))
    queue = job = http = 0.0
    cached = total = 0
    for latency, snap in snapshots:
        queue += snap["started_at"] - snap["submitted_at"]
        job += snap["finished_at"] - snap["started_at"]
        http += latency - (snap["finished_at"] - snap["submitted_at"])
        cached += snap.get("points_cached", 0)
        total += snap.get("points_total", 0)
    return {
        "serve.cache_hits": stats["hits"],
        "serve.cache_misses": stats["misses"],
        "serve.cache_stores": stats["stores"],
        "serve.cache_bytes": stats["bytes"],
        "serve.points_cached_frac": cached / total if total else 0.0,
        "serve.queue_wait_ms": 1000 * queue / n,
        "serve.job_ms": 1000 * job / n,
        "serve.http_ms": 1000 * http / n,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # -- set-up: import, registry load, runner or service ready --------
    from repro.experiments import all_experiments
    from repro.runtime import SerialRunner

    experiment_ids = [spec.experiment_id for spec in all_experiments()]
    tracer = patches = None
    if args.trace:
        from tracing import Tracer, TimedRunner, install

        tracer = Tracer(args.workload)
        patches = install(tracer)
    cache_dir = OUT_DIR / f"cache-{os.getpid()}"
    service = runner = None
    if args.workload == "serve-mixed":
        from repro.serve.testing import get_json, start_service

        shutil.rmtree(cache_dir, ignore_errors=True)
        service = start_service(backend="serial", cache_dir=cache_dir)
        get_json(service, "/healthz")
    else:
        runner = SerialRunner()
        if tracer is not None:
            runner = TimedRunner(runner, tracer)
    ready_at = time.time()
    out = {"ready_at": ready_at}
    try:
        if not args.setup_only:
            gate = Gate(load_reference())
            if service is not None:
                out.update(run_serve(service, args.seed, gate))
            else:
                plan = (
                    suite_plan(args.seed)
                    if args.workload == "suite-small-serial"
                    else kernel_plan(args.seed)
                )
                out.update(run_tables(plan, runner, gate))
            out["attempted"] = gate.checked
            out["failures"] = gate.failures
    finally:
        if service is not None:
            service.stop()
        if runner is not None:
            runner.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None and not args.setup_only:
        from tracing import hit_split, layer_metrics

        patches.restore()
        layers = layer_metrics(tracer, experiment_ids)
        layers.update(out.get("serve", {}))
        out["layers"] = layers
        out["hit_split"] = hit_split(tracer, out.get("hit_jobs", []))
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        out["trace_path"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
