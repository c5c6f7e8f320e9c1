#!/usr/bin/env python3
"""Record the serial-vs-parallel wall-clock baseline (BENCH_runtime.json).

Runs the heaviest runner-based experiments with a ``SerialRunner`` and
with a ``ProcessPoolRunner``, verifies the outputs match (the
determinism contract of :mod:`repro.runtime`), and writes timings plus
machine context to ``results/BENCH_runtime.json`` so future PRs have a
perf trajectory to compare against.

Run:  PYTHONPATH=src python benchmarks/runtime_baseline.py
      (optionally --scale tiny|small|medium --workers N)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.experiments.registry import get_experiment
from repro.experiments.spec import SCALES
from repro.runtime import ProcessPoolRunner, SerialRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

DEFAULT_EXPERIMENTS = ("E1", "E11", "E15")


def _time_run(spec, scale, seed, runner):
    start = time.perf_counter()
    table = spec(scale=scale, seed=seed, runner=runner)
    return time.perf_counter() - start, table


def record(
    scale: str = "small",
    seed: int = 0,
    workers: int = 4,
    experiment_ids=DEFAULT_EXPERIMENTS,
    out: Path | None = None,
) -> dict:
    """Measure, verify determinism, and write the baseline JSON.

    The parallel runner is shared across all measured experiments and
    its pool persists between them (the workload protocol's reuse
    path), so ``parallel_seconds`` of the first experiment includes
    pool start-up and later ones ride the warm pool — matching how
    ``repro run all --workers N`` behaves.
    """
    entries = []
    with ProcessPoolRunner(workers=workers) as parallel:
        for experiment_id in experiment_ids:
            spec = get_experiment(experiment_id)
            serial_s, serial_table = _time_run(
                spec, scale, seed, SerialRunner()
            )
            parallel_s, parallel_table = _time_run(
                spec, scale, seed, parallel
            )
            if serial_table.render() != parallel_table.render():
                raise AssertionError(
                    f"{experiment_id}: parallel output differs from serial"
                )
            entries.append(
                {
                    "experiment": experiment_id,
                    "serial_seconds": round(serial_s, 3),
                    "parallel_seconds": round(parallel_s, 3),
                    "speedup": round(serial_s / parallel_s, 3),
                    "identical_output": True,
                }
            )
            print(
                f"{experiment_id}: serial {serial_s:.2f}s, "
                f"{workers}-worker {parallel_s:.2f}s "
                f"(speedup {serial_s / parallel_s:.2f}x)"
            )

    baseline = {
        "benchmark": "trial-runner serial vs parallel wall-clock",
        "granularity": (
            "per-trial: every Monte-Carlo trial of every sweep point is "
            "its own work unit, so single points parallelise too; "
            "shared contexts ride in workloads, written once per chunk, "
            "and the pool persists across experiments"
        ),
        "scale": scale,
        "seed": seed,
        "workers": workers,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "note": (
            "speedup is bounded by cpu_count; on a single-core runner "
            "the pool only adds overhead, but identical_output must "
            "hold everywhere"
        ),
        "results": entries,
    }
    out = out or RESULTS_DIR / "BENCH_runtime.json"
    out.parent.mkdir(exist_ok=True)
    if out.exists():
        # benchmarks/cluster_baseline.py, benchmarks/kernel_baseline.py
        # and benchmarks/traffic_baseline.py fold their headline numbers
        # into this file; keep every section this run did not measure.
        previous = json.loads(out.read_text(encoding="utf-8"))
        for section, value in previous.items():
            if section not in baseline:
                baseline[section] = value
    out.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--experiments",
        default=",".join(DEFAULT_EXPERIMENTS),
        help=(
            "comma-separated experiment ids "
            f"(default: {','.join(DEFAULT_EXPERIMENTS)})"
        ),
    )
    args = parser.parse_args(argv)
    record(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        experiment_ids=[
            x.strip().upper() for x in args.experiments.split(",") if x.strip()
        ],
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
