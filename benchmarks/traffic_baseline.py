#!/usr/bin/env python3
"""Record the demand-matrix routing baseline (BENCH_runtime.json).

Times the same chunk of ``run_traffic_trial`` specs twice on one core —
through the per-trial loop (``spec.execute()`` each: one percolation
draw and one router call per commodity, sequentially) and through the
commodity-batched chunk kernel (:func:`repro.runtime.execute_specs`,
which vectorizes the draw and routes every commodity of every trial
through one routing-engine call per chunk) — asserts the records are
``repr``-identical, and folds throughputs plus speedups into the
``traffic`` section of ``results/BENCH_runtime.json``.

The batched win grows with the commodity count: a k-commodity trial
gives the routing engine k× the rows per mask draw, so the fixed
per-trial costs (model set-up, edge-mask materialisation) amortise
across the whole demand matrix instead of one probe pair.

Run:  PYTHONPATH=src python benchmarks/traffic_baseline.py
      (optionally --scale tiny|small|medium --seed N;
       $REPRO_BENCH_SCALE is honoured when --scale is absent)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.core.traffic import (
    AllToAllTraffic,
    HotspotTraffic,
    PermutationTraffic,
    traffic_specs,
)
from repro.experiments.spec import SCALES, pick
from repro.graphs.clos import FatTree
from repro.graphs.hypercube import Hypercube
from repro.routers.bfs import LocalBFSRouter
from repro.routers.waypoint import HypercubeWaypointRouter, WaypointRouter
from repro.runtime.chunkexec import chunk_runner, execute_specs

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _scenarios(scale: str, seed: int):
    """The measured regimes, heavy enough to time at the given scale."""
    n = pick(scale, tiny=6, small=9, medium=10)
    k = pick(scale, tiny=4, small=6, medium=8)
    commodities = pick(scale, tiny=8, small=24, medium=48)
    trials = pick(scale, tiny=10, small=24, medium=40)
    hypercube = Hypercube(n)
    fattree = FatTree(k)
    supercritical = float(n) ** -0.3
    cases = [
        # The gated scenarios: many-commodity permutation traffic where
        # the batched routing stage carries the whole wall clock.
        ("permutation-hypercube", hypercube, supercritical,
         LocalBFSRouter(), PermutationTraffic(commodities)),
        ("permutation-fattree", fattree, 0.85,
         WaypointRouter(), PermutationTraffic(commodities)),
        ("hotspot-hypercube", hypercube, supercritical,
         HypercubeWaypointRouter(), HotspotTraffic(commodities, 0.7)),
        ("alltoall-hypercube", hypercube, supercritical,
         HypercubeWaypointRouter(),
         AllToAllTraffic(max(3, commodities // 4))),
        # The greedy geodesic router probes so few edges per commodity
        # that the sequential loop leaves less overhead to amortise —
        # the smallest win in the table, kept as the honest floor.
        ("greedy-waypoint-hypercube", hypercube, supercritical,
         HypercubeWaypointRouter(), PermutationTraffic(commodities)),
    ]
    for label, graph, p, router, demands in cases:
        yield label, traffic_specs(
            graph,
            p,
            router,
            demands,
            trials=trials,
            seed=seed,
            key=("traffic-bench", label),
        )


def record(scale: str = "small", seed: int = 0, out: Path | None = None):
    """Measure every scenario, verify parity, update the JSON."""
    entries = []
    for label, specs in _scenarios(scale, seed):
        workload = specs[0].workload
        if chunk_runner(workload) is None:  # also warms the compile
            raise AssertionError(f"{label}: workload has no chunk kernel")
        # Best of three interleaved passes, as in kernel_baseline: the
        # first kernel pass pays one-time compile/index costs that are
        # not steady-state throughput.
        loop_s = kernel_s = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            loop = [spec.execute() for spec in specs]
            loop_s = min(loop_s, time.perf_counter() - start)
            start = time.perf_counter()
            kernel = execute_specs(specs)
            kernel_s = min(kernel_s, time.perf_counter() - start)
            if repr(kernel) != repr(loop):
                raise AssertionError(f"{label}: kernel records diverge")
        trials = len(specs)
        commodities = loop[0].value.traffic.commodities
        entries.append(
            {
                "scenario": label,
                "trials": trials,
                "commodities_per_trial": commodities,
                "per_trial_loop_seconds": round(loop_s, 4),
                "kernel_seconds": round(kernel_s, 4),
                "loop_trials_per_second": round(trials / loop_s, 1),
                "kernel_trials_per_second": round(trials / kernel_s, 1),
                "speedup": round(loop_s / kernel_s, 2),
                "identical_records": True,
            }
        )
        print(
            f"{label}: loop {loop_s:.3f}s, kernel {kernel_s:.3f}s "
            f"(speedup {loop_s / kernel_s:.1f}x, {trials} trials x "
            f"{commodities} commodities)"
        )

    section = {
        "benchmark": (
            "sequential demand routing vs commodity-batched kernel, "
            "one core"
        ),
        "scale": scale,
        "seed": seed,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "note": (
            "same specs, same records (asserted repr-identical); "
            "timings are the best of three interleaved passes. the "
            "per-trial loop routes each trial's commodities one router "
            "call at a time; the kernel draws every trial's edge mask "
            "in one vector pass and routes all commodities of all "
            "trials through the per-row routing engines, replaying "
            "the exact sequential probe order per commodity"
        ),
        "results": entries,
    }
    out = out or RESULTS_DIR / "BENCH_runtime.json"
    out.parent.mkdir(exist_ok=True)
    if out.exists():
        # runtime_baseline.py owns the top-level document; this script
        # only replaces its own section, like kernel/cluster do.
        baseline = json.loads(out.read_text(encoding="utf-8"))
    else:
        baseline = {}
    baseline["traffic"] = section
    out.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default=os.environ.get("REPRO_BENCH_SCALE", "small"),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_SEED", "0")),
    )
    args = parser.parse_args(argv)
    record(scale=args.scale, seed=args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
