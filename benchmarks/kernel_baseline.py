#!/usr/bin/env python3
"""Record the per-trial-loop vs chunk-kernel baseline (BENCH_runtime.json).

Times the same chunk of ``run_trial`` specs twice on one core — through
the per-trial loop (``spec.execute()`` each) and through the vectorized
chunk kernel (:func:`repro.runtime.execute_specs`) — asserts the
records are ``repr``-identical, and folds throughputs plus speedups
into the ``kernel`` section of ``results/BENCH_runtime.json``.

The speedup is regime-dependent by design: where trials rarely
condition in (subcritical), the per-trial cost is percolation set-up
plus a cluster BFS and batching wins an order of magnitude or more;
where most trials route (supercritical), the probe-by-probe router —
which the kernel must keep bit-exact — dominates both paths and the
win shrinks towards the mask-draw savings.

Run:  PYTHONPATH=src python benchmarks/kernel_baseline.py
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

from repro.core.complexity import complexity_specs
from repro.experiments.defs.e14_site_faults import _site_factory
from repro.experiments.defs.e16_correlated_faults import (
    EPICENTER_RATE,
    _OutageFactory,
)
from repro.experiments.defs.e17_adversarial_budget import (
    P_BACKGROUND,
    _AdversaryFactory,
)
from repro.experiments.spec import SCALES, pick
from repro.graphs.clos import FatTree
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.waypoint import MeshWaypointRouter, WaypointRouter
from repro.runtime import supports_run_chunk
from repro.runtime.chunkexec import execute_specs

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _scenarios(scale: str, seed: int):
    """The measured regimes, heavy enough to time at the given scale."""
    n = pick(scale, tiny=8, small=11, medium=12)
    side = pick(scale, tiny=12, small=20, medium=24)
    trials = pick(scale, tiny=20, small=40, medium=60)
    hypercube = Hypercube(n)
    mesh = Mesh(2, side)
    fat_tree = FatTree(pick(scale, tiny=4, small=6, medium=8))
    supercritical = float(n) ** -0.3
    cases = [
        ("hypercube-subcritical", hypercube, float(n) ** -1.0,
         WaypointRouter(), None),
        ("hypercube-supercritical", hypercube, supercritical,
         WaypointRouter(), None),
        ("mesh-subcritical", mesh, 0.40, MeshWaypointRouter(), None),
        ("mesh-supercritical", mesh, 0.70, MeshWaypointRouter(), None),
        ("site-supercritical", hypercube, float(n) ** -0.1,
         WaypointRouter(), _site_factory),
        ("site-subcritical", hypercube, float(n) ** -1.0,
         WaypointRouter(), _site_factory),
        # Routing-dominated regimes: supercritical, so (nearly) every
        # trial conditions in and the wall clock is the router itself —
        # the lockstep frontier engines against the per-trial loop.
        ("routing-local-bfs", hypercube, supercritical,
         LocalBFSRouter(), None),
        ("routing-bidirectional", hypercube, supercritical,
         BidirectionalBFSRouter(), None),
        ("routing-waypoint", mesh, 0.75, WaypointRouter(), None),
        # Structured fault models on their own chunk draws: E16's
        # clustered outages (vectorized coins, one multi-source BFS
        # for every ball) and E17's adversary (one greedy cut per
        # workload, ANDed into every row's edge coins).
        ("correlated-outages", hypercube, 1.0, WaypointRouter(),
         _OutageFactory(EPICENTER_RATE, 0.5)),
        ("adversarial-cut", fat_tree, P_BACKGROUND, WaypointRouter(),
         _AdversaryFactory(fat_tree.k // 2 - 1)),
    ]
    for label, graph, p, router, factory in cases:
        yield label, complexity_specs(
            graph,
            p=p,
            router=router,
            trials=trials,
            seed=seed,
            model_factory=factory,
            key=("kernel-bench", label),
        )


def record(scale: str = "small", seed: int = 0, out: Path | None = None):
    """Measure every scenario, verify parity, update the JSON."""
    entries = []
    for label, specs in _scenarios(scale, seed):
        workload = specs[0].workload
        if not supports_run_chunk(workload):  # also warms the compile
            raise AssertionError(f"{label}: workload has no chunk kernel")
        # Best of three interleaved passes: the first kernel pass pays
        # one-time costs (incidence build, key-blob serialisation)
        # that are not steady-state throughput, and the fastest
        # regimes finish in milliseconds where single-pass timing is
        # noise-bound.
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
        entries.append(
            {
                "scenario": label,
                "trials": trials,
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
            f"(speedup {loop_s / kernel_s:.1f}x, {trials} trials)"
        )

    section = {
        "benchmark": "per-trial loop vs vectorized chunk kernel, one core",
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
            "kernel batches percolation draws, connectivity BFS and — "
            "for registered routers — the routing stage itself "
            "(lockstep frontier engines replaying the exact per-trial "
            "probe sequence). subcritical regimes gain from the "
            "batched draw+BFS; the routing-* scenarios measure the "
            "vectorized routing stage where it dominates the wall "
            "clock. site-subcritical, once the seam's known loss "
            "(eager site draw vs the lazy per-trial model), now draws "
            "coins lazily per frontier block and stays at or above "
            "parity. correlated-outages and adversarial-cut run the "
            "structured fault models on their own chunk draws"
        ),
        "results": entries,
    }
    out = out or RESULTS_DIR / "BENCH_runtime.json"
    out.parent.mkdir(exist_ok=True)
    if out.exists():
        # runtime_baseline.py owns the top-level document; this script
        # only replaces its own section, like ipc/cluster do.
        baseline = json.loads(out.read_text(encoding="utf-8"))
    else:
        baseline = {}
    baseline["kernel"] = section
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
