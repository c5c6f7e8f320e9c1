#!/usr/bin/env python3
"""Record the cluster-vs-process baseline (BENCH_runtime.json "cluster").

Runs one experiment three ways — ``SerialRunner`` (the reference),
``ProcessPoolRunner`` and a self-managed ``ClusterRunner`` (localhost
``repro worker serve`` nodes, the TCP path end-to-end) — verifies all
three tables render identically, and folds the timings into
``results/BENCH_runtime.json`` under ``"cluster"`` so the runtime perf
trajectory stays in one file.  On localhost the cluster can only add
overhead over the pool (same cores, plus socket framing); the number
this records is that overhead, the price of the seam that scales past
one machine.

It also records the **node-pool** baseline (``"node_pool"``): one node
run flat (``--node-workers 1``, the pre-pool execution model) versus
the same node with an execution pool (``--node-workers N``), both
driven through a pipelined coordinator.  Two speedups are measured:

* ``experiment_speedup`` — the CPU-bound experiment; expect about
  ``min(node_workers, cores)`` (1.0 on a single-core host, where
  CPU-bound trials cannot overlap productively);
* ``blocking_speedup`` (the headline ``node_pool_speedup``) — a batch
  of blocking trials, which isolates the scheduling property the pool
  adds (concurrent trial execution within one node) from how many
  cores the host happens to have.

Run:  PYTHONPATH=src python benchmarks/cluster_baseline.py
      (optionally --scale tiny|small|medium --nodes N --experiment E1
       --node-workers N)
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
from repro.runtime import ClusterRunner, ProcessPoolRunner, SerialRunner
from repro.runtime import testing as kit
from repro.runtime.trial import TrialSpec

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

DEFAULT_EXPERIMENT = "E1"

#: Blocking-batch shape for the scheduling-concurrency measurement.
BLOCKING_TRIALS = 12
BLOCKING_SECONDS = 0.15


def _time_run(spec, scale, seed, runner):
    start = time.perf_counter()
    table = spec(scale=scale, seed=seed, runner=runner)
    return time.perf_counter() - start, table


def _blocking_specs():
    return [
        TrialSpec(
            key=("nap", i), fn=kit.sleep_return, args=(BLOCKING_SECONDS, i)
        )
        for i in range(BLOCKING_TRIALS)
    ]


def _time_node(spec, scale, seed, node_workers):
    """Warm one single-node cluster; time the experiment + a blocking
    batch on it.  Returns (experiment_seconds, blocking_seconds, table).
    """
    with kit.local_nodes(1, node_workers=node_workers) as addresses:
        with ClusterRunner(
            nodes=addresses,
            chunksize=1,
            pipeline_depth=max(4, 2 * node_workers),
        ) as runner:
            runner.run_values(kit.square_specs(8))  # warm connection+pool
            experiment_s, table = _time_run(spec, scale, seed, runner)
            start = time.perf_counter()
            runner.run(_blocking_specs())
            blocking_s = time.perf_counter() - start
    return experiment_s, blocking_s, table


def _record_node_pool(spec, scale, seed, node_workers) -> dict:
    """Flat node (pool of 1) versus pooled node (pool of N)."""
    flat_exp_s, flat_block_s, flat_table = _time_node(spec, scale, seed, 1)
    pool_exp_s, pool_block_s, pool_table = _time_node(
        spec, scale, seed, node_workers
    )
    if flat_table.render() != pool_table.render():
        raise AssertionError(
            "flat-node and pooled-node outputs differ (determinism bug)"
        )
    blocking_speedup = round(flat_block_s / pool_block_s, 3)
    return {
        "experiment": spec.experiment_id,
        "scale": scale,
        "node_workers": node_workers,
        "flat_experiment_seconds": round(flat_exp_s, 3),
        "pooled_experiment_seconds": round(pool_exp_s, 3),
        "experiment_speedup": round(flat_exp_s / pool_exp_s, 3),
        "blocking_trials": BLOCKING_TRIALS,
        "blocking_trial_seconds": BLOCKING_SECONDS,
        "flat_blocking_seconds": round(flat_block_s, 3),
        "pooled_blocking_seconds": round(pool_block_s, 3),
        "blocking_speedup": blocking_speedup,
        "node_pool_speedup": blocking_speedup,
        "identical_output": True,
        "note": (
            "one warm localhost node, pipelined coordinator; "
            "node_pool_speedup is the blocking-batch ratio, which "
            "isolates the pool's scheduling concurrency (trials "
            "overlapping within one node) from the host's core count; "
            "experiment_speedup is the CPU-bound ratio and tops out "
            "at min(node_workers, cores)"
        ),
    }


def record(
    scale: str = "small",
    seed: int = 0,
    nodes: int = 2,
    experiment_id: str = DEFAULT_EXPERIMENT,
    out: Path | None = None,
    node_workers: int = 2,
) -> dict:
    """Measure serial/process/cluster, verify parity, update the JSON."""
    # The recorded numbers are defined as "self-managed localhost
    # nodes, explicit knobs": an inherited REPRO_CLUSTER_NODES (or
    # backend/worker/chunk vars) would silently measure something else
    # under the same label, corrupting the perf trajectory.  The vars
    # are restored afterwards so in-process callers keep their config.
    scrubbed = {
        var: os.environ.pop(var, None)
        for var in (
            "REPRO_CLUSTER_NODES",
            "REPRO_BACKEND",
            "REPRO_WORKERS",
            "REPRO_CHUNKSIZE",
            "REPRO_NODE_WORKERS",
            "REPRO_PIPELINE_DEPTH",
            "REPRO_HEARTBEAT",
        )
    }
    try:
        return _record_scrubbed(
            scale, seed, nodes, experiment_id, out, node_workers
        )
    finally:
        for var, value in scrubbed.items():
            if value is not None:
                os.environ[var] = value


def _record_scrubbed(
    scale: str,
    seed: int,
    nodes: int,
    experiment_id: str,
    out: Path | None,
    node_workers: int,
) -> dict:
    spec = get_experiment(experiment_id)
    serial_s, serial_table = _time_run(spec, scale, seed, SerialRunner())
    with ProcessPoolRunner(workers=nodes) as pool:
        process_s, process_table = _time_run(spec, scale, seed, pool)
    with ClusterRunner(workers=nodes) as cluster:
        # The first batch pays node spawn + connect; time it separately
        # from a warm pass so the steady-state number is visible.
        cold_s, cluster_table = _time_run(spec, scale, seed, cluster)
        warm_s, warm_table = _time_run(spec, scale, seed, cluster)
    if not (
        serial_table.render()
        == process_table.render()
        == cluster_table.render()
        == warm_table.render()
    ):
        raise AssertionError(
            f"{experiment_id}: backend outputs differ (determinism bug)"
        )
    section = {
        "source": "benchmarks/cluster_baseline.py",
        "experiment": experiment_id,
        "scale": scale,
        "seed": seed,
        "nodes": nodes,
        "serial_seconds": round(serial_s, 3),
        "process_seconds": round(process_s, 3),
        "cluster_cold_seconds": round(cold_s, 3),
        "cluster_warm_seconds": round(warm_s, 3),
        "cluster_overhead_vs_process": round(warm_s / process_s, 3),
        "identical_output": True,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "note": (
            "localhost worker nodes share the machine with the "
            "coordinator, so overhead_vs_process isolates the TCP "
            "protocol cost; cold includes node spawn + connect, warm "
            "reuses the persistent connections"
        ),
    }
    node_pool = _record_node_pool(spec, scale, seed, node_workers)
    section["node_pool"] = node_pool
    out = out or RESULTS_DIR / "BENCH_runtime.json"
    out.parent.mkdir(exist_ok=True)
    if out.exists():
        baseline = json.loads(out.read_text(encoding="utf-8"))
    else:
        baseline = {"benchmark": "trial-runner serial vs parallel wall-clock"}
    baseline["cluster"] = section
    out.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(
        f"{experiment_id} ({scale}): serial {serial_s:.2f}s, "
        f"{nodes}-worker pool {process_s:.2f}s, {nodes}-node cluster "
        f"cold {cold_s:.2f}s / warm {warm_s:.2f}s "
        f"({section['cluster_overhead_vs_process']:.2f}x vs pool)"
    )
    print(
        f"node pool (1 node, --node-workers {node_workers} vs flat): "
        f"blocking {node_pool['flat_blocking_seconds']:.2f}s -> "
        f"{node_pool['pooled_blocking_seconds']:.2f}s "
        f"({node_pool['node_pool_speedup']:.2f}x), cpu-bound "
        f"{node_pool['flat_experiment_seconds']:.2f}s -> "
        f"{node_pool['pooled_experiment_seconds']:.2f}s "
        f"({node_pool['experiment_speedup']:.2f}x)"
    )
    print(f"updated {out} (cluster + node_pool sections)")
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--experiment", default=DEFAULT_EXPERIMENT)
    parser.add_argument(
        "--node-workers",
        type=int,
        default=2,
        help="pool size for the pooled side of the node-pool baseline",
    )
    args = parser.parse_args(argv)
    record(
        scale=args.scale,
        seed=args.seed,
        nodes=args.nodes,
        experiment_id=args.experiment.strip().upper(),
        node_workers=args.node_workers,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
