#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload suite-small-serial --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once traced (each in
a fresh interpreter) and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every
table is checked against ``reference.json``; a mismatch or exception
makes ``correct`` false and the exit code 1.

``--steadiness`` repeats each workload with successive seeds, as the
command above, and prints the median and quartiles of every
end-to-end metric, flagging any whose spread exceeds its bound.

Every ``$REPRO_*`` variable is removed from this process and its
children, so a stray ``REPRO_WORKERS`` or ``REPRO_KERNEL`` cannot
change what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
ONEPASS = HERE / "onepass.py"

#: Set-up-only interpreters per run, besides each pass's own set-up;
#: half run before the passes and half after, so a short slow spell
#: of the host does not catch them all.
SETUP_PROBES = 6

#: Every run must exit within this many seconds.
RUN_DEADLINE_S = 170.0


# -- statistics ---------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)`` for the largest order statistic
    that at least ten samples strictly exceed, or ``None`` when there
    are too few samples for one.
    """
    ordered = sorted(values)
    for index in range(len(ordered) - 11, -1, -1):
        beyond = sum(1 for v in ordered if v > ordered[index])
        if beyond >= 10:
            return ordered[index], 100.0 * (index + 1) / len(ordered)
    return None


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the driver takes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


# -- processes ----------------------------------------------------------


def stamp(seed: int) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "seed": seed,
    }


def spawn_pass(workload: str, seed: int, deadline: float, *flags) -> dict:
    """One pass in a fresh interpreter; adds ``setup_s`` from spawn."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(ONEPASS), "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"pass {workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


# -- the run ------------------------------------------------------------


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    # The lower quartile: a set-up is a fixed cost, and the slow tail of
    # its samples is the host, not the program.
    return {
        "setup_s": statistics.quantiles(setups, n=4)[0],
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "jobs_per_s": statistics.median(
            len(p["latencies_s"]) / p["wall_s"] for p in passes
        ),
    }


def describe_serve(passes: list[dict]) -> list[str]:
    """The service's hit/miss latency lines, by name with units."""
    hits = [
        1000 * v
        for p in passes
        for v, kind in zip(p["latencies_s"], p["kinds"])
        if kind == "hit"
    ]
    misses = [
        1000 * v
        for p in passes
        for v, kind in zip(p["latencies_s"], p["kinds"])
        if kind != "hit"
    ]
    lines = []
    if hits:
        lines.append(
            f"hit_p50_ms {statistics.median(hits):.3f} ms "
            f"(n={len(hits)} hits)"
        )
        top = tail(hits)
        if top is not None:
            lines.append(
                f"hit_tail_ms {top[0]:.3f} ms (p{top[1]:.1f}, "
                f"n={len(hits)} hits, >=10 beyond)"
            )
    if misses:
        lines.append(
            f"miss_p50_ms {statistics.median(misses):.3f} ms "
            f"(n={len(misses)} cold or partial jobs)"
        )
    return lines


def describe_layers(layers: dict) -> list[str]:
    """Derived shares that check the workload design."""
    execute = layers.get("runtime.execute_s", 0.0)
    kernels = sum(
        layers.get(f"kernels.{s}_s", 0.0)
        for s in ("draw", "conditioning", "routing")
    )
    fallback = sum(
        v
        for k, v in layers.items()
        if k.startswith("fallback.") and k.endswith("_s")
    )
    specs = layers.get("runtime.kernel_specs", 0) + layers.get(
        "runtime.fallback_specs", 0
    )
    frac = layers.get("runtime.kernel_spec_frac", 0)
    lines = [
        f"runtime.kernel_spec_frac {frac:.4f} of {int(specs)} specs executed",
        "runtime.ship_bytes / runtime.result_bytes / runtime.chunks are "
        "computed: pickled sizes of the 2-worker chunk split, not shipped",
        "lazy site draws count toward the stage that demands them "
        "(conditioning or routing), not draw",
    ]
    if execute:
        lines.append(
            f"runtime.execute_s {execute:.3f} s: kernel stages "
            f"{kernels / execute:.1%}, per-trial fallback "
            f"{fallback / execute:.1%}, compile "
            f"{layers.get('runtime.compile_s', 0) / execute:.1%}"
        )
    return lines


def run_once(args, spec: dict) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    print(f"stamp {json.dumps(stamp(args.seed))} workload {args.workload}")
    started = time.monotonic()
    if args.trace:
        plain = spawn_pass(args.workload, args.seed, deadline)
        traced = spawn_pass(args.workload, args.seed, deadline, "--trace")
        passes = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
        for line in describe_layers(layers):
            print(line)
        for line in traced.get("hit_split", []):
            print(line)
        print(f"trace: {traced['trace_path']}")
        wanted = spec["per_layer"]
        values = layers
    else:
        def probe() -> float:
            return spawn_pass(
                args.workload, args.seed, deadline, "--setup-only"
            )["setup_s"]

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        passes = []
        while not passes or time.monotonic() - started < args.seconds:
            passes.append(spawn_pass(args.workload, args.seed, deadline))
            setups.append(passes[-1]["setup_s"])
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = end_to_end(passes, setups)
        if args.workload == "serve-mixed":
            for line in describe_serve(passes):
                print(line)
        wanted = spec["end_to_end"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    print(
        f"failed_frac {len(failures) / max(1, attempted):.4f} "
        f"({len(failures)} of {attempted} tables)"
    )
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def steadiness(args, spec: dict) -> int:
    """Repeat each workload over successive seeds; report the spreads."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict[str, list[float]] = {}
        for seed in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                flagged += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed}: " + " ".join(
                    f"{k} {m['value']:.4g}"
                    for k, m in result["metrics"].items()
                ),
                flush=True,
            )
        for name, values in samples.items():
            if len(values) < 2:
                continue
            median, q1, q3, rel = spread(values)
            note = ""
            if rel > bounds[name]:
                note = "  SPREAD EXCEEDS BOUND"
                flagged += 1
            elif rel > bounds[name] / 3:
                note = "  above a third of the bound"
            print(
                f"{workload:22s} {name:12s} median {median:10.4f} "
                f"q1 {q1:10.4f} q3 {q3:10.4f} spread {rel:6.3f} "
                f"bound {bounds[name]:.2f} n={len(values)}{note}",
                flush=True,
            )
    return 1 if flagged else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    # Children inherit the scrubbed environment.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    missing = [
        p for p in (ROOT / "src" / "repro", HERE / "reference.json",
                    BENCHMARK_JSON)
        if not p.exists()
    ]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.steadiness:
        return steadiness(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        return run_once(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
