"""Tests for the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import onepass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from gate import Gate, load_reference, table_digest  # noqa: E402
from workloads import (  # noqa: E402
    E1_PARTIALS,
    client_schedule,
    reference_key,
    reference_keys,
)

from repro.core.complexity import complexity_specs  # noqa: E402
from repro.experiments import all_experiments, get_experiment  # noqa: E402
from repro.graphs import Hypercube  # noqa: E402
from repro.routers import DirectedDFSRouter, WaypointRouter  # noqa: E402
from repro.runtime import SerialRunner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def tracer():
    tracer = tracing.Tracer("test")
    patches = tracing.install(tracer)
    try:
        yield tracer
    finally:
        patches.restore()


TINY_SUBSET = ("E1", "E2", "E6", "E11", "E14", "E18", "A2")


@pytest.mark.parametrize("experiment", TINY_SUBSET)
def test_timing_runner_tables_match_plain_serial(experiment, tracer):
    spec = get_experiment(experiment)
    traced = spec(
        scale="tiny",
        seed=3,
        runner=tracing.TimedRunner(SerialRunner(), tracer),
    )
    tracer_spans = len(tracer.spans)
    plain = spec(scale="tiny", seed=3, runner=SerialRunner())
    assert traced.render() == plain.render()
    assert tracer_spans > 0


def test_timing_runner_results_repr_identical(tracer):
    def batch():
        return [
            (router().name, complexity_specs(
                Hypercube(6), p=0.4, router=router(), trials=8, seed=11,
                key=("t", router().name),
            ))
            for router in (WaypointRouter, DirectedDFSRouter)
        ]

    timed = tracing.TimedRunner(SerialRunner(), tracer)
    flat = [s for _, specs in batch() for s in specs]
    assert repr(timed.run(flat)) == repr(SerialRunner().run(flat))
    assert repr(timed.run_grouped(batch())) == repr(
        SerialRunner().run_grouped(batch())
    )
    names = {span[1] for span in tracer.spans}
    assert {"runtime.execute", "kernels.chunk"} <= names
    # DirectedDFSRouter has no router kernel: its chunk routes trial by
    # trial, and those calls are fallback routing, not kernel time.
    by_id = {span[0]: span for span in tracer.spans}
    assert any(
        span[1] == "fallback.routing" and by_id[span[4]][1] == "kernels.chunk"
        for span in tracer.spans
        if span[4] is not None
    )


def test_patches_restore_originals():
    from repro.core.router import Router
    from repro.experiments.spec import ExperimentSpec
    from repro.runtime import chunkexec

    before = (
        ExperimentSpec.__call__, chunkexec.chunk_runner, Router.route
    )
    patches = tracing.install(tracing.Tracer("test"))
    assert chunkexec.chunk_runner is not before[1]
    patches.restore()
    after = (ExperimentSpec.__call__, chunkexec.chunk_runner, Router.route)
    assert after == before


@pytest.mark.parametrize("n", [0, 1, 10, 11, 12, 20, 57, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    result = run.tail(values)
    if n < 11:
        assert result is None
        return
    value, percentile = result
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10
    # No higher sample would still leave ten beyond it.
    higher = sorted(v for v in values if v > value)
    assert sum(1 for v in values if v > higher[0]) < 10
    assert 0 < percentile < 100


def test_tail_counts_ties_as_not_beyond():
    values = [1.0] * 5 + [2.0] * 20
    value, _ = run.tail(values)
    assert value == 1.0  # no 2.0 has ten samples strictly above it
    assert run.tail([5.0] * 30) is None


def test_metric_and_workload_names_are_valid_and_unique():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    for name in names + workloads:
        assert NAME.match(name), name
    assert len(set(names)) == len(names)
    assert len(set(workloads)) == len(workloads)


def test_per_layer_metrics_are_exactly_what_a_trace_yields():
    ids = [spec.experiment_id for spec in all_experiments()]
    produced = set(tracing.layer_metrics(tracing.Tracer("t"), ids))
    produced |= set(onepass._serve_layers([], {
        "hits": 0, "misses": 0, "stores": 0, "bytes": 0,
    }))
    produced.add("trace.overhead_frac")
    assert produced == {m["name"] for m in BENCHMARK["per_layer"]}


def test_layer_map_names_known_metrics():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    layers = {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    for entry in layer_map["map"]:
        for metric in entry["metrics"]:
            assert metric in layers or metric.startswith("experiment.<"), (
                metric
            )
        for target in entry["moves"]:
            assert target["metric"] in e2e
            assert target["workload"] in workloads


def test_perturbed_table_fails_the_gate():
    reference = load_reference()
    key = reference_key("E18", "small", 0)
    rendered = get_experiment("E18")(
        scale="small", seed=0, runner=SerialRunner()
    ).render()
    gate = Gate(reference)
    assert gate.check(key, rendered)
    perturbed = rendered.replace("0", "1", 1)
    assert perturbed != rendered
    assert not gate.check(key, perturbed)
    assert not gate.check(key, None, "ValueError: boom")
    assert not gate.check(reference_key("E18", "small", 99), rendered)
    assert gate.checked == 4 and len(gate.failures) == 3
    assert table_digest(rendered) == reference[key]


def test_reference_covers_every_key_the_workloads_use():
    reference = load_reference()
    ids = [spec.experiment_id for spec in all_experiments()]
    for experiment, scale, seed, overrides in reference_keys(ids):
        assert reference_key(experiment, scale, seed, overrides) in reference
    for seed in range(8):
        for client in (0, 1):
            for job in client_schedule(seed, client):
                assert job.key in reference


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_serve_schedule_repeats_only_computed_keys(seed):
    for client in (0, 1):
        jobs = client_schedule(seed, client)
        assert jobs == client_schedule(seed, client)
        cached = set()
        for job in jobs:
            if job.kind == "hit":
                assert (job.experiment, job.seed) in cached
            if job.kind == "partial":
                assert ("E1", job.seed) in cached
            if job.kind == "cold":
                cached.add((job.experiment, job.seed))
    partials = [j for j in client_schedule(seed, 0) if j.kind == "partial"]
    assert sorted(map(repr, (j.overrides for j in partials))) == sorted(
        map(repr, E1_PARTIALS)
    )
    hit_counts = [
        sum(j.kind == "hit" for j in client_schedule(seed, c)) for c in (0, 1)
    ]
    assert hit_counts[0] == hit_counts[1]


def test_self_time_and_emit_summarise_split():
    t = tracing.Tracer("t")
    # experiment [0, 10]: emit until 2, runner call [2, 7], then a
    # child accounting span [7, 8] and summarise until 10.
    t.spans = [
        [0, "experiment", 0.0, 10.0, None, "E1", None],
        [1, "runtime.execute", 2.0, 7.0, 0, "E1", None],
        [2, "kernels.chunk", 3.0, 6.0, 1, "E1", None],
        [3, "kernels.draw", 3.0, 4.0, 2, "E1", None],
        [4, "trace.accounting", 7.0, 8.0, 0, "E1", None],
    ]
    selfs = tracing.self_times(t.spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.0}
    metrics = tracing.layer_metrics(t, ["E1"])
    assert metrics["experiments.emit_s"] == pytest.approx(2.0)
    assert metrics["experiments.summarise_s"] == pytest.approx(2.0)
    assert metrics["experiment.E1.s"] == pytest.approx(10.0)
    assert metrics["runtime.execute_s"] == pytest.approx(5.0)
    assert metrics["kernels.routing_s"] == pytest.approx(2.0)
    assert metrics["kernels.draw_s"] == pytest.approx(1.0)
