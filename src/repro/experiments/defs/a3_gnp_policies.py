"""A3 — ablation: what makes Theorem 11 fast, oracle access or policy?

Three routers on identical ``G(n, c/n)`` draws:

* the local target-first router (Theorem 10's Θ(n²));
* the *same* policy run with oracle access (no locality constraint);
* the bidirectional oracle router (Theorem 11's Θ(n^{3/2})).

Expected: the unidirectional oracle matches the local router's order —
oracle access alone buys nothing; bidirectional growth is the √n win.

Every trial of every (n, router) pair is its own :class:`TrialSpec`;
all three routers of a size share per-trial seeds — identical draws —
so the comparison is a true ablation under any scheduling.
Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import GnpPercolation
from repro.routers.gnp import (
    GnpBidirectionalRouter,
    GnpLocalRouter,
    GnpUnidirectionalRouter,
)
from repro.util.rng import derive_seed

COLUMNS = ["n", "c", "router", "connected_trials", "mean_queries", "vs_local"]


def _factory(graph, p, seed):
    return GnpPercolation(n=graph.num_vertices(), p=p, seed=seed)


def run(scale: str, seed: int, runner) -> ResultTable:
    c = 3.0
    ns = pick(scale, tiny=[96], small=[256, 512], medium=[256, 512, 1024])
    trials = pick(scale, tiny=8, small=14, medium=24)

    table = ResultTable(
        "A3",
        "Ablation: G(n,p) growth policies (local / unidirectional-oracle "
        "/ bidirectional-oracle)",
        columns=COLUMNS,
    )
    routers = [
        GnpLocalRouter(),
        GnpUnidirectionalRouter(),
        GnpBidirectionalRouter(),
    ]
    groups = [
        (
            (n, router.name),
            complexity_specs(
                CompleteGraph(n),
                p=c / n,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "a3", n),  # same seeds per router
                model_factory=_factory,
                key=("a3", n, router.name),
            ),
        )
        for n in ns
        for router in routers
    ]
    records = runner.run_grouped(groups)
    for n in ns:
        graph = CompleteGraph(n)
        means = {}
        for router in routers:
            m = assemble_measurement(
                graph, c / n, router, records[(n, router.name)]
            )
            if not m.connected_trials:
                continue
            means[router.name] = m.query_summary().mean
        base = means.get("gnp-local")
        for name, mean_q in means.items():
            table.add_row(
                n=n,
                c=c,
                router=name,
                connected_trials=trials,
                mean_queries=mean_q,
                vs_local=(mean_q / base) if base else float("nan"),
            )
    table.add_note(
        "vs_local ≈ 1 for the unidirectional oracle (access alone does "
        "not help); vs_local ≈ n^-1/2 scale for bidirectional growth."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="A3",
        title="G(n,p) growth-policy ablation",
        claim=(
            "The sqrt(n) oracle advantage of Theorem 11 comes from "
            "bidirectional growth, not from oracle access per se."
        ),
        reference="Theorems 10–11 (design choice)",
        run=run,
    )
)
