"""E10 — oracle routing in ``G(n, c/n)`` is ``Θ(n^{3/2})`` (Theorem 11).

The bidirectional router's mean complexity over an ``n`` sweep:
``queries/n^{3/2}`` roughly flat, log-log exponent ≈ 1.5, i.e. oracle
routing beats the best local routing by exactly ``√n``.  Theorem 11's
*universal* lower bound ``Pr[comp < a·n^{3/2}] ≤ (3c/2)a^{2/3} + 2/n``
is tabulated at the observed ``a``.

Every trial of every size is its own :class:`TrialSpec`, and so is
every trial of the local-router comparison at one size, so the largest
``n`` fans out across workers.  Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import scaling_exponent
from repro.analysis.theory import gnp_oracle_lower_bound
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import GnpPercolation
from repro.routers.gnp import GnpBidirectionalRouter, GnpLocalRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "c",
    "n",
    "connected_trials",
    "mean_queries",
    "queries_over_n15",
    "observed_a",
    "theory_bound_at_a",
    "speedup_vs_local",
]


def _factory(graph, p, seed):
    return GnpPercolation(n=graph.num_vertices(), p=p, seed=seed)


def run(scale: str, seed: int, runner) -> ResultTable:
    c = 3.0
    ns = pick(
        scale,
        tiny=[64, 128],
        small=[256, 512, 1024],
        medium=[256, 512, 1024, 2048],
    )
    trials = pick(scale, tiny=8, small=16, medium=30)
    compare_local_at = pick(scale, tiny=128, small=512, medium=1024)

    table = ResultTable(
        "E10",
        "G(n, c/n) bidirectional oracle routing vs n (expect Theta(n^1.5))",
        columns=COLUMNS,
    )
    bidirectional, local = GnpBidirectionalRouter(), GnpLocalRouter()
    groups = [
        (
            ("bidirectional", n),
            complexity_specs(
                CompleteGraph(n),
                p=c / n,
                router=bidirectional,
                trials=trials,
                seed=derive_seed(seed, "e10", n),
                model_factory=_factory,
                key=("e10", n),
            ),
        )
        for n in ns
    ]
    groups.append(
        (
            ("local", compare_local_at),
            complexity_specs(
                CompleteGraph(compare_local_at),
                p=c / compare_local_at,
                router=local,
                trials=max(4, trials // 2),
                seed=derive_seed(seed, "e10-local", compare_local_at),
                model_factory=_factory,
                key=("e10-local", compare_local_at),
            ),
        )
    )
    records = runner.run_grouped(groups)
    points = []
    for n in ns:
        graph = CompleteGraph(n)
        m = assemble_measurement(
            graph, c / n, bidirectional, records[("bidirectional", n)]
        )
        if not m.connected_trials:
            continue
        mean_q = m.query_summary().mean
        speedup = float("nan")
        if n == compare_local_at:
            base = assemble_measurement(
                graph, c / n, local, records[("local", n)]
            )
            if base.connected_trials:
                speedup = base.query_summary().mean / mean_q
        a = mean_q / n**1.5
        table.add_row(
            c=c,
            n=n,
            connected_trials=m.connected_trials,
            mean_queries=mean_q,
            queries_over_n15=a,
            observed_a=a,
            theory_bound_at_a=gnp_oracle_lower_bound(n, c, a),
            speedup_vs_local=speedup,
        )
        points.append((n, mean_q))
    if len(points) >= 3:
        fit = scaling_exponent([x for x, _ in points], [y for _, y in points])
        table.add_note(
            f"queries ~ n^{fit['exponent']:.2f} (r²={fit['r2']:.3f}) — "
            "Theorem 11 predicts exponent 1.5"
        )
    table.add_note(
        "speedup_vs_local at the comparison size should approach sqrt(n) "
        "as n grows (the exact local/oracle separation of Section 5)."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E10",
        title="G(n,p) oracle routing is Theta(n^1.5)",
        claim=(
            "An oracle algorithm routes in G(n, c/n) with average "
            "complexity O(n^1.5), and every oracle algorithm needs "
            "Omega(n^1.5) — a sqrt(n) separation from local routing."
        ),
        reference="Theorem 11",
        run=run,
    )
)
