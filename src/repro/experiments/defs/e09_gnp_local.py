"""E9 — local routing in ``G(n, c/n)`` costs ``Ω(n²)`` (Theorem 10).

Run the natural local router for ``c ∈ {2, 3}`` over a sweep of ``n``;
``queries/n²`` should be roughly flat (the Θ(n²) law) and the log-log
exponent ≈ 2.  The proof's probability bound
``Pr[X < k] = O(√k / n)`` is tabulated alongside at ``k = mean``.

Every trial of every ``(c, n)`` point is its own :class:`TrialSpec`,
so the largest ``n`` — a Θ(n²) router run per trial — fans out across
workers.  Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import scaling_exponent
from repro.analysis.theory import gnp_giant_fraction, gnp_local_lower_bound
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import GnpPercolation
from repro.routers.gnp import GnpLocalRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed

COLUMNS = [
    "c",
    "n",
    "connected_trials",
    "mean_queries",
    "queries_over_n2",
    "theory_pr_below_mean",
]


def _factory(graph, p, seed):
    return GnpPercolation(n=graph.num_vertices(), p=p, seed=seed)


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    cs = pick(scale, tiny=[3.0], small=[2.0, 3.0], medium=[2.0, 3.0])
    ns = pick(
        scale,
        tiny=[64, 128],
        small=[128, 256, 512],
        medium=[128, 256, 512, 1024],
    )
    trials = pick(scale, tiny=8, small=16, medium=30)

    table = ResultTable(
        "E9",
        "G(n, c/n) local routing cost vs n (expect Theta(n^2))",
        columns=COLUMNS,
    )
    groups = [
        (
            (c, n),
            complexity_specs(
                CompleteGraph(n),
                p=c / n,
                router=GnpLocalRouter(),
                trials=trials,
                seed=derive_seed(seed, "e9", c, n),
                model_factory=_factory,
                key=("e9", c, n),
            ),
        )
        for c in cs
        for n in ns
    ]
    records = runner.run_grouped(groups)
    for c in cs:
        points = []
        for n in ns:
            graph = CompleteGraph(n)
            m = assemble_measurement(
                graph, c / n, GnpLocalRouter(), records[(c, n)]
            )
            if not m.connected_trials:
                continue
            mean_q = m.query_summary().mean
            giant = gnp_giant_fraction(c)
            table.add_row(
                c=c,
                n=n,
                connected_trials=m.connected_trials,
                mean_queries=mean_q,
                queries_over_n2=mean_q / n**2,
                theory_pr_below_mean=gnp_local_lower_bound(
                    n, c, mean_q, a=giant * giant
                ),
            )
            points.append((n, mean_q))
        if len(points) >= 3:
            fit = scaling_exponent([x for x, _ in points], [y for _, y in points])
            table.add_note(
                f"c={c}: queries ~ n^{fit['exponent']:.2f} "
                f"(r²={fit['r2']:.3f}) — Theorem 10 predicts exponent 2"
            )
    table.add_note(
        "theory_pr_below_mean is Theorem 10's bound on Pr[X < mean]; its "
        "(1+c^2)/ (a n) constant makes it informative only for "
        "k << (a n / (1+c^2))^2, so at these n it typically caps at 1 — "
        "the Theta(n^2) scaling above is the operative check."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E9",
        title="G(n,p) local routing is quadratic",
        claim=(
            "Any local routing algorithm on G(n, c/n), c > 1, has expected "
            "complexity Omega(n^2)."
        ),
        reference="Theorem 10",
        run=run,
    )
)
