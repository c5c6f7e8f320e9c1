"""E3 — the hypercube poly(n) upper bound (Theorem 3(ii)).

For ``α < 1/2`` run the radius-capped waypoint router (the paper's
algorithm) between antipodal vertices and record (a) the success rate —
predicted ``≥ 1 - exp(-c n^{1-α})`` — and (b) how the query count
scales with ``n`` (a log-log fit; poly(n) means a modest, stable
exponent rather than exponential growth).

Every trial of every ``(α, n)`` point is its own :class:`TrialSpec`,
so the sweep — including its largest ``n`` — fans out across workers.
Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import scaling_exponent
from repro.analysis.theory import theorem3ii_success_probability
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.routers.waypoint import HypercubeWaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "alpha",
    "n",
    "p",
    "connected_trials",
    "success_rate",
    "theory_success_floor",
    "median_queries",
    "mean_queries",
]


def run(scale: str, seed: int, runner) -> ResultTable:
    alphas = pick(scale, tiny=[0.3], small=[0.1, 0.2, 0.3, 0.4], medium=[0.1, 0.2, 0.3, 0.4])
    ns = pick(scale, tiny=[6, 8], small=[8, 10, 12], medium=[8, 10, 12, 14])
    trials = pick(scale, tiny=6, small=16, medium=40)

    table = ResultTable(
        "E3",
        "Hypercube waypoint routing for alpha < 1/2 (poly(n) regime)",
        columns=COLUMNS,
    )
    # One cube per n: every point of an n shares its edge index.
    cubes = {n: Hypercube(n) for n in ns}
    groups = [
        (
            (alpha, n),
            complexity_specs(
                cubes[n],
                p=n**-alpha,
                router=HypercubeWaypointRouter(alpha=alpha),
                trials=trials,
                seed=derive_seed(seed, "e3", alpha, n),
                key=("e3", alpha, n),
            ),
        )
        for alpha in alphas
        for n in ns
    ]
    records = runner.run_grouped(groups)
    for alpha in alphas:
        per_n = []
        for n in ns:
            graph = cubes[n]
            p = n**-alpha
            router = HypercubeWaypointRouter(alpha=alpha)
            m = assemble_measurement(graph, p, router, records[(alpha, n)])
            if not m.connected_trials:
                continue
            summary = (
                m.query_summary() if m.successes() else None
            )
            table.add_row(
                alpha=alpha,
                n=n,
                p=p,
                connected_trials=m.connected_trials,
                success_rate=m.success_rate,
                theory_success_floor=theorem3ii_success_probability(
                    n, alpha, c=0.5
                ),
                median_queries=(
                    summary.median if summary else float("nan")
                ),
                mean_queries=summary.mean if summary else float("nan"),
            )
            if summary:
                per_n.append((n, summary.median))
        if len(per_n) >= 3:
            fit = scaling_exponent(
                [x for x, _ in per_n], [y for _, y in per_n]
            )
            table.add_note(
                f"alpha={alpha}: queries ~ n^{fit['exponent']:.2f} "
                f"(r²={fit['r2']:.3f}) — polynomial, as Theorem 3(ii) "
                "predicts (k = O((1-2a)^-1))"
            )
    return table


register(
    ExperimentSpec(
        experiment_id="E3",
        title="Hypercube poly(n) routing upper bound",
        claim=(
            "For p = n^-alpha with alpha < 1/2 there is a local algorithm "
            "routing with n^k probes (k = k(alpha)) with probability at "
            "least 1 - exp(-c n^{1-alpha})."
        ),
        reference="Theorem 3(ii)",
        run=run,
    )
)
