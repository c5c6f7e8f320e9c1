"""A1 — ablation: exact vs router-based conditioning.

Definition 2 conditions on ``{u ~ v}``.  The harness default
establishes that event with a router-independent cluster search
("exact"); a complete router's own success/failure is an alternative
("router").  With shared seeds the two must agree *exactly* on every
trial — this ablation certifies the conditioning machinery rather than
a paper claim.

Every trial of every (case, mode) pair is its own :class:`TrialSpec`;
both modes of a case share per-trial seeds, so their draws stay
identical however the work is scheduled.  Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.routers.bfs import LocalBFSRouter
from repro.routers.waypoint import MeshWaypointRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed

COLUMNS = [
    "graph",
    "p",
    "mode",
    "trials",
    "connected_trials",
    "mean_queries",
    "verdicts_agree",
]


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    trials = pick(scale, tiny=10, small=30, medium=80)
    cases = [
        (Hypercube(pick(scale, tiny=5, small=7, medium=9)), 0.45, LocalBFSRouter()),
        (Mesh(2, pick(scale, tiny=7, small=10, medium=14)), 0.55, MeshWaypointRouter()),
    ]
    table = ResultTable(
        "A1",
        "Ablation: exact (cluster-BFS) vs router-based conditioning",
        columns=COLUMNS,
    )
    groups = [
        (
            (graph.name, mode),
            complexity_specs(
                graph,
                p=p,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "a1", graph.name),
                conditioning=mode,
                key=("a1", graph.name, mode),
            ),
        )
        for graph, p, router in cases
        for mode in ("exact", "router")
    ]
    records = runner.run_grouped(groups)
    for graph, p, router in cases:
        runs = {
            mode: assemble_measurement(
                graph, p, router, records[(graph.name, mode)]
            )
            for mode in ("exact", "router")
        }
        agree = [r.connected for r in runs["exact"].records] == [
            r.connected for r in runs["router"].records
        ]
        for mode, m in runs.items():
            mean_q = (
                m.query_summary().mean if m.successes() else float("nan")
            )
            table.add_row(
                graph=graph.name,
                p=p,
                mode=mode,
                trials=m.trials,
                connected_trials=m.connected_trials,
                mean_queries=mean_q,
                verdicts_agree=agree,
            )
    table.add_note(
        "verdicts_agree must be True: a complete router's failure is "
        "exactly the disconnection event the cluster search detects."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="A1",
        title="Conditioning method ablation",
        claim=(
            "Exact (router-independent) and router-based conditioning on "
            "{u ~ v} agree trial-by-trial for complete routers."
        ),
        reference="Definition 2 (methodology)",
        run=run,
    )
)
