"""A4 — ablation: open boundary (mesh) vs periodic boundary (torus).

Theorem 4 is stated for the mesh; near the boundary the supercritical
cluster is slightly thinner, which could in principle distort the O(n)
routing constant measured in E4.  This ablation routes between pairs at
the same distance on a mesh and on a torus of the same size and
compares queries-per-distance: the difference must be a small constant
factor, i.e. boundary effects do not drive the linear law.

Every trial of every (boundary, p, n) point is its own
:class:`TrialSpec`; mesh and torus share per-trial seeds at equal
``(p, n)``, keeping the comparison draw-for-draw coupled.
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
from repro.graphs.mesh import Mesh, Torus
from repro.routers.waypoint import MeshWaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "boundary",
    "p",
    "n",
    "connected_trials",
    "mean_queries",
    "queries_per_distance",
]


def run(scale: str, seed: int, runner) -> ResultTable:
    side = pick(scale, tiny=9, small=13, medium=19)
    distances = pick(scale, tiny=[4, 8], small=[4, 8, 12], medium=[6, 12, 18])
    ps = pick(scale, tiny=[0.7], small=[0.6, 0.8], medium=[0.55, 0.7, 0.85])
    trials = pick(scale, tiny=8, small=16, medium=40)

    graphs = {"mesh": Mesh(2, side), "torus": Torus(2, side)}
    table = ResultTable(
        "A4",
        "Ablation: open vs periodic boundary for mesh routing (Theorem 4)",
        columns=COLUMNS,
    )
    groups = [
        (
            (boundary, p, n),
            complexity_specs(
                graph,
                p=p,
                router=MeshWaypointRouter(),
                pair=Mesh.centered_pair_at_distance(graph, n),
                trials=trials,
                seed=derive_seed(seed, "a4", p, n),  # shared across kinds
                key=("a4", boundary, p, n),
            ),
        )
        for boundary, graph in graphs.items()
        for p in ps
        for n in distances
    ]
    records = runner.run_grouped(groups)
    for boundary, graph in graphs.items():
        for p in ps:
            for n in distances:
                pair = Mesh.centered_pair_at_distance(graph, n)
                m = assemble_measurement(
                    graph,
                    p,
                    MeshWaypointRouter(),
                    records[(boundary, p, n)],
                    pair=pair,
                )
                if not m.connected_trials:
                    continue
                mean_q = m.query_summary().mean
                table.add_row(
                    boundary=boundary,
                    p=p,
                    n=n,
                    connected_trials=m.connected_trials,
                    mean_queries=mean_q,
                    queries_per_distance=mean_q / n,
                )
    table.add_note(
        "queries_per_distance of mesh vs torus should agree within a "
        "small constant factor — boundary thinning does not change the "
        "O(n) law, only (slightly) its constant."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="A4",
        title="Mesh vs torus boundary ablation",
        claim=(
            "Open-boundary effects do not drive Theorem 4's O(n) law; "
            "mesh and torus constants agree up to a small factor."
        ),
        reference="Theorem 4 (methodology)",
        run=run,
    )
)
