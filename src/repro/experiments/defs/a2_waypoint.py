"""A2 — ablation: waypoint segment-search schedules.

The shared waypoint engine (Theorems 3(ii)/4) caps its per-segment BFS
radius.  This ablation compares radius caps (1, 2, 4, unbounded) and
the plain BFS baseline on both a supercritical mesh and a supercritical
hypercube: small caps are cheap but give up on detours; the unbounded
schedule is complete and still far cheaper than exhaustive BFS.

Every trial of every (graph, router) pair is its own
:class:`TrialSpec`; all routers of a graph share per-trial seeds, so
the comparison stays draw-for-draw fair under any scheduling.
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
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.routers.bfs import LocalBFSRouter
from repro.routers.hybrid import HybridGreedyRouter
from repro.routers.waypoint import WaypointRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed

COLUMNS = [
    "graph",
    "p",
    "router",
    "connected_trials",
    "success_rate",
    "mean_queries",
]


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    trials = pick(scale, tiny=8, small=20, medium=50)
    mesh_side = pick(scale, tiny=8, small=12, medium=16)
    cube_n = pick(scale, tiny=6, small=8, medium=10)
    cases = [
        (Mesh(2, mesh_side), 0.65),
        (Hypercube(cube_n), cube_n**-0.3),
    ]
    routers = [
        WaypointRouter(max_radius=1),
        WaypointRouter(max_radius=2),
        WaypointRouter(max_radius=4),
        WaypointRouter(),  # unbounded — complete
        HybridGreedyRouter(switch_distance=2),  # paper's remark
        LocalBFSRouter(),
    ]
    table = ResultTable(
        "A2",
        "Ablation: waypoint segment radius caps vs exhaustive BFS",
        columns=COLUMNS,
    )
    groups = [
        (
            (graph.name, router.name),
            complexity_specs(
                graph,
                p=p,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "a2", graph.name),
                key=("a2", graph.name, router.name),
            ),
        )
        for graph, p in cases
        for router in routers
    ]
    records = runner.run_grouped(groups)
    for graph, p in cases:
        for router in routers:
            m = assemble_measurement(
                graph, p, router, records[(graph.name, router.name)]
            )
            if not m.connected_trials:
                continue
            table.add_row(
                graph=graph.name,
                p=p,
                router=router.name,
                connected_trials=m.connected_trials,
                success_rate=m.success_rate,
                mean_queries=(
                    m.query_summary().mean if m.successes() else float("nan")
                ),
            )
    table.add_note(
        "Expected pattern: success_rate rises with the radius cap and "
        "hits 1.0 for the unbounded schedule; mean_queries of unbounded "
        "waypoint stays well below local-bfs."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="A2",
        title="Waypoint schedule ablation",
        claim=(
            "The per-segment BFS radius trades success probability "
            "against probes; the unbounded schedule is complete yet far "
            "cheaper than exhaustive search (design choice behind "
            "Theorems 3(ii)/4)."
        ),
        reference="Theorems 3(ii) and 4 (methodology)",
        run=run,
    )
)
