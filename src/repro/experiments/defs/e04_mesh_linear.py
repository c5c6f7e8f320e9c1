"""E4 — mesh routing is O(n) above criticality (Theorem 4).

For ``d ∈ {2, 3}`` and several ``p > p_c(d)``, route between centred
pairs at mesh distance ``n`` inside a cube whose side exceeds ``n``.
The expected probe count must grow *linearly* in ``n`` with a
``p``-dependent constant — verified by a log-log exponent ≈ 1 and a
linear fit with high r².

Every trial of every ``(d, p, n)`` point is its own :class:`TrialSpec`,
so the whole sweep — distances, retention levels and dimensions — runs
as one flat batch across workers.  Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import scaling_exponent
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.mesh import Mesh
from repro.percolation.thresholds import mesh_critical_probability
from repro.routers.waypoint import MeshWaypointRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed
from repro.util.stats import linear_fit

COLUMNS = [
    "d",
    "p",
    "n",
    "connected_trials",
    "mean_queries",
    "median_queries",
    "queries_per_distance",
]


def _p_levels(scale: str, d: int) -> list[float]:
    pc = mesh_critical_probability(d)
    return pick(
        scale,
        tiny=[0.8],
        small=[round(pc + 0.12, 3), 0.8],
        medium=[round(pc + 0.08, 3), round(pc + 0.2, 3), 0.8],
    )


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    dims = pick(scale, tiny=[2], small=[2, 3], medium=[2, 3])
    distances = pick(
        scale,
        tiny=[4, 8],
        small=[4, 8, 12, 16],
        medium=[6, 12, 18, 24, 30],
    )
    trials = pick(scale, tiny=6, small=14, medium=30)
    margin = 6

    table = ResultTable(
        "E4",
        "Mesh routing complexity vs distance for p > p_c (expect O(n))",
        columns=COLUMNS,
    )

    # One mesh per (d, n): every p level of a point shares its edge
    # index and adjacency.
    geometry = {}
    for d in dims:
        for n in distances:
            graph = Mesh(d, n // d + margin)
            geometry[d, n] = graph, graph.centered_pair_at_distance(n)

    groups = []
    for d in dims:
        for p in _p_levels(scale, d):
            for n in distances:
                graph, pair = geometry[d, n]
                groups.append(
                    (
                        (d, p, n),
                        complexity_specs(
                            graph,
                            p=p,
                            router=MeshWaypointRouter(),
                            pair=pair,
                            trials=trials,
                            seed=derive_seed(seed, "e4", d, p, n),
                            key=("e4", d, p, n),
                        ),
                    )
                )
    records = runner.run_grouped(groups)

    for d in dims:
        for p in _p_levels(scale, d):
            points = []
            for n in distances:
                graph, pair = geometry[d, n]
                m = assemble_measurement(
                    graph,
                    p,
                    MeshWaypointRouter(),
                    records[(d, p, n)],
                    pair=pair,
                )
                if not m.connected_trials:
                    continue
                summary = m.query_summary()
                table.add_row(
                    d=d,
                    p=p,
                    n=n,
                    connected_trials=m.connected_trials,
                    mean_queries=summary.mean,
                    median_queries=summary.median,
                    queries_per_distance=summary.mean / n,
                )
                points.append((n, summary.mean))
            if len(points) >= 3:
                xs = [x for x, _ in points]
                ys = [y for _, y in points]
                fit = scaling_exponent(xs, ys)
                slope, intercept, r2 = linear_fit(xs, ys)
                table.add_note(
                    f"d={d}, p={p}: queries ~ n^{fit['exponent']:.2f}; "
                    f"linear fit {slope:.1f}·n + {intercept:.0f} "
                    f"(r²={r2:.3f}) — Theorem 4 predicts exponent 1"
                )
    return table


register(
    ExperimentSpec(
        experiment_id="E4",
        title="Mesh O(n) routing above p_c",
        claim=(
            "In M^d_p with any fixed p > p_c(d), a local algorithm routes "
            "between vertices at distance n with expected O(n) probes."
        ),
        reference="Theorem 4",
        run=run,
    )
)
