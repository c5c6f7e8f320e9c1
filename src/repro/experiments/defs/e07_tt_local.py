"""E7 — local routing on the double tree costs ``≈ p^{-n}`` (Theorem 7).

Measure complete local routers (directed DFS, BFS) between the roots of
``TT_n``, conditioned on connectivity, at several fixed ``p > 1/√2``.
Theorem 7 predicts the query count grows like ``p^{-n}``: we fit
``log(queries)`` against ``n·log(1/p)`` (slope ≈ 1 ⇒ the base matches)
and overlay the Lemma 5 bound with its exact ``η = p^n``.

Every trial of every ``(p, depth, router)`` point is its own
:class:`TrialSpec` — the deepest trees, where a single conditioned
routing attempt costs ``≈ p^{-n}`` probes, spread across workers.
Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

import math

from repro.analysis.theory import theorem7_bound
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.double_tree import DoubleBinaryTree
from repro.routers.bfs import LocalBFSRouter
from repro.routers.dfs import DirectedDFSRouter
from repro.util.rng import derive_seed
from repro.util.stats import linear_fit

COLUMNS = [
    "p",
    "depth",
    "router",
    "connected_trials",
    "mean_queries",
    "p^-depth",
    "bound_half_at_t",
]


def run(scale: str, seed: int, runner) -> ResultTable:
    ps = pick(scale, tiny=[0.8], small=[0.75, 0.85], medium=[0.75, 0.8, 0.85])
    depths = pick(
        scale, tiny=[3, 5], small=[4, 6, 8, 10], medium=[4, 6, 8, 10, 12]
    )
    trials = pick(scale, tiny=8, small=20, medium=50)

    table = ResultTable(
        "E7",
        "Double-tree local routing cost vs depth (expect ~ p^-n growth)",
        columns=COLUMNS,
    )
    routers = [DirectedDFSRouter(), LocalBFSRouter()]
    # One tree per depth: every point of a depth shares its edge index.
    trees = {depth: DoubleBinaryTree(depth) for depth in depths}
    groups = [
        (
            (p, depth, router.name),
            complexity_specs(
                trees[depth],
                p=p,
                router=router,
                pair=trees[depth].roots(),
                trials=trials,
                seed=derive_seed(seed, "e7", p, depth, router.name),
                key=("e7", p, depth, router.name),
            ),
        )
        for p in ps
        for depth in depths
        for router in routers
    ]
    records = runner.run_grouped(groups)
    for p in ps:
        fits: dict[str, list[tuple[float, float]]] = {}
        for depth in depths:
            graph = trees[depth]
            pair = graph.roots()
            for router in routers:
                m = assemble_measurement(
                    graph,
                    p,
                    router,
                    records[(p, depth, router.name)],
                    pair=pair,
                )
                if not m.connected_trials:
                    continue
                mean_q = m.query_summary().mean
                # t at which Theorem 7's bound reaches 1/2
                t_half = 0.5 / theorem7_bound(p, depth, 1.0)
                table.add_row(
                    p=p,
                    depth=depth,
                    router=router.name,
                    connected_trials=m.connected_trials,
                    mean_queries=mean_q,
                    **{"p^-depth": p**-depth},
                    bound_half_at_t=t_half,
                )
                fits.setdefault(router.name, []).append(
                    (depth * math.log(1 / p), math.log(mean_q))
                )
        for name, points in fits.items():
            if len(points) >= 3:
                slope, _, r2 = linear_fit(
                    [x for x, _ in points], [y for _, y in points]
                )
                table.add_note(
                    f"p={p}, {name}: log(queries) ~ {slope:.2f} * n*log(1/p) "
                    f"(r²={r2:.3f}); Theorem 7 predicts slope ≈ 1 "
                    "(queries ~ p^-n)"
                )
    return table


register(
    ExperimentSpec(
        experiment_id="E7",
        title="Double-tree local routing is exponential",
        claim=(
            "For any fixed 1/sqrt(2) < p < 1, every local router between "
            "the roots of TT_n makes ~ p^-n probes w.h.p."
        ),
        reference="Theorem 7",
        run=run,
    )
)
