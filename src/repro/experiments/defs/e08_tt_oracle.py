"""E8 — oracle routing on the double tree is O(n) (Theorem 9).

The mirror-pair oracle router's average complexity vs depth, for
``p > 1/√2``.  Expect linear growth (slope ≈ 1 in log-log), success
probability bounded away from zero independent of depth, and — combined
with E7 — an *exponential local-vs-oracle gap* on the same graph.

Every trial of every ``(p, depth)`` point is its own
:class:`TrialSpec`, so the sweep fans out across workers.
Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import scaling_exponent
from repro.analysis.theory import double_tree_connection_probability
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.double_tree import DoubleBinaryTree
from repro.routers.tree import MirrorPairOracleRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed

COLUMNS = [
    "p",
    "depth",
    "connected_trials",
    "mirror_success_rate",
    "theory_mirror_rate",
    "mean_queries",
    "queries_per_depth",
]


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    ps = pick(scale, tiny=[0.85], small=[0.75, 0.85, 0.95], medium=[0.72, 0.8, 0.9])
    depths = pick(
        scale, tiny=[4, 8], small=[4, 8, 12], medium=[4, 8, 12, 16]
    )
    trials = pick(scale, tiny=15, small=40, medium=60)

    table = ResultTable(
        "E8",
        "Double-tree oracle (mirror-pair) routing vs depth (expect O(n))",
        columns=COLUMNS,
    )
    # One tree per depth: every point of a depth shares its edge index.
    trees = {depth: DoubleBinaryTree(depth) for depth in depths}
    groups = [
        (
            (p, depth),
            complexity_specs(
                trees[depth],
                p=p,
                router=MirrorPairOracleRouter(),
                pair=trees[depth].roots(),
                trials=trials,
                seed=derive_seed(seed, "e8", p, depth),
                key=("e8", p, depth),
            ),
        )
        for p in ps
        for depth in depths
    ]
    records = runner.run_grouped(groups)
    for p in ps:
        points = []
        for depth in depths:
            graph = trees[depth]
            m = assemble_measurement(
                graph,
                p,
                MirrorPairOracleRouter(),
                records[(p, depth)],
                pair=graph.roots(),
            )
            if not m.connected_trials or not m.successes():
                continue
            mean_q = m.query_summary().mean
            # Pr[mirror path exists | u ~ v] >= Pr[mirror path] / Pr[u~v]:
            # both equal level_reach(2, p^2, depth) — mirror-pair openness
            # IS the connectivity event of Lemma 6, so the theory rate
            # conditional on u ~ v is c(p)/Pr[u~v] <= 1; report the
            # unconditional mirror-path probability for reference.
            table.add_row(
                p=p,
                depth=depth,
                connected_trials=m.connected_trials,
                mirror_success_rate=m.success_rate,
                theory_mirror_rate=double_tree_connection_probability(
                    p, depth
                ),
                mean_queries=mean_q,
                queries_per_depth=mean_q / depth,
            )
            points.append((depth, mean_q))
        if len(points) >= 3:
            fit = scaling_exponent([x for x, _ in points], [y for _, y in points])
            table.add_note(
                f"p={p}: queries ~ depth^{fit['exponent']:.2f} "
                f"(r²={fit['r2']:.3f}) — Theorem 9 predicts exponent 1 "
                "(average complexity c(p)·n)"
            )
    table.add_note(
        "Together with E7: oracle O(n) vs local ~p^-n on the same graph — "
        "an exponential separation between the two query models."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E8",
        title="Double-tree oracle routing is linear",
        claim=(
            "There is an oracle router between the roots of TT_n with "
            "average complexity c(p)·n for any p > 1/sqrt(2)."
        ),
        reference="Theorem 9",
        run=run,
    )
)
