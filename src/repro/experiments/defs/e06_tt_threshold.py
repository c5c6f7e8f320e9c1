"""E6 — double-tree connectivity threshold at ``1/√2`` (Lemma 6).

Empirical root-to-root connection probability vs the *exact* recursion
(binary Galton–Watson survival to level ``n`` with edge probability
``p²``), across ``p`` and depth.  As depth grows the curve sharpens
into a step at ``1/√2 ≈ 0.7071``.

The empirical curve is computed via **coupled thresholds**
(:func:`repro.percolation.coupled.pair_threshold`): one union–find
sweep per trial yields the exact ``p`` at which the roots connect, so a
single pass evaluates ``Pr[x ~ y in TT_{n,p}]`` at *every* ``p``
simultaneously — equivalent to (and much cheaper than) per-``p``
Monte-Carlo with the same hash stream.  Each union–find sweep is one
:class:`TrialSpec`, using the same per-trial seed derivation as
``threshold_sample``, so depths fan out trial by trial.  Each spec is
**workload-referenced**: the depth's tree is frozen into one shared
:class:`Workload` and a spec carries only its derived seed — a chunk
writes the tree once, and a worker keeps one copy of it per depth.
"""

from __future__ import annotations

import math

from repro.analysis.theory import double_tree_connection_probability
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.double_tree import DoubleBinaryTree
from repro.percolation.coupled import pair_threshold
from repro.runtime import SerialRunner, TrialSpec, Workload
from repro.util.rng import derive_seed

COLUMNS = ["depth", "p", "pr_empirical", "pr_exact", "abs_error", "trials"]


def _root_threshold(graph: DoubleBinaryTree, trial_seed: int) -> float:
    """One coupled union-find sweep: exact root-connection p."""
    return pair_threshold(graph, trial_seed, *graph.roots())


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    depths = pick(scale, tiny=[3, 5], small=[4, 7, 10], medium=[4, 8, 12, 14])
    ps = pick(
        scale,
        tiny=[0.6, 0.75, 0.9],
        small=[0.55, 0.65, 0.7, 0.7071, 0.75, 0.85, 0.95],
        medium=[0.55, 0.6, 0.65, 0.68, 0.7071, 0.72, 0.75, 0.8, 0.9, 0.95],
    )
    trials = pick(scale, tiny=60, small=200, medium=300)

    table = ResultTable(
        "E6",
        "Double-tree root connectivity vs exact GW recursion "
        "(threshold 1/sqrt(2) ~ 0.7071)",
        columns=COLUMNS,
    )
    sweeps = {
        depth: Workload(
            fn=_root_threshold, args=(DoubleBinaryTree(depth),)
        )
        for depth in depths
    }
    groups = [
        (
            depth,
            [
                # Same per-trial derivation as threshold_sample, so the
                # recorded curves are bit-identical to the pre-runner code.
                TrialSpec(
                    key=("e6", depth, t),
                    args=(
                        derive_seed(
                            derive_seed(seed, "e6", depth), "coupled", t
                        ),
                    ),
                    workload=sweeps[depth],
                )
                for t in range(trials)
            ],
        )
        for depth in depths
    ]
    sampled = runner.run_grouped(groups)

    for depth in depths:
        thresholds = sorted(sampled[depth])
        for p in ps:
            empirical = sum(1 for t in thresholds if t < p) / trials
            exact = double_tree_connection_probability(p, depth)
            table.add_row(
                depth=depth,
                p=p,
                pr_empirical=empirical,
                pr_exact=exact,
                abs_error=abs(empirical - exact),
                trials=trials,
            )
    worst = max(table.column("abs_error"))
    se = 3 / math.sqrt(trials)
    table.add_note(
        f"max |empirical - exact| = {worst:.3f} "
        f"(3/sqrt(trials) = {se:.3f}); the recursion is exact, deviations "
        "are pure sampling noise."
    )
    table.add_note(
        "Lemma 6: as depth grows, Pr[x ~ y] -> 0 for p < 1/sqrt(2) and "
        "stays bounded away from 0 for p > 1/sqrt(2)."
    )
    table.add_note(
        "empirical curve evaluated from coupled per-trial connection "
        "thresholds (one union-find sweep per trial covers all p)."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E6",
        title="Double-tree connectivity threshold",
        claim=(
            "In TT_n the roots connect with probability bounded away from "
            "0 iff p > 1/sqrt(2); equivalently binary GW survival with "
            "edge probability p^2."
        ),
        reference="Lemma 6",
        run=run,
    )
)
