"""E17 (extension) — adversarial budget vs random damage of equal mass.

The paper's faults are oblivious coins; Lenzen et al.'s are not.  This
extension puts a budget-``b`` adversary
(:class:`~repro.percolation.faults.AdversarialCutPercolation`) on the
``k``-ary fat-tree: it greedily removes the ``b`` edges that hurt the
canonical inter-pod probe most, after which the surviving links fail
i.i.d. at a fixed background rate.  The control arm destroys the *same
expected number of edges* obliviously — pure i.i.d. percolation with
``p`` scaled down so both arms have equal expected surviving mass —
so the table isolates *placement* as the only difference.

Expectation: the fabric's ``(k/2)²`` core-disjoint paths make it
nearly indifferent to where random damage lands, but the adversary
walks straight into the ``k/2``-edge uplink cut — at ``b = k/2`` the
probe pair is severed with certainty while the random arm barely
moves, and already at ``b = k/2 - 1`` a single background fault on
the surviving uplink finishes the job.

Spec emission: each ``(budget, placement)`` point emits **per-trial,
workload-referenced** :class:`TrialSpec` units via ``complexity_specs``
— one shared Workload per point, slim ``(trial, seed)`` tails.  Both
arms run on the chunk kernel through their model's own chunk draw:
``TablePercolation`` masks for ``random``, and for ``adversarial`` the
greedy cut — computed once per point, since it depends only on the
graph, the pair and the budget — ANDed into every row's edge coins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.clos import FatTree
from repro.percolation.faults import AdversarialCutPercolation
from repro.routers.waypoint import WaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "k",
    "budget",
    "placement",
    "p_background",
    "connected_trials",
    "median_queries",
]

#: Background i.i.d. link survival applied after the targeted removals.
P_BACKGROUND = 0.9


@dataclass(frozen=True)
class _AdversaryFactory:
    """Budget-``b`` greedy cut on the canonical pair, then i.i.d. p."""

    budget: int

    def __call__(self, graph, p, seed):
        return AdversarialCutPercolation(
            graph, p, seed=seed, budget=self.budget
        )


def _matched_p(budget: int, num_edges: int) -> float:
    """Background p scaled so the oblivious arm kills equal mass.

    The adversarial arm keeps each of the ``E - b`` surviving edges
    with probability ``P_BACKGROUND`` (expected open mass
    ``P_BACKGROUND · (E - b)``); the random arm keeps each of the
    ``E`` edges with this probability instead, matching that
    expectation exactly.
    """
    return P_BACKGROUND * (num_edges - budget) / num_edges


def run(scale: str, seed: int, runner) -> ResultTable:
    k = pick(scale, tiny=4, small=4, medium=6)
    budgets = pick(
        scale,
        tiny=[0, 1, 2],
        small=[0, 1, 2, 3, 4],
        medium=[0, 1, 2, 3, 4, 6],
    )
    trials = pick(scale, tiny=5, small=12, medium=20)

    table = ResultTable(
        "E17",
        "Fat-tree routing vs fault placement: budget-b adversary "
        "against oblivious damage of equal expected mass",
        columns=COLUMNS,
    )

    graph = FatTree(k)
    router = WaypointRouter()
    num_edges = graph.num_edges()

    def _arm(budget, placement):
        if placement == "adversarial":
            return P_BACKGROUND, _AdversaryFactory(budget)
        return _matched_p(budget, num_edges), None

    groups = [
        (
            (budget, placement),
            complexity_specs(
                graph,
                p=_arm(budget, placement)[0],
                router=router,
                trials=trials,
                seed=derive_seed(seed, "e17", budget, placement),
                model_factory=_arm(budget, placement)[1],
                key=("e17", budget, placement),
            ),
        )
        for budget in budgets
        for placement in ("adversarial", "random")
    ]
    records = runner.run_grouped(groups)

    for budget in budgets:
        for placement in ("adversarial", "random"):
            p_arm, _ = _arm(budget, placement)
            m = assemble_measurement(
                graph, p_arm, router, records[(budget, placement)]
            )
            median_q = (
                m.query_summary().median
                if m.connected_trials and m.successes()
                else float("nan")
            )
            table.add_row(
                k=k,
                budget=budget,
                placement=placement,
                p_background=p_arm,
                connected_trials=m.connected_trials,
                median_queries=median_q,
            )
    table.add_note(
        "Both arms at a given budget destroy the same expected number "
        "of links; only the placement differs.  The random arm's "
        "connected_trials stays flat across the sweep while the "
        "adversarial arm collapses to 0 by budget k/2 — the uplink "
        "cut of the canonical pair's edge switch."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E17",
        title="Adversarial budget vs oblivious damage (extension)",
        claim=(
            "Equal expected fault mass, wildly unequal effect: a "
            "budget-(k/2) adversary severs a fat-tree probe pair with "
            "certainty while oblivious damage of the same mass leaves "
            "connectivity essentially untouched."
        ),
        reference=(
            "Related work (Lenzen et al.) + Section 6 (extension)"
        ),
        run=run,
    )
)
