"""E20 (extension) — traffic capacity under structured fault models.

E15 compares fault *structures* — i.i.d. link, node, correlated,
adversarial — through the lens of one probe pair.  This extension asks
the capacity question instead: offer the same ``c``-commodity
permutation demand under each of E15's four fault models (identical
factories, hence identical nominal fault mass at each ``p``) and
measure what the fabric still *carries*:

* **routability** — the pooled delivered fraction — is where fault
  structure should separate hardest: a permutation touches ``2c``
  distinct endpoints, so the pinned-pair escape hatch that saved E15's
  node arm does not generalise — only the canonical pair is pinned,
  and every other commodity endpoint can lose its switch outright;
* **full delivery** punishes correlated outages the most, since one
  void in the wrong pod kills several commodities at once while
  leaving the pooled routability barely dented;
* **congestion** (median max link load) shows the adversarial arm's
  signature: the targeted uplink cuts squeeze the surviving core links
  into carrying detoured traffic from every pod at once.

Spec emission: each ``(p, fault model)`` point emits **per-trial,
workload-referenced** :class:`TrialSpec` units via
:func:`~repro.core.traffic.traffic_specs` — one frozen Workload per
point, slim ``(trial, seed)`` tails.  The ``iid`` and ``node`` arms
ride the chunk kernel (E15's
:func:`~repro.kernels.complexity.node_model_kernel` registration
covers the draw here too); ``correlated`` and ``adversarial`` carry
unregistered factories and take the per-trial fallback.
"""

from __future__ import annotations

from repro.core.traffic import (
    PermutationTraffic,
    assemble_traffic,
    traffic_specs,
)
from repro.experiments.defs.e15_clos_faults import _factories
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.clos import FatTree
from repro.routers.waypoint import WaypointRouter
from repro.runtime import SerialRunner
from repro.util.rng import derive_seed

COLUMNS = [
    "k",
    "p",
    "fault_model",
    "commodities",
    "routability",
    "full_delivery_rate",
    "median_max_link_load",
]


def run(scale: str, seed: int, runner=None) -> ResultTable:
    runner = runner if runner is not None else SerialRunner()
    k = pick(scale, tiny=4, small=4, medium=6)
    ps = pick(
        scale,
        tiny=[0.6, 0.9],
        small=[0.6, 0.75, 0.9],
        medium=[0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    )
    commodities = pick(scale, tiny=4, small=8, medium=16)
    trials = pick(scale, tiny=5, small=12, medium=24)

    table = ResultTable(
        "E20",
        "Fat-tree traffic capacity under i.i.d. vs node vs correlated "
        "vs adversarial faults",
        columns=COLUMNS,
    )

    graph = FatTree(k)
    router = WaypointRouter()
    demands = PermutationTraffic(commodities)
    factories = _factories(k)
    groups = [
        (
            (p, fault_model),
            traffic_specs(
                graph,
                p=p,
                router=router,
                demands=demands,
                trials=trials,
                seed=derive_seed(seed, "e20", p, fault_model),
                model_factory=factories[fault_model],
                key=("e20", p, fault_model),
            ),
        )
        for p in ps
        for fault_model in factories
    ]
    records = runner.run_grouped(groups)

    for p in ps:
        for fault_model in factories:
            m = assemble_traffic(
                graph, p, router, records[(p, fault_model)]
            )
            table.add_row(
                k=k,
                p=p,
                fault_model=fault_model,
                commodities=commodities,
                routability=m.routability,
                full_delivery_rate=m.full_delivery_rate,
                median_max_link_load=m.median_max_link_load(),
            )
    table.add_note(
        "Capacity inverts E15's pair-wise ranking: with 2c endpoints "
        "in play the node arm loses its pinned-pair advantage — any "
        "non-canonical endpoint can lose its switch and take its "
        "commodity with it — correlated voids kill co-located "
        "commodities together (full delivery collapses first), and "
        "the adversarial uplink cuts show up as congestion, squeezing "
        "detoured traffic through the surviving core links."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E20",
        title="Traffic capacity under structured faults (extension)",
        claim=(
            "Under equal nominal fault mass on a fat-tree, a "
            "c-commodity permutation separates fault structures that "
            "single-pair probing ranks differently: node faults hit "
            "unpinned endpoints directly, correlated voids destroy "
            "full delivery fastest, and adversarial cuts convert into "
            "congestion on the surviving core."
        ),
        reference="Section 6 (extension); cf. E15 fault models",
        run=run,
    )
)
