"""E18 (extension) — permutation traffic vs fault rate.

The paper measures one probe pair per percolated graph; real networks
carry many flows at once.  This extension offers a random
*permutation* demand — ``c`` distinct sources, each routing to a
distinct target (:class:`~repro.core.traffic.PermutationTraffic`) — on
a percolated hypercube and fat-tree, and sweeps the survival
probability ``p``:

* **routability** — the pooled fraction of offered commodities
  delivered — traces the same phase transition E1 sees for a single
  pair, but pooled over commodities it is a much lower-variance
  estimator of the same curve;
* **full delivery** (every commodity of a trial delivered) decays like
  the ``c``-th power of per-pair routability while commodity fates are
  near-independent — fat-tree uplinks, shared by design, break that
  independence first;
* **congestion** — max/mean link load over delivered geodesic-waypoint
  paths — shows the cost of the detours: as ``p`` drops toward the
  threshold, surviving links carry the traffic of their dead
  neighbours, so the max-load curve *rises* while routability still
  looks healthy.

Spec emission: each ``(graph, p)`` point emits **per-trial,
workload-referenced** :class:`TrialSpec` units via
:func:`~repro.core.traffic.traffic_specs` — one frozen Workload per
point carrying (graph, p, router, demand factory), slim ``(trial,
seed)`` tails.  Both arms ride the chunk kernel
(:mod:`repro.kernels.complexity`): the draw vectorizes per chunk and
every commodity of the chunk routes through one call of the waypoint
engine's per-row replay.
"""

from __future__ import annotations

from repro.core.traffic import (
    PermutationTraffic,
    assemble_traffic,
    traffic_specs,
)
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.clos import FatTree
from repro.graphs.hypercube import Hypercube
from repro.routers.waypoint import HypercubeWaypointRouter, WaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "graph",
    "p",
    "commodities",
    "routability",
    "full_delivery_rate",
    "median_queries_per_delivered",
    "median_max_link_load",
    "mean_link_load",
]


def _arms(scale: str) -> list[tuple]:
    dim = pick(scale, tiny=4, small=6, medium=8)
    k = pick(scale, tiny=4, small=4, medium=6)
    return [
        (Hypercube(dim), HypercubeWaypointRouter()),
        (FatTree(k), WaypointRouter()),
    ]


def run(scale: str, seed: int, runner) -> ResultTable:
    arms = _arms(scale)
    ps = pick(
        scale,
        tiny=[0.6, 0.9],
        small=[0.5, 0.65, 0.8, 0.9, 0.95],
        medium=[0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    )
    commodities = pick(scale, tiny=4, small=8, medium=16)
    trials = pick(scale, tiny=5, small=12, medium=24)

    table = ResultTable(
        "E18",
        "Permutation traffic vs fault rate: routability and congestion "
        "on hypercube and fat-tree",
        columns=COLUMNS,
    )

    demands = PermutationTraffic(commodities)
    groups = [
        (
            (graph.name, p),
            traffic_specs(
                graph,
                p=p,
                router=router,
                demands=demands,
                trials=trials,
                seed=derive_seed(seed, "e18", graph.name, p),
                key=("e18", graph.name, p),
            ),
        )
        for graph, router in arms
        for p in ps
    ]
    records = runner.run_grouped(groups)

    for graph, router in arms:
        for p in ps:
            m = assemble_traffic(graph, p, router, records[(graph.name, p)])
            table.add_row(
                graph=graph.name,
                p=p,
                commodities=commodities,
                routability=m.routability,
                full_delivery_rate=m.full_delivery_rate,
                median_queries_per_delivered=(
                    m.median_queries_per_delivered()
                ),
                median_max_link_load=m.median_max_link_load(),
                mean_link_load=m.mean_link_load(),
            )
    table.add_note(
        "Pooled routability over a c-commodity permutation traces the "
        "single-pair phase curve with far lower variance, while "
        "full-delivery probability decays roughly like its c-th power; "
        "near the threshold the surviving links inherit their dead "
        "neighbours' traffic, so median max link load rises before "
        "routability visibly falls — congestion is the earlier warning."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E18",
        title="Permutation traffic vs fault rate (extension)",
        claim=(
            "Offering a c-commodity permutation on a percolated "
            "hypercube or fat-tree, pooled routability reproduces the "
            "single-pair phase transition at lower variance, and link "
            "congestion over the delivered waypoint paths rises ahead "
            "of the routability collapse as p approaches the threshold."
        ),
        reference="Section 6 (extension); cf. E1 single-pair phase",
        run=run,
    )
)
