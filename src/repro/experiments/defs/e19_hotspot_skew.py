"""E19 (extension) — hotspot skew: congestion at a fixed fault rate.

E18 sweeps the fault rate under balanced traffic; this extension holds
the percolation fixed (``p`` comfortably above the threshold) and
sweeps the *traffic shape* instead.  A
:class:`~repro.core.traffic.HotspotTraffic` demand sends each of ``c``
commodities either to one shared hotspot (probability ``skew``) or to
a balanced partner, so ``skew = 0`` is permutation-like traffic and
``skew = 1`` is pure incast.

The load-concentration argument is mechanical: every delivered hotspot
commodity must cross one of the hotspot's ``deg`` incident links, so
max link load grows at least like ``skew * delivered / deg`` — the
fat-tree's uplink design cannot help against incast, because the
bottleneck is the destination's own ports, not the core.  Probe cost
per delivered commodity, by contrast, barely moves: finding a path is
a percolation question, not a congestion question, and the oracle
model carries no queueing.  Separating those two curves — congestion
scales with skew while routing complexity does not — is exactly what
the demand-matrix refactor exists to show.

Spec emission: each ``skew`` point emits **per-trial,
workload-referenced** :class:`TrialSpec` units via
:func:`~repro.core.traffic.traffic_specs` — one frozen Workload per
point, slim ``(trial, seed)`` tails — and rides the chunk kernel
(:mod:`repro.kernels.complexity`) end to end.
"""

from __future__ import annotations

from repro.core.traffic import (
    HotspotTraffic,
    assemble_traffic,
    traffic_specs,
)
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.clos import FatTree
from repro.routers.waypoint import WaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "k",
    "p",
    "skew",
    "commodities",
    "routability",
    "median_max_link_load",
    "mean_link_load",
    "median_queries_per_delivered",
]

#: Survival probability — fixed, comfortably above the fat-tree threshold.
P_FIXED = 0.9


def run(scale: str, seed: int, runner) -> ResultTable:
    k = pick(scale, tiny=4, small=4, medium=6)
    skews = pick(
        scale,
        tiny=[0.0, 1.0],
        small=[0.0, 0.25, 0.5, 0.75, 1.0],
        medium=[0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0],
    )
    commodities = pick(scale, tiny=4, small=8, medium=16)
    trials = pick(scale, tiny=5, small=12, medium=24)

    table = ResultTable(
        "E19",
        "Hotspot skew sweep at fixed fault rate: congestion "
        "concentrates, probe cost does not",
        columns=COLUMNS,
    )

    graph = FatTree(k)
    router = WaypointRouter()
    groups = [
        (
            skew,
            traffic_specs(
                graph,
                p=P_FIXED,
                router=router,
                demands=HotspotTraffic(commodities, skew),
                trials=trials,
                seed=derive_seed(seed, "e19", skew),
                key=("e19", skew),
            ),
        )
        for skew in skews
    ]
    records = runner.run_grouped(groups)

    for skew in skews:
        m = assemble_traffic(graph, P_FIXED, router, records[skew])
        table.add_row(
            k=k,
            p=P_FIXED,
            skew=skew,
            commodities=commodities,
            routability=m.routability,
            median_max_link_load=m.median_max_link_load(),
            mean_link_load=m.mean_link_load(),
            median_queries_per_delivered=m.median_queries_per_delivered(),
        )
    table.add_note(
        "Every delivered hotspot commodity crosses one of the "
        "hotspot's own ports, so median max link load climbs with "
        "skew toward delivered/deg — incast beats the fabric at its "
        "destination, not in the core — while probes per delivered "
        "commodity stay flat: path-finding cost is a percolation "
        "property of the fixed p, not of the traffic shape."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E19",
        title="Hotspot skew sweep (extension)",
        claim=(
            "At a fixed survival rate on a fat-tree, skewing a "
            "c-commodity demand toward one hotspot concentrates link "
            "load onto the hotspot's incident ports — max link load "
            "grows with skew — while probe cost per delivered "
            "commodity stays governed by the percolation alone."
        ),
        reference="Section 6 (extension); cf. E18, E15",
        run=run,
    )
)
