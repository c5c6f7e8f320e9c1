"""E16 (extension) — does fault *correlation* alone cost routing?

E14 showed node faults bite harder than edge faults at equal nominal
``p``.  This extension holds the fault *mass* fixed and sweeps the
fault *shape*: on the hypercube, outage epicenters land at a fixed
density and each grows into a graph-metric ball whose expected radius
is controlled by ``spread``
(:class:`~repro.percolation.faults.CorrelatedFaultPercolation`,
links kept at ``p=1`` so node outages are the only faults).

``spread = 0`` is the controlled baseline — every ball is a single
vertex, i.e. i.i.d. node faults at exactly the epicenter density — and
the radius draws are coupled across the sweep (one uniform per
epicenter, inverted), so raising ``spread`` grows the *same* outages
into clusters rather than resampling them.  The ``mean_dead_frac``
column reports the realised fault mass per point (recomputed from the
seeds of the specs the point emitted, bit-for-bit the models the trials
used) so the table itself shows how much of the degradation is extra
dead mass from the growing balls versus the clustering of that mass.

Spec emission: each ``spread`` point emits **per-trial,
workload-referenced** :class:`TrialSpec` units via ``complexity_specs``
— one shared Workload per point, slim ``(trial, seed)`` tails.  Chunks
run on the kernel through the model's own chunk draw: epicenter and
radius coins as vectors, every outage ball grown by one bounded
multi-source BFS (``repro info E16`` audits it as kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.percolation.faults import CorrelatedFaultPercolation
from repro.routers.waypoint import WaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "n",
    "epicenter_rate",
    "spread",
    "mean_dead_frac",
    "connected_trials",
    "median_frac_probed",
]

#: Outage epicenter density, fixed across the sweep.
EPICENTER_RATE = 0.04


@dataclass(frozen=True)
class _OutageFactory:
    """Pure node-outage clusters: links kept, probe endpoints pinned."""

    epicenter_rate: float
    spread: float

    def __call__(self, graph, p, seed):
        return CorrelatedFaultPercolation(
            graph,
            1.0,
            seed=seed,
            epicenter_rate=self.epicenter_rate,
            spread=self.spread,
            pinned=graph.canonical_pair(),
        )


def _mean_dead_frac(graph, factory, specs) -> float:
    """Realised dead fraction, averaged over the point's trials.

    Rebuilds each trial's model from the seed in its spec's ``(trial,
    seed)`` tail, so the number reported is the fault mass the trials
    actually routed through.
    """
    total = 0
    for spec in specs:
        _, seed = spec.args
        total += len(factory(graph, 1.0, seed).dead_nodes())
    return total / (len(specs) * graph.num_vertices())


def run(scale: str, seed: int, runner) -> ResultTable:
    n = pick(scale, tiny=6, small=9, medium=11)
    spreads = pick(
        scale,
        tiny=[0.0, 0.5],
        small=[0.0, 0.3, 0.5, 0.65],
        medium=[0.0, 0.2, 0.4, 0.55, 0.7],
    )
    trials = pick(scale, tiny=5, small=12, medium=20)

    table = ResultTable(
        "E16",
        "Hypercube routing under clustered node outages "
        "(fixed epicenter density, growing correlation)",
        columns=COLUMNS,
    )

    graph = Hypercube(n)
    router = WaypointRouter()
    factories = {
        spread: _OutageFactory(EPICENTER_RATE, spread)
        for spread in spreads
    }
    groups = [
        (
            spread,
            complexity_specs(
                graph,
                p=1.0,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "e16", spread),
                model_factory=factories[spread],
                key=("e16", spread),
            ),
        )
        for spread in spreads
    ]
    specs = dict(groups)
    records = runner.run_grouped(groups)

    for spread in spreads:
        m = assemble_measurement(graph, 1.0, router, records[spread])
        frac = (
            m.query_summary().median / graph.num_edges()
            if m.connected_trials and m.successes()
            else float("nan")
        )
        table.add_row(
            n=n,
            epicenter_rate=EPICENTER_RATE,
            spread=spread,
            mean_dead_frac=_mean_dead_frac(
                graph, factories[spread], specs[spread]
            ),
            connected_trials=m.connected_trials,
            median_frac_probed=frac,
        )
    table.add_note(
        "spread=0 is i.i.d. node faults at the epicenter density; the "
        "coupled radius draws mean each later row grows the same "
        "outages into balls.  Compare median_frac_probed against "
        "mean_dead_frac: clustered rows cost more routing per unit of "
        "dead mass, because a ball carves a void the router must "
        "circumnavigate while scattered faults are absorbed locally."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E16",
        title="Correlated outage clusters on the hypercube (extension)",
        claim=(
            "At fixed outage-epicenter density, growing the correlation "
            "radius degrades routing faster than the extra dead mass "
            "alone accounts for: clustered faults carve voids that "
            "cost the router more than scattered faults."
        ),
        reference="Section 6 (extension); cf. E14 node-fault baseline",
        run=run,
    )
)
