"""E5 / E5b — behaviour of mesh routing across ``p_c``, and the
chemical-distance input to Theorem 4 (Antal–Pisztora, Lemma 8).

E5: fixed 2-D box, ``p`` swept through ``p_c = 1/2``.  Below the
threshold the pair connects with vanishing probability and routing
degenerates; above it the cost per unit distance settles to a constant
that shrinks with ``p`` — showing Theorem 4's "whenever the giant
component exists" is sharp.

E5b: in the supercritical phase, sample connected centred pairs and
record ``D(x,y)/d(x,y)`` (chemical over euclidean-lattice distance).
Lemma 8 asserts linear scaling with an exponential tail; we report the
mean ratio ρ(p) and the fitted tail rate.

Spec emission: the routing section emits **per-trial,
workload-referenced** :class:`TrialSpec` units via ``complexity_specs``
(one shared Workload per ``p``, slim ``(trial, seed)`` tails with the
same per-trial seed derivation as before), so a single sweep point fans
out across workers and its chunks execute through the vectorized mesh
kernel.  The chemical section stays **self-contained** — one spec per
``p`` whose arguments are plain scalars — because its unit is a whole
chemical-distance sample, not a routing trial.
"""

from __future__ import annotations

from repro.analysis.phase_transition import exponential_tail_rate
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.mesh import Mesh
from repro.percolation.cluster import chemical_distance
from repro.percolation.models import TablePercolation
from repro.routers.waypoint import MeshWaypointRouter
from repro.runtime import TrialSpec
from repro.util.rng import derive_seed
from repro.util.stats import mean_ci

COLUMNS = [
    "section",
    "p",
    "pr_connected",
    "median_queries",
    "queries_per_distance",
    "ratio_mean",
    "tail_rate",
]


def _geometry(side: int):
    """The fixed near-corner pair and its lattice distance."""
    graph = Mesh(2, side)
    distance = 2 * (side - 1) - 4  # near-corner pair, fixed across p
    return graph, distance, graph.centered_pair_at_distance(distance)


def _routing_cells(m, distance: float) -> dict:
    """Fold one routing measurement into a table row (plain cells)."""
    if m.connected_trials and m.successes():
        summary = m.query_summary()
        median_q = summary.median
        per_dist = summary.median / distance
    else:
        median_q = float("nan")
        per_dist = float("nan")
    return {
        "section": "routing",
        "p": m.p,
        "pr_connected": m.connection_rate,
        "median_queries": median_q,
        "queries_per_distance": per_dist,
        "ratio_mean": float("nan"),
        "tail_rate": float("nan"),
    }


def _chemical_point(side: int, p: float, trials: int, master_seed: int):
    """One chemical-distance row; ``None`` when too few connections.

    Receives the *master* seed and derives per-trial seeds with the
    same ``("e5b", p, t)`` key the pre-runner code used, keeping the
    recorded tables bit-identical across the refactor.
    """
    graph, distance, pair = _geometry(side)
    ratios = []
    for t in range(trials):
        model = TablePercolation(
            graph, p, seed=derive_seed(master_seed, "e5b", p, t)
        )
        dist = chemical_distance(model, *pair)
        if dist is not None:
            ratios.append(dist / distance)
    if len(ratios) < 3:
        return None
    mean, _, _ = mean_ci(ratios)
    try:
        rate = exponential_tail_rate(ratios, tail_from=mean)
    except ValueError:
        rate = float("nan")
    return {
        "section": "chemical",
        "p": p,
        "pr_connected": len(ratios) / trials,
        "median_queries": float("nan"),
        "queries_per_distance": float("nan"),
        "ratio_mean": mean,
        "tail_rate": rate,
    }


def run(scale: str, seed: int, runner) -> ResultTable:
    side = pick(scale, tiny=10, small=16, medium=24)
    trials = pick(scale, tiny=10, small=24, medium=60)
    ps_routing = pick(
        scale,
        tiny=[0.4, 0.7],
        small=[0.35, 0.45, 0.5, 0.55, 0.65, 0.8],
        medium=[0.35, 0.4, 0.45, 0.5, 0.525, 0.55, 0.6, 0.7, 0.8, 0.9],
    )
    ps_chemical = pick(
        scale, tiny=[0.7], small=[0.6, 0.8], medium=[0.55, 0.65, 0.75, 0.9]
    )

    table = ResultTable(
        "E5",
        "2-D mesh across p_c: routing degenerates below, O(n) above; "
        "chemical distance is linear with exponential tail above",
        columns=COLUMNS,
    )

    graph, distance, pair = _geometry(side)
    router = MeshWaypointRouter()
    groups = [
        (
            ("routing", p),
            complexity_specs(
                graph,
                p=p,
                router=router,
                pair=pair,
                trials=trials,
                seed=derive_seed(seed, "e5", p),
                key=("e5", "routing", p),
            ),
        )
        for p in ps_routing
    ] + [
        (
            ("chemical", p),
            [
                TrialSpec(
                    key=("e5", "chemical", p),
                    fn=_chemical_point,
                    args=(side, p, trials, seed),
                )
            ],
        )
        for p in ps_chemical
    ]
    values = runner.run_grouped(groups)
    for p in ps_routing:
        m = assemble_measurement(
            graph, p, router, values[("routing", p)], pair=pair
        )
        table.add_row(**_routing_cells(m, distance))
    for p in ps_chemical:
        cells = values[("chemical", p)][0]
        if cells is not None:
            table.add_row(**cells)

    table.add_note(
        "routing: below p_c = 0.5 pr_connected collapses; above it "
        "queries_per_distance is a finite constant decreasing in p."
    )
    table.add_note(
        "chemical: ratio_mean is the Antal-Pisztora rho(p) -> 1 as p -> 1; "
        "positive tail_rate = exponential concentration (Lemma 8)."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E5",
        title="Mesh behaviour across p_c + chemical distance",
        claim=(
            "Theorem 4 is sharp at p_c: below it routing is impossible "
            "(no giant component), above it per-distance cost is O(1); "
            "chemical distance D(x,y) <= rho*d(x,y) with exponential tail."
        ),
        reference="Theorem 4, Lemma 8 (Antal-Pisztora)",
        run=run,
    )
)
