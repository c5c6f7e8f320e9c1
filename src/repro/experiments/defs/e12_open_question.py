"""E12 — Section 6's open question, probed empirically.

"Does there exist a constant-degree, log-diameter family where the
percolation and routing phase transitions coincide (away from 1)?"
The paper names de Bruijn, shuffle-exchange and butterfly graphs as
candidates.  For each family we scan ``p`` and record, on the same
grid: the giant-component fraction (structural transition) and the
conditioned local-routing cost as a fraction of all edges (routing
transition), using the complete directed-DFS router.

This does not settle the question — it charts where the two empirical
transitions sit at accessible sizes.

Work units: one :class:`TrialSpec` per family for the structural scan
(one multi-``p`` sweep over shared draws) plus one per routing trial of
every ``(family, p)`` point, all in a single batch across workers.
Both shapes are **workload-referenced**: the graphs — including the
explicit ``RandomMatchingCycle``, whose stored matching is the fattest
payload in the suite — ride in shared :class:`Workload`\\ s, so a
chunk writes each graph once, not once per trial.
"""

from __future__ import annotations

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.butterfly import Butterfly
from repro.graphs.cycle_matching import RandomMatchingCycle
from repro.graphs.debruijn import DeBruijn
from repro.graphs.shuffle_exchange import ShuffleExchange
from repro.percolation.giant import giant_fraction_scan
from repro.routers.bfs import LocalBFSRouter
from repro.runtime import TrialSpec, Workload
from repro.util.rng import derive_seed

COLUMNS = [
    "family",
    "vertices",
    "p",
    "giant_fraction",
    "pr_pair_connected",
    "median_frac_probed",
]


def run(scale: str, seed: int, runner) -> ResultTable:
    order = pick(scale, tiny=4, small=6, medium=8)
    trials = pick(scale, tiny=5, small=10, medium=20)
    ps = pick(
        scale,
        tiny=[0.4, 0.7],
        small=[0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        medium=[0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85],
    )

    families = [
        DeBruijn(order),
        ShuffleExchange(order),
        Butterfly(max(2, order - 2)),
        # cycle + random matching (Bollobás–Chung): constant degree,
        # log diameter — the intro's "short paths hard to find" family
        RandomMatchingCycle(2**order, seed=derive_seed(seed, "e12-topology")),
    ]
    table = ResultTable(
        "E12",
        "Open question: percolation vs routing transitions on "
        "constant-degree log-diameter families",
        columns=COLUMNS,
    )
    router = LocalBFSRouter()
    scans = {
        graph.name: Workload(fn=giant_fraction_scan, args=(graph,))
        for graph in families
    }
    groups = [
        (
            ("giant", graph.name),
            [
                TrialSpec(
                    key=("e12-giant", graph.name),
                    kwargs={
                        "ps": tuple(ps),
                        "trials": trials,
                        "seed": derive_seed(seed, "e12-giant", graph.name),
                    },
                    workload=scans[graph.name],
                )
            ],
        )
        for graph in families
    ] + [
        (
            ("route", graph.name, p),
            complexity_specs(
                graph,
                p=p,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "e12-route", graph.name, p),
                key=("e12-route", graph.name, p),
            ),
        )
        for graph in families
        for p in ps
    ]
    measured = runner.run_grouped(groups)

    for graph in families:
        edges = graph.num_edges()
        giant_rows = measured[("giant", graph.name)][0]
        for p, giant_row in zip(ps, giant_rows):
            m = assemble_measurement(
                graph, p, router, measured[("route", graph.name, p)]
            )
            frac = (
                m.query_summary().median / edges
                if m.connected_trials and m.successes()
                else float("nan")
            )
            table.add_row(
                family=graph.name,
                vertices=graph.num_vertices(),
                p=p,
                giant_fraction=giant_row["giant_fraction"],
                pr_pair_connected=m.connection_rate,
                median_frac_probed=frac,
            )
    table.add_note(
        "A family answers the open question positively if "
        "median_frac_probed stays O(polylog/edges) down to the same p "
        "where giant_fraction vanishes.  BFS as the router gives an upper "
        "bound on the probed fraction; constant-degree graphs make "
        "BFS-within-the-cluster cheap, unlike the hypercube."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E12",
        title="Open question: de Bruijn / shuffle-exchange / butterfly",
        claim=(
            "Open: is there a constant-degree, log-diameter family whose "
            "percolation and routing transitions coincide away from 1? "
            "(Charted empirically, not settled.)"
        ),
        reference="Section 6",
        run=run,
    )
)
