"""E13 (extension) — the "middle regime" of the hypercube on one axis.

The paper's punchline (Section 1.3): for ``1/n ≪ p ≪ n^{-1/2}`` the
giant component of ``H_{n,p}`` exists and *shares structural properties
of the hypercube* — poly(n) diameter, comparable expansion — yet "the
ability to find short paths is lost".  This experiment lines up, for a
sweep of α at fixed n:

* the giant-component fraction (structure exists),
* a 2-sweep lower bound on the giant's diameter (structure is *small*
  — polynomial, not exponential, in n),
* the conditioned routing cost of a complete local router (finding
  paths is nevertheless expensive past α = 1/2).

Each α of the sweep hands the runner three groups, in this order, all
in one ``run_grouped`` batch: the structural scan (giant fraction and
diameter bound over ``trials`` draws) as one self-contained
:class:`TrialSpec` built from plain scalars, then the local and the
oracle routing measurements as workload-referenced
:func:`~repro.core.complexity.complexity_specs` groups on one shared
``Hypercube(n)``, which the chunk kernel executes.  Keeping each α's
heavy scan next to its routing trials spreads the scans over the
batch's chunks.
"""

from __future__ import annotations

from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.percolation.cluster import approx_cluster_diameter, largest_component
from repro.percolation.models import TablePercolation
from repro.routers.bfs import BidirectionalBFSRouter
from repro.routers.waypoint import WaypointRouter
from repro.runtime import TrialSpec
from repro.util.rng import derive_seed
from repro.util.stats import mean_ci

COLUMNS = [
    "n",
    "alpha",
    "p",
    "giant_fraction",
    "giant_diameter_lb",
    "diameter_over_n",
    "median_frac_probed",
    "oracle_frac_probed",
]


def _alpha_point(n: int, alpha: float, trials: int, master_seed: int):
    """The structural scan of one α: giant fraction and diameter bound.

    Receives the *master* seed and derives the same per-draw keys the
    pre-runner code used, keeping recorded tables bit-identical.
    """
    graph = Hypercube(n)
    p = n**-alpha
    fractions = []
    diameters = []
    for t in range(trials):
        model = TablePercolation(
            graph, p, seed=derive_seed(master_seed, "e13-struct", alpha, t)
        )
        giant = largest_component(model)
        fractions.append(len(giant) / graph.num_vertices())
        if len(giant) > 1:
            anchor = next(iter(giant))
            diameters.append(approx_cluster_diameter(model, anchor, sweeps=2))
    giant_mean, _, _ = mean_ci(fractions)
    diam_mean = mean_ci(diameters)[0] if diameters else float("nan")
    return giant_mean, diam_mean


def _median_frac_probed(graph, p: float, router, records) -> float:
    """Median probes of the conditioned successes, over all edges."""
    m = assemble_measurement(graph, p, router, records)
    if m.connected_trials and m.successes():
        return m.query_summary().median / graph.num_edges()
    return float("nan")


def run(scale: str, seed: int, runner) -> ResultTable:
    n = pick(scale, tiny=7, small=10, medium=12)
    alphas = pick(
        scale,
        tiny=[0.3, 0.7],
        small=[0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        medium=[0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9],
    )
    trials = pick(scale, tiny=4, small=8, medium=16)

    table = ResultTable(
        "E13",
        "Hypercube middle regime: giant exists with poly(n) diameter, "
        "yet routing turns exhaustive past alpha = 1/2",
        columns=COLUMNS,
    )
    graph = Hypercube(n)
    # Section 6, second open question: does *oracle* access help in
    # the middle regime?  (Conjectured: no.)  The oracle router routes
    # the local router's draws.
    routers = {"local": WaypointRouter(), "oracle": BidirectionalBFSRouter()}
    groups = []
    for alpha in alphas:
        structure = TrialSpec(
            key=("e13", alpha), fn=_alpha_point, args=(n, alpha, trials, seed)
        )
        groups.append((("structure", alpha), [structure]))
        for name, router in routers.items():
            specs = complexity_specs(
                graph,
                p=n**-alpha,
                router=router,
                trials=trials,
                seed=derive_seed(seed, "e13-route", alpha),
                key=("e13", name, alpha),
            )
            groups.append(((name, alpha), specs))
    values = runner.run_grouped(groups)
    for alpha in alphas:
        p = n**-alpha
        [(giant_mean, diam_mean)] = values[("structure", alpha)]
        frac = {
            name: _median_frac_probed(graph, p, router, values[(name, alpha)])
            for name, router in routers.items()
        }
        table.add_row(
            n=n,
            alpha=alpha,
            p=p,
            giant_fraction=giant_mean,
            giant_diameter_lb=diam_mean,
            diameter_over_n=diam_mean / n,
            median_frac_probed=frac["local"],
            oracle_frac_probed=frac["oracle"],
        )
    table.add_note(
        "middle regime = rows with 0.5 < alpha < 1: giant_fraction stays "
        "macroscopic, diameter_over_n stays a small polynomial factor, "
        "but median_frac_probed approaches 1 — connectivity without "
        "routability."
    )
    table.add_note(
        "oracle_frac_probed charts Section 6's second open question "
        "(is oracle routing also exponential for 1/n << p << n^-1/2?). "
        "Bidirectional BFS pays the volume of two meeting balls: a large "
        "fraction at high p (dense middle layers), a smaller fraction "
        "deeper in the middle regime — but still far above poly(n) "
        "probes in absolute terms. A verdict on the conjecture needs an "
        "n-sweep at fixed alpha, not a p-sweep at fixed n."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E13",
        title="Hypercube middle regime (extension)",
        claim=(
            "For 1/n << p << n^-1/2 the giant component of H_{n,p} has "
            "poly(n) diameter and macroscopic size, yet local routing "
            "must probe nearly everything — structure without "
            "searchability."
        ),
        reference="Section 1.3 discussion around Theorem 3 (extension)",
        run=run,
    )
)
