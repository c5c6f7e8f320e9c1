"""E1 — the hypercube routing-complexity phase transition (Theorem 3).

Sweep ``α`` at fixed ``n`` with ``p = n^{-α}`` and measure the query
cost of local routing between antipodal vertices, conditioned on them
being connected.  The paper predicts poly(n) probes for ``α < 1/2`` and
``2^{Ω(n^β)}`` probes for ``α > 1/2`` — at finite ``n`` this appears as
the probed *fraction of all edges* jumping from ≪1 to ≈1 around
``α = 1/2``.

Routers measured: the unbounded waypoint router (the paper's Theorem
3(ii) algorithm made complete) and target-directed DFS (a natural local
strategy).  Both are complete, so conditioning is exact and success is
guaranteed; the complexity is the whole story.

Every *trial* of every ``(n, α, router)`` sweep point is its own
:class:`TrialSpec` (via :func:`repro.core.complexity.complexity_specs`),
so even a single large-``n`` point fans out across workers while
staying bit-identical to the serial run — each trial carries its own
derived seed.  Each spec is
**workload-referenced**: the point's shared context (graph, router,
pair) rides in one :class:`~repro.runtime.Workload`, written once
per chunk; the specs carry only their ``(trial, seed)`` tails.
"""

from __future__ import annotations

from repro.analysis.phase_transition import sharpest_rise
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.routers.dfs import DirectedDFSRouter
from repro.routers.waypoint import WaypointRouter
from repro.util.rng import derive_seed

COLUMNS = [
    "n",
    "alpha",
    "p",
    "router",
    "connected_trials",
    "median_queries",
    "mean_queries",
    "frac_edges_probed",
]


def run(
    scale: str,
    seed: int,
    runner,
    *,
    ns: list[int] | None = None,
    alphas: list[float] | None = None,
    trials: int | None = None,
) -> ResultTable:
    """Sweep (n, alpha, router) points; one TrialSpec per trial.

    The keyword-only ``ns`` / ``alphas`` / ``trials`` overrides replace
    the scale's sweep lists for partial or extended sweeps (the
    experiment service submits them); defaults leave the scale presets
    — and the table bytes — untouched.  Per-point seeds derive from
    ``(seed, "e1", n, alpha, router)`` only, so a point computes the
    same trials no matter which sweep asked for it.
    """
    if ns is None:
        ns = pick(scale, tiny=[6], small=[8, 10], medium=[10, 12])
    if alphas is None:
        alphas = pick(
            scale,
            tiny=[0.3, 0.7],
            small=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            medium=[0.15, 0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75, 0.85],
        )
    if trials is None:
        trials = pick(scale, tiny=6, small=14, medium=30)

    table = ResultTable(
        "E1",
        "Hypercube routing complexity across alpha (p = n^-alpha)",
        columns=COLUMNS,
    )
    router_classes = [WaypointRouter, DirectedDFSRouter]
    router_names = {cls: cls().name for cls in router_classes}
    # One cube per n: every point of an n shares its edge index.
    cubes = {n: Hypercube(n) for n in ns}

    points = [
        (n, alpha, router_cls)
        for n in ns
        for alpha in alphas
        for router_cls in router_classes
    ]
    groups = [
        (
            (n, alpha, router_names[router_cls]),
            complexity_specs(
                cubes[n],
                p=n**-alpha,
                router=router_cls(),
                trials=trials,
                seed=derive_seed(
                    seed, "e1", n, alpha, router_names[router_cls]
                ),
                key=("e1", n, alpha, router_names[router_cls]),
            ),
        )
        for n, alpha, router_cls in points
    ]
    records = runner.run_grouped(groups)

    transition_data: dict[str, list[tuple[float, float]]] = {}
    for n in ns:
        edges = cubes[n].num_edges()
        for alpha in alphas:
            for router_cls in router_classes:
                name = router_names[router_cls]
                m = assemble_measurement(
                    cubes[n],
                    n**-alpha,
                    router_cls(),
                    records[(n, alpha, name)],
                )
                if not m.connected_trials:
                    table.add_row(
                        n=n,
                        alpha=alpha,
                        p=n**-alpha,
                        router=name,
                        connected_trials=0,
                        median_queries=float("nan"),
                        mean_queries=float("nan"),
                        frac_edges_probed=float("nan"),
                    )
                    continue
                summary = m.query_summary()
                frac = summary.median / edges
                table.add_row(
                    n=n,
                    alpha=alpha,
                    p=n**-alpha,
                    router=name,
                    connected_trials=m.connected_trials,
                    median_queries=summary.median,
                    mean_queries=summary.mean,
                    frac_edges_probed=frac,
                )
                transition_data.setdefault(f"n={n},{name}", []).append(
                    (alpha, frac)
                )

    for label, pts in transition_data.items():
        if len(pts) >= 2:
            xs = [a for a, _ in pts]
            ys = [f for _, f in pts]
            table.add_note(
                f"{label}: probed-fraction rises fastest near alpha = "
                f"{sharpest_rise(xs, ys):.2f} (paper: 0.5)"
            )
    return table


register(
    ExperimentSpec(
        experiment_id="E1",
        title="Hypercube routing phase transition",
        claim=(
            "Routing complexity on H_{n,p} with p=n^-alpha transitions from "
            "poly(n) to exponential at alpha = 1/2 — not at the giant-"
            "component threshold alpha = 1."
        ),
        reference="Theorem 3",
        run=run,
    )
)
