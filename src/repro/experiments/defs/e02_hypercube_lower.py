"""E2 — the hypercube local lower bound (Theorem 3(i)).

Two artifacts per ``(n, α)`` with ``α > 1/2``:

1. the **Lemma 5 certificate** for ``S`` = radius-``l`` ball around the
   target (``l ≈ n^β``, ``β < α - 1/2``): Monte-Carlo ``η`` against the
   path-counting series bound, and the resulting floor on the queries
   any local router needs to succeed with probability 1/2;
2. measured CDF points of an actual local-router suite, which must stay
   below the certificate's bound curve.

Work units: one :class:`TrialSpec` per certificate estimation (its own
Monte-Carlo loop) plus one per routing *trial*, all submitted as a
single batch — certificates and router measurements of different sweep
points interleave freely across workers.  Routing trials are
**workload-referenced** (one shared :class:`~repro.runtime.Workload`
per point); certificate units are **self-contained** — plain scalars,
the hypercube built inside the worker.
"""

from __future__ import annotations

from repro.analysis.path_counting import open_walk_probability_bound
from repro.core.complexity import assemble_measurement, complexity_specs
from repro.core.lower_bounds import ball, estimate_certificate
from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.routers.dfs import DirectedDFSRouter
from repro.routers.waypoint import WaypointRouter
from repro.runtime import TrialSpec
from repro.util.rng import derive_seed

COLUMNS = [
    "n",
    "alpha",
    "radius",
    "eta_empirical",
    "eta_theory",
    "pr_uv",
    "min_queries_p50",
    "router",
    "observed_cdf_at_t",
    "bound_at_t",
    "t",
]


def _ball_radius(n: int, alpha: float) -> int:
    # β < α - 1/2 ⇒ at these n the ball radius is 1–2.
    return max(1, round(n ** (alpha - 0.5) / 2))


def _certificate_point(n: int, alpha: float, cert_trials: int, seed: int):
    """Estimate one (n, alpha) Lemma 5 certificate (its own MC loop)."""
    graph = Hypercube(n)
    source, target = graph.canonical_pair()
    s = ball(graph, target, _ball_radius(n, alpha))
    return estimate_certificate(
        graph,
        n**-alpha,
        s=s,
        source=source,
        target=target,
        trials=cert_trials,
        seed=seed,
    )


def run(scale: str, seed: int, runner) -> ResultTable:
    ns = pick(scale, tiny=[6], small=[8, 10], medium=[10, 12])
    alphas = pick(scale, tiny=[0.7], small=[0.6, 0.7, 0.8], medium=[0.55, 0.65, 0.75, 0.85])
    cert_trials = pick(scale, tiny=80, small=300, medium=800)
    route_trials = pick(scale, tiny=6, small=14, medium=30)

    table = ResultTable(
        "E2",
        "Hypercube local lower bound: Lemma 5 certificate vs router suite",
        columns=COLUMNS,
    )
    routers = [WaypointRouter(), DirectedDFSRouter()]
    # One cube per n: every route point of an n shares its edge index.
    cubes = {n: Hypercube(n) for n in ns}

    groups = [
        (
            ("cert", n, alpha),
            [
                TrialSpec(
                    key=("e2-cert", n, alpha),
                    fn=_certificate_point,
                    args=(
                        n,
                        alpha,
                        cert_trials,
                        derive_seed(seed, "e2-cert", n, alpha),
                    ),
                )
            ],
        )
        for n in ns
        for alpha in alphas
    ] + [
        (
            ("route", n, alpha, router.name),
            complexity_specs(
                cubes[n],
                p=n**-alpha,
                router=router,
                trials=route_trials,
                seed=derive_seed(seed, "e2-route", n, alpha, router.name),
                key=("e2-route", n, alpha, router.name),
            ),
        )
        for n in ns
        for alpha in alphas
        for router in routers
    ]
    measured = runner.run_grouped(groups)

    for n in ns:
        graph = cubes[n]
        for alpha in alphas:
            p = n**-alpha
            radius = _ball_radius(n, alpha)
            cert = measured[("cert", n, alpha)][0]
            eta_theory = open_walk_probability_bound(n, radius, p)
            t_star = cert.min_queries_for(0.5)
            for router in routers:
                m = assemble_measurement(
                    graph,
                    p,
                    router,
                    measured[("route", n, alpha, router.name)],
                )
                # compare CDFs at t = half the certificate's floor
                t = max(1, int(t_star / 2)) if t_star != float("inf") else 1
                observed = (
                    m.empirical_cdf([t])[0] if m.connected_trials else float("nan")
                )
                table.add_row(
                    n=n,
                    alpha=alpha,
                    radius=radius,
                    eta_empirical=cert.eta_max,
                    eta_theory=eta_theory,
                    pr_uv=cert.pr_uv,
                    min_queries_p50=t_star,
                    router=router.name,
                    observed_cdf_at_t=observed,
                    bound_at_t=cert.bound(t),
                    t=t,
                )
    table.add_note(
        "Lemma 5: Pr[X < t] <= (t*eta + Pr[(u~v) in S]) / Pr[u~v]; "
        "observed_cdf_at_t must not exceed bound_at_t (up to MC noise)."
    )
    table.add_note(
        "eta_empirical should be dominated by eta_theory (the paper's "
        "path-counting series bound)."
    )
    return table


register(
    ExperimentSpec(
        experiment_id="E2",
        title="Hypercube local routing lower bound",
        claim=(
            "For p = n^-alpha, alpha > 1/2+beta, every local router needs "
            "2^{Omega(n^beta)} probes w.h.p.; balls look like sparse trees "
            "and penetrating them through the boundary is exponentially rare."
        ),
        reference="Theorem 3(i), Lemma 5",
        run=run,
    )
)
