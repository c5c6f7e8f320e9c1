"""E11 — the hypercube's structural transitions, for context.

Places the paper's routing transition (``p = n^{-1/2}``, E1) on the
same axis as the classical structural ones it *doesn't* coincide with:

* giant component at ``p ≈ 1/n`` (Ajtai–Komlós–Szemerédi);
* full connectivity at ``p = 1/2`` (Erdős–Spencer).

The punchline of the paper is precisely that these three thresholds are
distinct: a giant component with poly(n) diameter exists for
``1/n ≪ p ≪ n^{-1/2}``, yet no local router can find paths efficiently.

The two scans of each ``n`` (giant fraction, full connectivity) are
independent :class:`TrialSpec` units, each its own ``run_grouped``
group in one batch, so they parallelise across dimensions and
sections.  Their arguments are plain scalars, so each unit stays
self-contained: the heavy objects are built inside the worker, and
there is no shared payload to ship.
"""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ResultTable
from repro.experiments.spec import ExperimentSpec, pick
from repro.graphs.hypercube import Hypercube
from repro.percolation.giant import full_connectivity_scan, giant_fraction_scan
from repro.percolation.thresholds import (
    hypercube_connectivity_threshold,
    hypercube_giant_threshold,
    hypercube_routing_threshold,
)
from repro.runtime import TrialSpec
from repro.util.rng import derive_seed

COLUMNS = ["section", "n", "p", "p_times_n", "value", "ci_lo", "ci_hi"]


def _giant_scan(n: int, trials: int, seed: int):
    """Giant-component fraction rows for one dimension."""
    base = hypercube_giant_threshold(n)
    ps = [0.5 * base, base, 1.5 * base, 2 * base, 4 * base]
    rows = giant_fraction_scan(Hypercube(n), ps=ps, trials=trials, seed=seed)
    return [
        {
            "section": "giant_fraction",
            "n": n,
            "p": row["p"],
            "p_times_n": row["p"] * n,
            "value": row["giant_fraction"],
            "ci_lo": row["ci_lo"],
            "ci_hi": row["ci_hi"],
        }
        for row in rows
    ]


def _connectivity_scan(n: int, trials: int, seed: int):
    """Pr[connected] rows for one dimension."""
    ps = [0.35, 0.45, 0.5, 0.55, 0.65]
    rows = full_connectivity_scan(
        Hypercube(n), ps=ps, trials=trials, seed=seed
    )
    return [
        {
            "section": "pr_connected",
            "n": n,
            "p": row["p"],
            "p_times_n": row["p"] * n,
            "value": row["pr_connected"],
            "ci_lo": row["ci_lo"],
            "ci_hi": row["ci_hi"],
        }
        for row in rows
    ]


def run(scale: str, seed: int, runner) -> ResultTable:
    ns = pick(scale, tiny=[8], small=[10, 12], medium=[12, 14])
    trials = pick(scale, tiny=5, small=10, medium=20)

    table = ResultTable(
        "E11",
        "Hypercube structural thresholds: giant (~1/n) and "
        "connectivity (1/2) vs the routing transition (n^-1/2)",
        columns=COLUMNS,
    )
    sections = (
        ("giant", _giant_scan, "e11-giant"),
        ("conn", _connectivity_scan, "e11-conn"),
    )
    groups = []
    for n in ns:
        for section, fn, seed_tag in sections:
            args = (n, trials, derive_seed(seed, seed_tag, n))
            scan = TrialSpec(key=("e11", section, n), fn=fn, args=args)
            groups.append(((section, n), [scan]))
    scans = runner.run_grouped(groups)
    for n in ns:
        for section, _, _ in sections:
            [rows] = scans[(section, n)]
            for row in rows:
                table.add_row(**row)
        base = hypercube_giant_threshold(n)
        table.add_note(
            f"n={n}: giant threshold 1/n = {base:.4f}; routing threshold "
            f"n^-0.5 = {hypercube_routing_threshold(n):.4f}; connectivity "
            f"threshold = {hypercube_connectivity_threshold():.2f} — three "
            "distinct transitions."
        )
    return table


register(
    ExperimentSpec(
        experiment_id="E11",
        title="Hypercube structural vs routing thresholds",
        claim=(
            "The routing transition (n^-1/2) lies strictly between the "
            "giant-component threshold (1/n) and the connectivity "
            "threshold (1/2): connectivity does not imply routability."
        ),
        reference="Section 1.2/1.3 (AKS, Erdos-Spencer) + Theorem 3",
        run=run,
    )
)
