"""Giant-component statistics and threshold scans.

Empirical counterparts of the connectivity results the paper builds on:
the AKS giant-component threshold of the hypercube (``p ≈ 1/n``), the
Erdős–Spencer connectivity threshold (``p = 1/2``), mesh percolation
thresholds, and pair-connectivity curves for the double tree (Lemma 6).
Experiment E11 uses these scans to place the routing transition (E1) on
the same axis as the structural transitions.

Each scan point draws its trials as one chunk of ``TablePercolation``
mask rows and answers its question for all of them at once from the
union-find kernel of :mod:`repro.kernels.bfs`: component sizes are a
count of each row's labels, full connectivity is a row labelled all
zero, and pair connectivity is the kernel's pair verdict.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.percolation.cluster import largest_component_size
from repro.percolation.models import PercolationModel, TablePercolation
from repro.util.rng import derive_seed
from repro.util.stats import mean_ci, proportion_ci

__all__ = [
    "estimate_threshold",
    "full_connectivity_scan",
    "giant_fraction",
    "giant_fraction_scan",
    "pair_connectivity_scan",
]

def giant_fraction(model: PercolationModel) -> float:
    """Return |largest open cluster| / |V|."""
    return largest_component_size(model) / model.graph.num_vertices()


def _draw(graph: Graph, p: float, seeds: list[int]):
    """``graph``'s index and the ``TablePercolation`` rows of ``seeds``."""
    # Imported here: repro.kernels imports repro.percolation.
    from repro.kernels.topology import edge_index_or_walk

    index = edge_index_or_walk(graph)
    draw = TablePercolation(graph, p, 0).chunk_draw(index, seeds)
    return index, draw.edge_masks()


def giant_fraction_scan(
    graph: Graph,
    ps: Sequence[float],
    trials: int,
    seed: int,
) -> list[dict]:
    """Estimate the giant fraction (and second-cluster fraction) per ``p``.

    Returns one row per ``p`` with mean and 95% CI over ``trials``
    independent percolations.
    """
    from repro.kernels.bfs import batched_labels

    _validate_scan(ps, trials)
    rows = []
    n = graph.num_vertices()
    for p in ps:
        seeds = [derive_seed(seed, "giant", p, t) for t in range(trials)]
        index, masks = _draw(graph, p, seeds)
        # Per row, the cluster sizes in descending order: a count of
        # each label, with a spare empty bin so that even a one-vertex
        # graph has a (zero) second cluster.
        width = n + 1
        bins = batched_labels(index, masks) + (
            np.arange(trials)[:, None] * width
        )
        sizes = np.bincount(bins.ravel(), minlength=trials * width)
        sizes = np.sort(sizes.reshape(trials, width), axis=1)[:, ::-1]
        fractions = [first / n for first in sizes[:, 0].tolist()]
        seconds = [second / n for second in sizes[:, 1].tolist()]
        mean, lo, hi = mean_ci(fractions)
        second_mean, _, _ = mean_ci(seconds)
        rows.append(
            {
                "p": p,
                "giant_fraction": mean,
                "ci_lo": lo,
                "ci_hi": hi,
                "second_fraction": second_mean,
                "trials": trials,
            }
        )
    return rows


def pair_connectivity_scan(
    graph: Graph,
    ps: Sequence[float],
    trials: int,
    seed: int,
    pair: tuple[Vertex, Vertex] | None = None,
) -> list[dict]:
    """Estimate ``Pr[u ~ v]`` per ``p`` (defaults to the canonical pair)."""
    from repro.kernels.bfs import batched_connected

    _validate_scan(ps, trials)
    u, v = pair if pair is not None else graph.canonical_pair()
    graph._require_vertex(u)
    graph._require_vertex(v)
    rows = []
    for p in ps:
        seeds = [derive_seed(seed, "pair", p, t) for t in range(trials)]
        index, masks = _draw(graph, p, seeds)
        hits = batched_connected(index, masks, index.code[u], index.code[v])
        rate, lo, hi = proportion_ci(int(hits.sum()), trials)
        rows.append(
            {"p": p, "pr_connected": rate, "ci_lo": lo, "ci_hi": hi, "trials": trials}
        )
    return rows


def full_connectivity_scan(
    graph: Graph,
    ps: Sequence[float],
    trials: int,
    seed: int,
) -> list[dict]:
    """Estimate ``Pr[G_p connected]`` per ``p``.

    Used for the hypercube's ``p = 1/2`` connectivity threshold
    (Erdős–Spencer), shown alongside the giant and routing transitions.
    """
    from repro.kernels.bfs import batched_labels

    _validate_scan(ps, trials)
    rows = []
    for p in ps:
        seeds = [derive_seed(seed, "conn", p, t) for t in range(trials)]
        index, masks = _draw(graph, p, seeds)
        # Connected iff every vertex carries the smallest code, 0.
        hits = int((batched_labels(index, masks) == 0).all(axis=1).sum())
        rate, lo, hi = proportion_ci(hits, trials)
        rows.append(
            {"p": p, "pr_connected": rate, "ci_lo": lo, "ci_hi": hi, "trials": trials}
        )
    return rows


def estimate_threshold(
    rows: Sequence[dict], column: str, target: float = 0.5
) -> float:
    """Return the ``p`` where ``column`` first crosses ``target``.

    Linear interpolation between the bracketing scan points.  Rows must
    be sorted by ``p`` and the column monotone-ish; raises if the curve
    never crosses.
    """
    prev = None
    for row in rows:
        value = row[column]
        if prev is not None:
            p0, y0 = prev
            p1, y1 = row["p"], value
            if (y0 - target) * (y1 - target) <= 0 and y0 != y1:
                return p0 + (target - y0) * (p1 - p0) / (y1 - y0)
        prev = (row["p"], value)
    raise ValueError(f"column {column!r} never crosses {target}")


def _validate_scan(ps: Sequence[float], trials: int) -> None:
    if not ps:
        raise ValueError("scan needs at least one probability")
    if trials < 1:
        raise ValueError("scan needs at least one trial")
