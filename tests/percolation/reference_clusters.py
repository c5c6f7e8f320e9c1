"""Per-trial reference loops for the cluster estimators.

Each function answers its question the direct way — one
``TablePercolation`` model per trial, a Python BFS over its open
neighbours — the way the library did before the union-find kernel of
``repro.kernels.bfs`` took over.  The pair threshold keeps the
Kruskal sweep the lazy minimax search replaced.  The parity suite
(``test_cluster_kernels.py``) holds the library's answers to these,
``==`` for ``==``.
"""

from __future__ import annotations

from collections import deque

from repro.core.lower_bounds import Lemma5Certificate, cut_edges
from repro.kernels.topology import edge_index_or_walk
from repro.percolation.cluster import (
    component_sizes,
    connected,
    largest_component_size,
)
from repro.percolation.coupled import _merges
from repro.percolation.models import TablePercolation
from repro.util.rng import derive_seed
from repro.util.stats import mean_ci, proportion_ci


def reachable_within(model, start, region) -> set:
    """Vertices of ``region`` connected to ``start`` inside it."""
    if start not in region:
        return set()
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in model.open_neighbors(x):
            if y in region and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def certificate(graph, p, s, source, target, trials, seed, cut=None):
    """``estimate_certificate``, one model and two BFSs per trial."""
    cut_list = list(cut) if cut is not None else cut_edges(graph, s)
    s_endpoints = [a if a in s else b for a, b in cut_list]
    edge_hits = [0] * len(cut_list)
    uv_in_s = uv = 0
    for t in range(trials):
        model = TablePercolation(graph, p, derive_seed(seed, "lemma5", t))
        cluster = reachable_within(model, target, s)
        for i, endpoint in enumerate(s_endpoints):
            if endpoint in cluster:
                edge_hits[i] += 1
        if source in cluster:
            uv_in_s += 1
        if connected(model, source, target):
            uv += 1
    eta = [hits / trials for hits in edge_hits]
    return Lemma5Certificate(
        eta_max=max(eta),
        eta_mean=sum(eta) / len(eta),
        pr_uv_in_s=uv_in_s / trials,
        pr_uv=uv / trials,
        trials=trials,
        cut_size=len(cut_list),
    )


def giant_fraction_scan(graph, ps, trials, seed) -> list[dict]:
    """Giant and second-cluster fractions from per-trial cluster BFSs."""
    n = graph.num_vertices()
    rows = []
    for p in ps:
        fractions, seconds = [], []
        for t in range(trials):
            trial_seed = derive_seed(seed, "giant", p, t)
            sizes = component_sizes(TablePercolation(graph, p, trial_seed))
            fractions.append(sizes[0] / n if sizes else 0.0)
            seconds.append(sizes[1] / n if len(sizes) > 1 else 0.0)
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


def _rate_rows(ps, trials, hits_at) -> list[dict]:
    rows = []
    for p in ps:
        rate, lo, hi = proportion_ci(hits_at(p), trials)
        rows.append(
            {"p": p, "pr_connected": rate, "ci_lo": lo, "ci_hi": hi,
             "trials": trials}
        )
    return rows


def pair_connectivity_scan(graph, ps, trials, seed, pair=None) -> list[dict]:
    """``Pr[u ~ v]`` per ``p`` from per-trial ``connected`` BFSs."""
    u, v = pair if pair is not None else graph.canonical_pair()
    return _rate_rows(
        ps,
        trials,
        lambda p: sum(
            connected(
                TablePercolation(graph, p, derive_seed(seed, "pair", p, t)),
                u,
                v,
            )
            for t in range(trials)
        ),
    )


def full_connectivity_scan(graph, ps, trials, seed) -> list[dict]:
    """``Pr[G_p connected]`` per ``p``: is the largest cluster all of G?"""
    n = graph.num_vertices()
    return _rate_rows(
        ps,
        trials,
        lambda p: sum(
            largest_component_size(
                TablePercolation(graph, p, derive_seed(seed, "conn", p, t))
            )
            == n
            for t in range(trials)
        ),
    )


def sweep_pair_threshold(graph, seed, u, v) -> float:
    """The Kruskal sweep: union edges by level until ``u`` meets ``v``."""
    if u == v:
        return 0.0
    index = edge_index_or_walk(graph)
    ru, rv = index.code[u], index.code[v]
    for level, root, absorbed, _ in _merges(index, seed):
        if ru == absorbed:
            ru = root
        if rv == absorbed:
            rv = root
        if ru == rv:
            return level
    return float("inf")
