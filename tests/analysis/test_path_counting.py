"""Tests for repro.analysis.path_counting — the Theorem 3(i) argument."""

import numpy as np
import pytest

from repro.analysis.path_counting import (
    ak_bound,
    open_walk_probability_bound,
    walk_count,
)
from repro.core.lower_bounds import ball
from repro.graphs.explicit import cycle_graph
from repro.graphs.hypercube import Hypercube


class TestWalkCount:
    def test_zero_length(self):
        g = cycle_graph(5)
        assert walk_count(g, g.vertices(), 0, 0, 0) == 1
        assert walk_count(g, g.vertices(), 0, 1, 0) == 0

    def test_single_step(self):
        g = cycle_graph(5)
        assert walk_count(g, g.vertices(), 0, 1, 1) == 1

    def test_counts_walks_not_paths(self):
        # cycle of 4: walks of length 2 from 0 back to 0: via 1 or via 3
        g = cycle_graph(4)
        assert walk_count(g, g.vertices(), 0, 0, 2) == 2

    def test_region_restriction(self):
        g = cycle_graph(6)
        # only the arc {0,1,2,3} allowed: the walk 0→5→4→3 is barred
        assert walk_count(g, {0, 1, 2, 3}, 0, 3, 3) == 1
        assert walk_count(g, g.vertices(), 0, 3, 3) == 2

    def test_parity_on_hypercube(self):
        g = Hypercube(4)
        # walks between vertices of even distance must have even length
        assert walk_count(g, g.vertices(), 0, 3, 3) == 0
        assert walk_count(g, g.vertices(), 0, 3, 2) == 2

    def test_validation(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            walk_count(g, {0, 1}, 0, 3, 2)
        with pytest.raises(ValueError):
            walk_count(g, g.vertices(), 0, 1, -1)


class TestAkBoundDominates:
    """The heart of Theorem 3(i): |A_k| ≤ n^k l^{2k} l! — verified exactly."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_bound_dominates_exact_count(self, n, k):
        g = Hypercube(n)
        l = 2
        target = 0
        s = ball(g, target, l)
        # boundary vertex at distance exactly l from target
        x = (1 << l) - 1  # bits 0..l-1 set → distance l from 0
        exact = walk_count(g, s, target, x, l + 2 * k)
        assert exact <= ak_bound(n, l, k), (exact, ak_bound(n, l, k))

    def test_k0_exact_value(self):
        # paths of length l using each coordinate once: exactly l! walks
        # inside the ball (all orderings of the l bit flips stay in S)
        n, l = 5, 3
        g = Hypercube(n)
        s = ball(g, 0, l)
        x = (1 << l) - 1
        assert walk_count(g, s, 0, x, l) == ak_bound(n, l, 0)


class TestOpenWalkProbabilityBound:
    def test_convergent_closed_form(self):
        n, l, p = 100, 3, 0.01
        lead = (l * p) ** l
        ratio = n * l * l * p * p
        assert open_walk_probability_bound(n, l, p) == pytest.approx(
            lead / (1 - ratio)
        )

    def test_caps_at_one(self):
        assert open_walk_probability_bound(4, 3, 1.0) == 1.0

    def test_decreasing_in_alpha_regime(self):
        # l = 4 = n^(1/3): the series converges for alpha > 1/3 + 1/2;
        # the bound should be << 1 and shrink as alpha grows.
        n = 64
        l = 4
        values = [
            open_walk_probability_bound(n, l, n**-a)
            for a in (0.85, 0.9, 0.95)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-3

    def test_dominates_true_connection_probability(self):
        # Monte-Carlo: Pr[(v ~ x) in S] for the hypercube ball must stay
        # below the series bound.
        from repro.kernels import batched_labels, edge_index_for
        from repro.percolation.models import TablePercolation

        n, l = 6, 2
        p = 0.25
        g = Hypercube(n)
        s = ball(g, 0, l)
        x = 0b11
        trials = 400
        # One TablePercolation row per seed; closing every edge that
        # leaves S leaves each vertex's cluster inside S.
        index = edge_index_for(g)
        masks = TablePercolation(g, p, 0).chunk_draw(index, range(trials))
        masks = masks.edge_masks()
        inside = np.isin(np.asarray(index.verts), list(s))
        masks &= inside[index.edge_u] & inside[index.edge_v]
        labels = batched_labels(index, masks)
        cluster = labels[:, index.code[0]]
        hits = int((labels[:, index.code[x]] == cluster).sum())
        estimate = hits / trials
        bound = open_walk_probability_bound(n, l, p)
        assert estimate <= bound + 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            open_walk_probability_bound(0, 2, 0.5)
        with pytest.raises(ValueError):
            open_walk_probability_bound(4, 2, 1.5)
