"""Tests for repro.percolation.models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.complete import CompleteGraph
from repro.graphs.explicit import cycle_graph, path_graph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.percolation.models import (
    GnpPercolation,
    HashPercolation,
    TablePercolation,
    _pairs_from_indices,
)
from repro.util.bitops import pair_from_index
from repro.util.rng import derive_seed


class TestHashPercolation:
    def test_deterministic(self):
        g = Hypercube(6)
        m1 = HashPercolation(g, 0.5, seed=11)
        m2 = HashPercolation(g, 0.5, seed=11)
        assert all(m1.is_open(*e) == m2.is_open(*e) for e in g.edges())

    def test_orientation_independent(self):
        g = Hypercube(6)
        m = HashPercolation(g, 0.5, seed=1)
        for e in list(g.edges())[:50]:
            u, v = e
            assert m.is_open(u, v) == m.is_open(v, u)

    def test_extreme_probabilities(self):
        g = Mesh(2, 4)
        all_open = HashPercolation(g, 1.0, seed=0)
        all_closed = HashPercolation(g, 0.0, seed=0)
        for e in g.edges():
            assert all_open.is_open(*e)
            assert not all_closed.is_open(*e)

    def test_open_fraction_matches_p(self):
        g = Hypercube(9)  # 2304 edges
        p = 0.4
        m = HashPercolation(g, p, seed=5)
        edges = list(g.edges())
        frac = sum(m.is_open(*e) for e in edges) / len(edges)
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / len(edges))

    def test_seeds_decorrelate(self):
        g = Hypercube(7)
        m1 = HashPercolation(g, 0.5, seed=1)
        m2 = HashPercolation(g, 0.5, seed=2)
        agree = sum(m1.is_open(*e) == m2.is_open(*e) for e in g.edges())
        total = g.num_edges()
        assert abs(agree / total - 0.5) < 5 * math.sqrt(0.25 / total)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50)
    def test_monotone_coupling_in_p(self, seed, p1, p2):
        g = Hypercube(4)
        lo, hi = min(p1, p2), max(p1, p2)
        m_lo = HashPercolation(g, lo, seed=seed)
        m_hi = HashPercolation(g, hi, seed=seed)
        for e in g.edges():
            if m_lo.is_open(*e):
                assert m_hi.is_open(*e)

    def test_open_neighbors_subset(self):
        g = Mesh(2, 5)
        m = HashPercolation(g, 0.6, seed=3)
        for v in [(0, 0), (2, 2), (4, 4)]:
            opens = m.open_neighbors(v)
            assert set(opens) <= set(g.neighbors(v))
            assert m.open_degree(v) == len(opens)

    def test_path_is_open(self):
        g = path_graph(3)
        m = HashPercolation(g, 1.0, seed=0)
        assert m.path_is_open([0, 1, 2, 3])
        m0 = HashPercolation(g, 0.0, seed=0)
        assert not m0.path_is_open([0, 1])
        assert m0.path_is_open([2])  # empty edge set

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            HashPercolation(path_graph(2), 1.5, seed=0)


class TestTablePercolation:
    def test_matches_its_own_index(self):
        g = Mesh(2, 6)
        m = TablePercolation(g, 0.5, seed=7)
        for v in g.vertices():
            for w in g.neighbors(v):
                assert (w in m.open_neighbors(v)) == m.is_open(v, w)

    def test_extremes(self):
        g = cycle_graph(10)
        assert TablePercolation(g, 1.0, seed=0).num_open_edges() == 10
        assert TablePercolation(g, 0.0, seed=0).num_open_edges() == 0

    def test_deterministic_given_seed(self):
        g = Mesh(2, 5)
        m1 = TablePercolation(g, 0.5, seed=9)
        m2 = TablePercolation(g, 0.5, seed=9)
        assert m1.open_edges() == m2.open_edges()

    def test_open_fraction_matches_p(self):
        g = Mesh(2, 30)  # 1740 edges
        p = 0.55
        m = TablePercolation(g, p, seed=2)
        frac = m.num_open_edges() / g.num_edges()
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / g.num_edges())

    def test_adjacency_is_symmetric(self):
        g = Mesh(2, 5)
        m = TablePercolation(g, 0.5, seed=4)
        for v in g.vertices():
            for w in m.open_neighbors(v):
                assert v in m.open_neighbors(w)

    def test_isolated_vertex_has_no_open_neighbors(self):
        g = path_graph(2)
        m = TablePercolation(g, 0.0, seed=0)
        assert m.open_neighbors(1) == []


class TestGnpPercolation:
    def test_graph_is_complete(self):
        m = GnpPercolation(n=20, p=0.2, seed=0)
        assert isinstance(m.graph, CompleteGraph)
        assert m.graph.num_vertices() == 20

    def test_deterministic(self):
        m1 = GnpPercolation(n=40, p=0.1, seed=5)
        m2 = GnpPercolation(n=40, p=0.1, seed=5)
        assert m1._open == m2._open

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.05
        total = n * (n - 1) // 2
        m = GnpPercolation(n=n, p=p, seed=1)
        expected = total * p
        assert abs(m.num_open_edges() - expected) < 5 * math.sqrt(
            total * p * (1 - p)
        )

    def test_is_open_consistency(self):
        m = GnpPercolation(n=30, p=0.2, seed=3)
        for i in range(30):
            for j in m.open_neighbors(i):
                assert m.is_open(i, j)
                assert m.is_open(j, i)

    def test_self_pair_closed(self):
        m = GnpPercolation(n=10, p=1.0, seed=0)
        assert not m.is_open(3, 3)

    def test_p_one_is_complete(self):
        m = GnpPercolation(n=12, p=1.0, seed=0)
        assert m.num_open_edges() == 66
        assert sorted(m.open_neighbors(0)) == list(range(1, 12))

    def test_p_zero_is_empty(self):
        m = GnpPercolation(n=12, p=0.0, seed=0)
        assert m.num_open_edges() == 0

    def test_mean_degree_scaling(self):
        # G(n, c/n) has mean degree ~ c.
        n, c = 500, 3.0
        m = GnpPercolation(n=n, p=c / n, seed=8)
        mean_degree = 2 * m.num_open_edges() / n
        assert 2.0 < mean_degree < 4.0


def _per_pair_draw(n, p, seed):
    """The draw as decoded before vectorization: one pair per index."""
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(derive_seed(seed, "gnp-percolation"))
    count = int(rng.binomial(total_pairs, p))
    chosen: set[int] = set()
    while len(chosen) < count:
        batch = rng.integers(0, total_pairs, size=count - len(chosen))
        chosen.update(int(x) for x in batch)
    opened: set[tuple[int, int]] = set()
    adjacency: dict[int, list[int]] = {}
    for index in sorted(chosen):
        i, j = pair_from_index(index)
        opened.add((i, j))
        adjacency.setdefault(i, []).append(j)
        adjacency.setdefault(j, []).append(i)
    return opened, adjacency


class TestGnpDecode:
    """The vectorized pair decode draws exactly the per-pair draw."""

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 7, 16, 45, 64, 97, 128, 256, 511, 1024, 2047, 2048]
    )
    def test_matches_per_pair_decode(self, n):
        # p = 1 opens every pair, so it covers each index below C(n, 2);
        # above 128 vertices the sparse c/n draws and p = 0 stand in.
        ps = [0.0, min(1.0, 1.5 / n), min(1.0, 3.0 / n)]
        if n <= 128:
            ps.append(1.0)
        for p in ps:
            for seed in (0, 7):
                model = GnpPercolation(n=n, p=p, seed=seed)
                opened, adjacency = _per_pair_draw(n, p, seed)
                assert model._open == opened
                for v in range(n):
                    assert model.open_neighbors(v) == adjacency.get(v, [])

    def test_decodes_row_boundaries(self):
        # The float root is off by one near perfect squares; check the
        # first and last index of every row j up to well past n = 2048.
        rows = np.arange(2, 200_001, dtype=np.int64)
        first = rows * (rows - 1) // 2
        indices = np.concatenate([first, first + rows - 1, first - 1])
        low, high = _pairs_from_indices(indices)
        for index, i, j in zip(
            indices.tolist()[::97], low.tolist()[::97], high.tolist()[::97]
        ):
            assert (i, j) == pair_from_index(index)
        assert (low >= 0).all() and (low < high).all()
        assert (high * (high - 1) // 2 + low == indices).all()
