"""Tests for repro.util.rng — determinism, coupling, distribution."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import (
    MAX_SEED,
    derive_seed,
    edge_coin,
    uniform_for,
    uniform_hasher,
    uniforms_for,
)

KEYS = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=0, max_value=2**20), st.integers()),
)


class TestUniformFor:
    def test_deterministic(self):
        assert uniform_for(1, "x") == uniform_for(1, "x")

    def test_in_unit_interval(self):
        for k in range(100):
            u = uniform_for(3, k)
            assert 0.0 <= u < 1.0

    def test_seed_changes_value(self):
        values = {uniform_for(seed, "edge", (0, 1)) for seed in range(32)}
        assert len(values) == 32

    def test_key_changes_value(self):
        values = {uniform_for(5, "edge", (0, i)) for i in range(64)}
        assert len(values) == 64

    def test_key_structure_matters(self):
        # (1, 2) vs (12,) vs "12" must be distinguishable.
        assert uniform_for(0, (1, 2)) != uniform_for(0, (12,))
        assert uniform_for(0, (1, 2)) != uniform_for(0, "12")

    def test_mean_near_half(self):
        n = 4000
        total = sum(uniform_for(9, "m", i) for i in range(n))
        # standard error ~ 1/sqrt(12 n) ≈ 0.0046; 5 sigma tolerance
        assert abs(total / n - 0.5) < 5 / math.sqrt(12 * n)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            uniform_for(-1, "x")
        with pytest.raises(ValueError):
            uniform_for(MAX_SEED + 1, "x")

    @given(st.integers(min_value=0, max_value=MAX_SEED), KEYS)
    def test_property_stable_and_bounded(self, seed, key):
        u = uniform_for(seed, key)
        assert u == uniform_for(seed, key)
        assert 0.0 <= u < 1.0

    @given(st.integers(min_value=0, max_value=MAX_SEED))
    def test_on_demand_hasher_equals_batch_and_scalar(self, seed):
        # The lazy threshold search hashes one key at a time; its
        # floats must be the batch sweep's and uniform_for's, bit for
        # bit (ties in the uint64 -> float rounding included).
        keys = [("edge", (i, i + 1)) for i in range(64)]
        encoded = [repr(key).encode("utf-8") for key in keys]
        level = uniform_hasher(seed)
        lazy = [level(data) for data in encoded]
        assert lazy == uniforms_for(seed, encoded).tolist()
        assert lazy == [uniform_for(seed, *key) for key in keys]

    def test_on_demand_hasher_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            uniform_hasher(-1)
        with pytest.raises(ValueError):
            uniform_hasher(MAX_SEED + 1)


class TestEdgeCoin:
    def test_p_zero_always_closed(self):
        assert not any(edge_coin(1, (0, i), 0.0) for i in range(200))

    def test_p_one_always_open(self):
        assert all(edge_coin(1, (0, i), 1.0) for i in range(200))

    def test_frequency_matches_p(self):
        n = 5000
        p = 0.3
        opens = sum(edge_coin(2, ("e", i), p) for i in range(n))
        # 5 sigma binomial tolerance
        assert abs(opens / n - p) < 5 * math.sqrt(p * (1 - p) / n)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            edge_coin(0, (0, 1), -0.1)
        with pytest.raises(ValueError):
            edge_coin(0, (0, 1), 1.1)

    @given(
        st.integers(min_value=0, max_value=MAX_SEED),
        KEYS,
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_monotone_coupling(self, seed, edge, p1, p2):
        """Raising p can only open edges, never close them."""
        lo, hi = min(p1, p2), max(p1, p2)
        if edge_coin(seed, edge, lo):
            assert edge_coin(seed, edge, hi)

    def test_coin_independent_of_p_representation(self):
        # open iff uniform < p: boundary exactness
        u = uniform_for(7, "edge", ("a", "b"))
        assert edge_coin(7, ("a", "b"), u) is False  # strict inequality
        assert edge_coin(7, ("a", "b"), min(1.0, u + 1e-12)) is True


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_distinct_children(self):
        children = {derive_seed(1, "trial", i) for i in range(128)}
        assert len(children) == 128

    def test_child_in_range(self):
        for i in range(50):
            child = derive_seed(99, i)
            assert 0 <= child <= MAX_SEED

    def test_does_not_collide_with_uniform_keyspace(self):
        # derive_seed prefixes its key, so deriving with key "edge" must
        # not be the same stream as edge coins.
        child = derive_seed(3, "edge", (0, 1))
        assert child / 2**64 != uniform_for(3, "edge", (0, 1))

    @given(
        st.integers(min_value=0, max_value=MAX_SEED),
        st.integers(min_value=0, max_value=MAX_SEED),
    )
    def test_property_valid_seed(self, seed, k):
        child = derive_seed(seed, k)
        assert 0 <= child <= MAX_SEED


class TestSeedDerivationContract:
    """The (experiment, sweep-point, trial) contract behind repro.runtime.

    Every TrialSpec's seed is ``derive_seed(master, experiment,
    *point_labels, trial)`` (the point seed derived once, then
    ``("complexity", t)`` per trial).  Parallel correctness rests on
    those seeds being (a) stable — the same triple always yields the
    same child, wherever it is evaluated — and (b) distinct across
    triples, so no two work units share a random stream.
    """

    TRIPLES = st.tuples(
        st.sampled_from(["e1", "e9", "a4", "complexity", "coupled"]),
        st.tuples(
            st.integers(min_value=0, max_value=64),
            # strictly positive: 0.0 == -0.0 but repr-keys differently
            st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        ),
        st.integers(min_value=0, max_value=10_000),
    )

    @given(st.integers(min_value=0, max_value=MAX_SEED), TRIPLES, TRIPLES)
    def test_distinct_across_triples(self, master, a, b):
        ka = derive_seed(master, a[0], *a[1], a[2])
        kb = derive_seed(master, b[0], *b[1], b[2])
        assert (ka == kb) == (a == b)

    @given(st.integers(min_value=0, max_value=MAX_SEED), TRIPLES)
    def test_stable_under_recomputation(self, master, triple):
        experiment, point, trial = triple
        point_seed = derive_seed(master, experiment, *point)
        child = derive_seed(point_seed, "complexity", trial)
        # re-derive from scratch, as a worker process would
        again = derive_seed(
            derive_seed(master, experiment, *point), "complexity", trial
        )
        assert child == again
        assert 0 <= child <= MAX_SEED

    def test_exhaustive_distinctness_small_grid(self):
        # A dense grid of the index triples an actual suite run uses.
        seen = set()
        for experiment in ("e1", "e3", "e7"):
            for n in (6, 8, 10):
                for alpha in (0.2, 0.5, 0.8):
                    point_seed = derive_seed(0, experiment, n, alpha)
                    for trial in range(30):
                        seen.add(derive_seed(point_seed, "complexity", trial))
        assert len(seen) == 3 * 3 * 3 * 30

    def test_trial_seed_independent_of_sibling_count(self):
        # Adding trials to a sweep point must not move existing streams.
        point_seed = derive_seed(7, "e1", 8, 0.3)
        first_ten = [
            derive_seed(point_seed, "complexity", t) for t in range(10)
        ]
        assert [
            derive_seed(point_seed, "complexity", t) for t in range(100)
        ][:10] == first_ten
