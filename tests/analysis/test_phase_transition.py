"""Tests for repro.analysis.phase_transition."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro.analysis.phase_transition as phase_transition
import repro.util.stats as stats
from repro.analysis.phase_transition import (
    crossing_point,
    exponential_tail_rate,
    scaling_exponent,
    sharpest_rise,
)
from repro.experiments.registry import get_experiment
from repro.util.rng import derive_seed
from repro.util.stats import loglog_slope


def _loop_scaling_exponent(ns, qs, n_boot=500, seed=0):
    """The reference: one ``size=m`` draw and one ``polyfit`` per resample."""
    k, r2 = loglog_slope(ns, qs)
    pairs = np.array(list(zip(ns, qs)), dtype=float)
    rng = np.random.default_rng(derive_seed(seed, "scaling-exponent"))
    slopes = []
    for _ in range(n_boot):
        idx = rng.integers(0, len(pairs), size=len(pairs))
        sample = pairs[idx]
        xs, ys = sample[:, 0], sample[:, 1]
        if len(set(xs.tolist())) < 2:
            continue
        slopes.append(loglog_slope(xs, ys)[0])
    lo, hi = (
        (float(np.quantile(slopes, 0.025)), float(np.quantile(slopes, 0.975)))
        if slopes
        else (k, k)
    )
    return {"exponent": k, "r2": r2, "ci_lo": lo, "ci_hi": hi}


class TestCrossingPoint:
    def test_linear_interpolation(self):
        assert crossing_point([0, 1], [0, 1], 0.25) == pytest.approx(0.25)

    def test_first_crossing_wins(self):
        xs = [0, 1, 2, 3]
        ys = [0, 1, 0, 1]
        assert crossing_point(xs, ys, 0.5) == pytest.approx(0.5)

    def test_never_crosses(self):
        with pytest.raises(ValueError):
            crossing_point([0, 1], [0.8, 0.9], 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            crossing_point([0], [1], 0.5)


class TestSharpestRise:
    def test_sigmoid_center(self):
        xs = list(np.linspace(-3, 3, 61))
        ys = [1 / (1 + math.exp(-4 * x)) for x in xs]
        assert abs(sharpest_rise(xs, ys)) < 0.2

    def test_step_function(self):
        xs = [0, 1, 2, 3]
        ys = [0, 0, 1, 1]
        assert sharpest_rise(xs, ys) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpest_rise([1], [1])


class TestScalingExponent:
    def test_recovers_power_law(self):
        ns = [16, 32, 64, 128, 256]
        qs = [7.0 * n**1.5 for n in ns]
        fit = scaling_exponent(ns, qs)
        assert fit["exponent"] == pytest.approx(1.5, abs=1e-9)
        assert fit["r2"] == pytest.approx(1.0)

    def test_ci_contains_truth_with_noise(self):
        rng = np.random.default_rng(0)
        ns = [2**k for k in range(4, 11)]
        qs = [n**2.0 * math.exp(rng.normal(0, 0.05)) for n in ns]
        fit = scaling_exponent(ns, qs, seed=1)
        assert fit["ci_lo"] <= 2.0 <= fit["ci_hi"] + 0.2

    def test_deterministic(self):
        ns = [10, 20, 40]
        qs = [5, 12, 22]
        assert scaling_exponent(ns, qs, seed=4) == scaling_exponent(
            ns, qs, seed=4
        )

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4096),
                st.floats(min_value=1e-3, max_value=1e6),
            ),
            min_size=2,
            max_size=8,
        ),
        n_boot=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @example(points=[(4, 3.0), (8, 5.0)], n_boot=0, seed=0)
    @example(points=[(4, 3.0), (8, 5.0)], n_boot=1, seed=0)
    @example(points=[(4, 3.0), (8, 5.0)], n_boot=500, seed=7)
    @example(points=[(4, 3.0), (4, 4.0), (8, 5.0)], n_boot=500, seed=1)
    def test_matches_the_per_resample_loop(self, points, n_boot, seed):
        ns = [n for n, _ in points]
        qs = [q for _, q in points]
        assume(len(set(ns)) >= 2)
        got = scaling_exponent(ns, qs, n_boot=n_boot, seed=seed)
        want = _loop_scaling_exponent(ns, qs, n_boot=n_boot, seed=seed)
        assert got.keys() == want.keys()
        assert (got["exponent"], got["r2"]) == (want["exponent"], want["r2"])
        # The closed-form slope sums in another order than polyfit; an
        # exponent near 0 has no relative scale, hence the 1e-9 floor.
        for key in ("ci_lo", "ci_hi"):
            assert math.isclose(
                got[key], want[key], rel_tol=1e-9, abs_tol=1e-9
            ), key

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=8),
        n_boot=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_index_matrix_is_the_sequential_draws(self, m, n_boot, seed):
        # The closed form keeps the loop's resamples only while one
        # (n_boot, m) draw equals n_boot successive size=m draws.
        matrix = np.random.default_rng(seed).integers(0, m, size=(n_boot, m))
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, m, size=m) for _ in range(n_boot)]
        assert np.array_equal(
            matrix, np.array(rows, dtype=matrix.dtype).reshape(n_boot, m)
        )

    def test_fits_one_line_per_call(self, monkeypatch):
        # Only the point estimate is a least-squares fit; a fit per
        # resample would bring back the cost of the bootstrap loop.
        fits, polyfits = [], []
        real_fit, real_polyfit = stats.linear_fit, np.polyfit

        def counted_fit(*args, **kwargs):
            fits.append(args)
            return real_fit(*args, **kwargs)

        def counted_polyfit(*args, **kwargs):
            polyfits.append(args)
            return real_polyfit(*args, **kwargs)

        monkeypatch.setattr(stats, "linear_fit", counted_fit)
        monkeypatch.setattr(phase_transition, "linear_fit", counted_fit)
        monkeypatch.setattr(np, "polyfit", counted_polyfit)
        scaling_exponent([16, 32, 64, 128, 256], [3.0, 7.0, 15.0, 33.0, 70.0])
        assert (len(fits), len(polyfits)) == (1, 1)


class TestDefScalingFits:
    def test_e3_small_exponent_notes_are_pinned(self):
        table = get_experiment("E3")(scale="small", seed=0)
        suffix = (
            " — polynomial, as Theorem 3(ii) predicts (k = O((1-2a)^-1))"
        )
        assert [n for n in table.notes if n.startswith("alpha=")] == [
            "alpha=0.1: queries ~ n^3.29 (r²=0.861)" + suffix,
            "alpha=0.2: queries ~ n^2.73 (r²=0.992)" + suffix,
            "alpha=0.3: queries ~ n^4.10 (r²=0.999)" + suffix,
            "alpha=0.4: queries ~ n^4.75 (r²=0.997)" + suffix,
        ]


class TestExponentialTailRate:
    def test_recovers_rate(self):
        rng = np.random.default_rng(2)
        lam = 0.5
        sample = rng.exponential(1 / lam, size=4000)
        rate = exponential_tail_rate(sample, tail_from=1.0)
        assert rate == pytest.approx(lam, rel=0.25)

    def test_heavier_tail_has_smaller_rate(self):
        rng = np.random.default_rng(3)
        light = rng.exponential(1.0, size=3000)
        heavy = rng.exponential(3.0, size=3000)
        assert exponential_tail_rate(heavy, 1.0) < exponential_tail_rate(
            light, 1.0
        )

    def test_needs_tail_points(self):
        with pytest.raises(ValueError):
            exponential_tail_rate([1.0, 1.0], tail_from=5.0)
