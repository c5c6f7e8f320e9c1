"""Empirical curve analysis: thresholds, exponents, tails.

The paper's claims are asymptotic; at finite size they appear as shapes
of measured curves.  This module extracts those shapes:

* where a monotone curve crosses a level (threshold location, used to
  place the routing transition of E1 against ``α = 1/2``);
* where a curve rises fastest (transition sharpness);
* power-law exponents with bootstrap CIs (the Θ(n^{3/2}) of E10, the
  O(n) of E4/E8);
* exponential tail rates (the Antal–Pisztora chemical-distance tail of
  E5b, Theorem 4's segment-work tail).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.util.rng import derive_seed
from repro.util.stats import linear_fit, loglog_slope

__all__ = [
    "crossing_point",
    "exponential_tail_rate",
    "scaling_exponent",
    "sharpest_rise",
]


def crossing_point(
    xs: Sequence[float], ys: Sequence[float], target: float
) -> float:
    """Return the interpolated ``x`` where ``ys`` first crosses ``target``.

    Raises :class:`ValueError` if it never does.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two sequences of equal length >= 2")
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        if (y0 - target) * (y1 - target) <= 0 and y0 != y1:
            return x0 + (target - y0) * (x1 - x0) / (y1 - y0)
    raise ValueError(f"curve never crosses {target}")


def sharpest_rise(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Return the midpoint ``x`` of the steepest segment of the curve.

    A cheap change-point locator for threshold scans.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two sequences of equal length >= 2")
    best_slope = -math.inf
    best_mid = (xs[0] + xs[1]) / 2
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        if x1 == x0:
            continue
        slope = abs(y1 - y0) / (x1 - x0)
        if slope > best_slope:
            best_slope = slope
            best_mid = (x0 + x1) / 2
    return best_mid


def scaling_exponent(
    ns: Sequence[float],
    qs: Sequence[float],
    n_boot: int = 500,
    seed: int = 0,
) -> dict[str, float]:
    """Fit ``q ≈ C · n^k``; return exponent, r² and a bootstrap 95% CI.

    The exponent and r² are :func:`~repro.util.stats.loglog_slope`'s.
    The bootstrap resamples (n, q) pairs, which is appropriate when each
    pair is an independent aggregate.  All ``n_boot`` resamples are
    drawn as one ``(n_boot, m)`` index matrix from a generator seeded
    with ``derive_seed(seed, "scaling-exponent")``; row ``b`` is the
    ``b``-th of ``n_boot`` successive ``size=m`` draws from that
    generator.  Each row's least-squares slope in log–log space is
    taken in closed form, ``Σ(x−x̄)(y−ȳ) / Σ(x−x̄)²``, for every row
    at once.  A row whose ``n`` values are all equal has no slope and
    is dropped; the CI is the 2.5% and 97.5% quantiles of the kept
    slopes, or ``(k, k)`` when none is kept.
    """
    k, r2 = loglog_slope(ns, qs)
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(qs, dtype=float))
    rng = np.random.default_rng(derive_seed(seed, "scaling-exponent"))
    idx = rng.integers(0, len(x), size=(n_boot, len(x)))
    xs, ys = x[idx], y[idx]
    kept = (xs != xs[:, :1]).any(axis=1)
    dx = xs[kept] - xs[kept].mean(axis=1, keepdims=True)
    dy = ys[kept] - ys[kept].mean(axis=1, keepdims=True)
    slopes = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
    lo, hi = (
        (float(np.quantile(slopes, 0.025)), float(np.quantile(slopes, 0.975)))
        if slopes.size
        else (k, k)
    )
    return {"exponent": k, "r2": r2, "ci_lo": lo, "ci_hi": hi}


def exponential_tail_rate(values: Sequence[float], tail_from: float) -> float:
    """Fit ``Pr[X > x] ≈ C·e^{-λx}`` on the tail; return the rate ``λ``.

    Uses the empirical survival function at the observed points above
    ``tail_from``.  Needs at least 3 tail points; raises otherwise.
    A positive λ confirms exponential decay (Theorem 4's Lemma 8 usage).
    """
    arr = np.sort(np.asarray(values, dtype=float))
    tail = arr[arr >= tail_from]
    if len(tail) < 3:
        raise ValueError("need at least 3 tail observations")
    n = len(arr)
    # survival at each tail point: fraction strictly greater
    xs, log_surv = [], []
    for x in np.unique(tail):
        surv = float(np.sum(arr > x)) / n
        if surv > 0:
            xs.append(float(x))
            log_surv.append(math.log(surv))
    if len(xs) < 2:
        raise ValueError("tail too degenerate to fit")
    slope, _, _ = linear_fit(xs, log_surv)
    return -slope
