"""Summary statistics, confidence intervals and scaling fits.

The experiment harness reduces raw per-trial measurements (query counts,
success indicators, path lengths) to the summaries that the result
tables and their notes report.  Everything here is deterministic given
its inputs; the bootstrap takes an explicit seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_seed

__all__ = [
    "Summary",
    "bootstrap_ci",
    "geometric_mean",
    "linear_fit",
    "loglog_slope",
    "mean_ci",
    "proportion_ci",
    "quantile",
    "summarize",
]

#: z-value for a 95% two-sided normal interval.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one numeric sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p90: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        """Return the summary as a plain dict (for result tables)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "p90": self.p90,
            "max": self.maximum,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Return a :class:`Summary` of ``values``.

    Raises :class:`ValueError` on an empty sample (an experiment that
    produced no data is a bug, not a statistic).
    """
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    arr = np.asarray(values, dtype=float)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        p90=float(np.quantile(arr, 0.9)),
        maximum=float(arr.max()),
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-quantile of ``values`` (linear interpolation)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if len(values) == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def geometric_mean(values: Sequence[float]) -> float:
    """Return the geometric mean of strictly positive ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a geometric mean of an empty sample")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.log(arr).mean()))


def mean_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """Return ``(mean, lo, hi)`` — a 95% normal CI for the mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a CI from an empty sample")
    m = float(arr.mean())
    if arr.size == 1:
        return m, m, m
    half = _Z95 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return m, m - half, m + half


def proportion_ci(successes: int, trials: int) -> tuple[float, float, float]:
    """Return ``(p_hat, lo, hi)`` — a 95% Wilson interval for a proportion.

    Wilson is preferred over the Wald interval because experiment success
    rates are frequently near 0 or 1, where Wald degenerates.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = _Z95
    p_hat = successes / trials
    denom = 1 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials**2))
        / denom
    )
    return p_hat, max(0.0, centre - half), min(1.0, centre + half)


def bootstrap_ci(
    values: Sequence[float],
    statistic=np.mean,
    n_boot: int = 2000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Return ``(stat, lo, hi)`` — a 95% percentile-bootstrap interval.

    ``statistic`` is any reduction of a 1-D array to a scalar (default:
    the mean).  Deterministic given ``seed``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(derive_seed(seed, "bootstrap"))
    stats = np.empty(n_boot)
    for b in range(n_boot):
        resample = rng.choice(arr, size=arr.size, replace=True)
        stats[b] = statistic(resample)
    point = float(statistic(arr))
    return point, float(np.quantile(stats, 0.025)), float(
        np.quantile(stats, 0.975)
    )


def linear_fit(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float, float]:
    """Least-squares fit ``y ≈ slope*x + intercept``.

    Returns ``(slope, intercept, r_squared)``.  Needs at least two
    distinct x values.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("xs and ys must have equal length")
    if x.size < 2 or np.all(x == x[0]):
        raise ValueError("need at least two distinct x values to fit")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def loglog_slope(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float]:
    """Fit ``y ≈ C * x**k`` by regression in log–log space.

    Returns ``(k, r_squared)``.  This is how the harness extracts scaling
    exponents — e.g. the Θ(n^{3/2}) oracle-routing law of Theorem 11
    appears as a slope ≈ 1.5.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires strictly positive data")
    slope, _, r2 = linear_fit(np.log(x), np.log(y))
    return slope, r2
