"""Shared low-level utilities.

This package holds the substrate pieces that everything else builds on:

* :mod:`repro.util.rng` — deterministic, keyed randomness.  All stochastic
  behaviour in the library flows through these functions, which makes every
  experiment exactly reproducible from a single integer seed.
* :mod:`repro.util.bitops` — bit-level helpers for hypercube vertices and
  triangular pair indexing for ``G(n, p)``.
* :mod:`repro.util.stats` — summary statistics, confidence intervals and
  scaling-exponent fits used by the experiment harness.
* :mod:`repro.util.tables` — plain-text/CSV result tables.
"""

from repro.util.rng import derive_seed, edge_coin, uniform_for

__all__ = [
    "derive_seed",
    "edge_coin",
    "uniform_for",
]
