"""Experiment specifications and scale presets.

Every experiment (see the registry in :mod:`repro.experiments.registry`
for the index) is a pure function ``run(scale, seed, runner=...) →
ResultTable`` plus metadata tying it back to the paper.  Scales keep one
code path for tests (``tiny``), benchmarks (``small``) and full
reports (``medium``).

Every definition expresses its trial sweeps through
:mod:`repro.runtime`: the spec threads the caller's
:class:`~repro.runtime.TrialRunner` into ``run``, so ``repro run E1
--workers 8`` parallelises any experiment in the suite.  (The legacy
two-argument ``run(scale, seed)`` signature was removed once the last
definition migrated.)
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.experiments.results import ResultTable

__all__ = ["SCALES", "ExperimentSpec", "pick"]

#: Recognised scale names, cheap → expensive.
SCALES = ("tiny", "small", "medium")


def pick(scale: str, *, tiny, small, medium):
    """Return the per-scale parameter value, validating the scale name.

    >>> pick("small", tiny=1, small=2, medium=3)
    2
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return {"tiny": tiny, "small": small, "medium": medium}[scale]


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata + runner for one experiment."""

    experiment_id: str
    title: str
    claim: str  # the paper's statement being reproduced
    reference: str  # theorem/lemma/section in the paper
    run: Callable[..., ResultTable] = field(repr=False)

    def __call__(
        self, scale: str = "small", seed: int = 0, runner=None, **overrides
    ) -> ResultTable:
        """Run the experiment; returns its :class:`ResultTable`.

        ``runner`` is a :class:`repro.runtime.TrialRunner` deciding how
        the experiment's trial sweep executes (``None`` → resolve the
        backend and worker count from ``$REPRO_BACKEND`` /
        ``$REPRO_WORKERS``, defaulting to serial).  A runner the spec
        creates for itself is closed before returning — pools and
        cluster connections never outlive the call; pass an explicit
        runner to share it across experiments.

        ``overrides`` forward to the definition's keyword-only sweep
        parameters, for definitions that expose any (e.g. E1's
        ``alphas=``); the experiment service uses them to submit
        partial or extended sweeps.  A definition without matching
        parameters raises ``TypeError``, as any keyword call would.
        """
        if scale not in SCALES:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {SCALES}"
            )
        if runner is None:
            from repro.runtime import make_runner

            with make_runner() as default_runner:
                table = self.run(
                    scale, seed, runner=default_runner, **overrides
                )
        else:
            table = self.run(scale, seed, runner=runner, **overrides)
        if not isinstance(table, ResultTable):
            raise TypeError(
                f"experiment {self.experiment_id} returned {type(table)!r}"
            )
        return table
