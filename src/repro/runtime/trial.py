"""The work-unit protocol between experiment definitions and runners.

A :class:`TrialSpec` is one self-contained unit of Monte-Carlo work —
typically a *single trial* of a ``measure_complexity`` sweep point (one
percolation draw + routing attempt) or one structural sweep, carrying
its own derived seed.  Executing it yields a :class:`TrialResult`
pairing the spec's ``key`` with the computed value.

Specs come in two shapes:

* **self-contained** — ``fn(*args, **kwargs)`` with everything inline.
  Right for units whose arguments are a few scalars (a dimension, a
  retention level, a seed) and the heavy objects are built inside the
  unit.
* **workload-referenced** — the shared context (graph, router,
  percolation factory, conditioning config) lives in one frozen
  :class:`~repro.runtime.workload.Workload` common to the whole group,
  and the spec carries only its per-trial tail
  (``key``, ``args=(trial, trial_seed)``).  A spec pickles its workload
  by value; pickle writes each workload once per chunk, and a worker
  resolves it to one live copy per content id — see
  :mod:`repro.runtime.workload`.

Either way ``fn`` must be a module-level callable and all arguments
plain picklable data (ints, floats, strings, tuples, instances of
module-level classes — not closures or lambdas).  Values returned by
the unit should likewise be plain data (dicts/lists of primitives) so
they pickle cheaply on the way back.
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.runtime.workload import Workload

__all__ = ["TrialExecutionError", "TrialResult", "TrialSpec"]


class TrialExecutionError(RuntimeError):
    """A trial raised (or its worker died) inside a runner.

    ``key`` identifies the failing :class:`TrialSpec`; ``detail``
    carries the original error rendered as text — message plus the
    worker-side traceback, since the original exception object (and its
    ``__traceback__``) may not survive the trip back from a worker
    process.
    """

    def __init__(self, key: tuple, detail: str) -> None:
        super().__init__(key, detail)
        self.key = key
        self.detail = detail

    def __str__(self) -> str:
        return f"trial {self.key!r} failed: {self.detail}"


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable unit of work.

    ``key`` is a stable label (e.g. ``("e1", n, alpha, router)``) used
    for error reports and for matching results back to sweep points.
    Exactly one of ``fn`` (self-contained) or ``workload`` (shared
    payload) must be set; with a workload the call is
    ``workload.fn(*workload.args, *args, **workload.kwargs, **kwargs)``.
    """

    key: tuple
    fn: Callable[..., Any] | None = None
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    workload: Workload | None = None

    def __post_init__(self) -> None:
        if (self.fn is None) == (self.workload is None):
            raise ValueError(
                "a TrialSpec needs exactly one of fn= or workload="
            )

    @property
    def workload_id(self) -> str | None:
        """The referenced workload's content id (None if self-contained)."""
        return None if self.workload is None else self.workload.workload_id

    def execute(self) -> TrialResult:
        """Run the unit, wrapping any failure in TrialExecutionError."""
        try:
            if self.workload is not None:
                value = self.workload.call(*self.args, **dict(self.kwargs))
            else:
                value = self.fn(*self.args, **dict(self.kwargs))
        except TrialExecutionError:
            # An already-wrapped error keeps its original key.
            raise
        except Exception as exc:
            raise TrialExecutionError(
                self.key,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            ) from exc
        return TrialResult(key=self.key, value=value)


@dataclass(frozen=True)
class TrialResult:
    """The value computed by one :class:`TrialSpec`."""

    key: tuple
    value: Any
