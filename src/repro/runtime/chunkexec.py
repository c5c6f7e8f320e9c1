"""The batch-kernel seam: execute chunks through vectorized kernels.

Every runner ultimately executes a *chunk* — consecutive specs, often
all referencing one workload.  This module is where that chunk meets a
vectorized kernel: :func:`execute_specs` is the one executable shape of
a chunk (``SerialRunner``, the process pool's workers and the cluster
nodes' pools all call it), and it routes each maximal run of
kernel-eligible same-workload specs through one compiled chunk runner,
falling back to ``spec.execute()`` for everything else.  Behaviour is
the invariant: a chunk runner must produce records bit-identical to the
per-trial loop, so which path executed is unobservable in the results
— only in the wall clock.

Capability is per *workload*: the one chunk compiler,
:func:`repro.kernels.complexity.compile_trial_chunk`, inspects one
workload's frozen context and returns a chunk runner or ``None`` (any
workload whose ``fn`` is neither ``run_trial`` nor
``run_traffic_trial`` is declined), and the verdict is kept on that
workload object (:func:`chunk_runner` returns it), as
:func:`~repro.kernels.topology.edge_index_for` keeps an index on its
graph.  A runner therefore lives exactly as long as its workload: a
serial run's specs, a serve job, or a worker's live copy
(:mod:`repro.runtime.workload`).  No process-wide cache outlives them,
so a finished experiment's graphs are freed with its specs.  The
compiler is imported on the first workload compiled, so the serial
import path stays numpy-free.

``$REPRO_KERNEL=off`` (the ``kernel`` row of :mod:`repro.settings`)
disables the seam entirely (every spec executes per trial) — the
escape hatch if a kernel is ever suspected of diverging; results must
not change, only speed.

:data:`TALLY` counts what executed in this process, in specs: the
kernel/per-trial split as :func:`execute_specs` makes it, and the
stages a chunk runner ran trial by trial.  ``repro info <EXP>`` prints
its difference over a run, so a nested runner or a kernel that
declines a batch at run time counts as it ran.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable

from repro.runtime.trial import TrialResult, TrialSpec
from repro.runtime.workload import Workload
from repro.settings import resolve

__all__ = [
    "TALLY",
    "chunk_runner",
    "execute_specs",
]

#: Workload instance attribute holding its compiled chunk runner (or
#: the ``None`` verdict) — process-local, never pickled.
_RUNNER_ATTR = "_chunk_runner"

#: What executed in this process, in specs: ``"kernel"`` and
#: ``"per-trial"`` as :func:`execute_specs` ran them; then, counted by
#: the chunk runners for kernel specs, ``"conditioning per-trial"`` and
#: ``"routing per-trial"`` where that stage took the per-trial loop,
#: and ``"commodity-batched"`` where one engine routed the commodities
#: of demand trials.  No lock: a process executes one batch at a time
#: (runners are not safe for concurrent batches).
TALLY: Counter[str] = Counter()


def chunk_runner(workload: Workload) -> Callable | None:
    """Return the compiled chunk runner for ``workload``, or ``None``.

    A chunk runner is called as ``runner(keys, tails)`` and returns one
    value per tail, bit-identical to ``workload.call(*tail)``.
    Compilation happens once per workload object, on first use: the
    runner is kept on the workload, so every chunk of a sweep point —
    the shape of every sweep — reuses it, and it is freed with the
    workload.  Two workloads with equal content compile separately;
    their graphs' shared index is built once per graph either way.
    """
    if not resolve("kernel"):
        return None
    state = workload.__dict__
    if _RUNNER_ATTR not in state:
        # Deferred so `import repro.runtime` stays numpy-free.
        from repro.kernels.complexity import compile_trial_chunk

        state[_RUNNER_ATTR] = compile_trial_chunk(workload)
    return state[_RUNNER_ATTR]


def _eligible_tail(spec: TrialSpec) -> bool:
    # The kernel tail contract: a slim `(trial, seed)` pair and nothing
    # else, the shape `complexity_specs`-style emitters produce.
    return (
        spec.workload is not None
        and not spec.kwargs
        and len(spec.args) == 2
        and isinstance(spec.args[0], int)
        and isinstance(spec.args[1], int)
    )


def _spec_runner(spec: TrialSpec, enabled: bool) -> Callable | None:
    """The chunk runner of a kernel-eligible spec, else ``None``."""
    if enabled and _eligible_tail(spec):
        return chunk_runner(spec.workload)
    return None


def execute_specs(specs: Iterable[TrialSpec]) -> list[TrialResult]:
    """Execute a chunk, batching kernel-eligible runs; order preserved.

    Maximal runs of consecutive specs that share a kernel-supporting
    workload and carry ``(trial, seed)`` tails execute through one
    chunk-runner call; every other spec executes itself.  The result
    list matches ``[spec.execute() for spec in specs]`` exactly.
    """
    specs = list(specs)
    results: list[TrialResult | None] = [None] * len(specs)
    enabled = resolve("kernel")
    i = 0
    while i < len(specs):
        spec = specs[i]
        runner = _spec_runner(spec, enabled)
        if runner is None:
            TALLY["per-trial"] += 1
            results[i] = spec.execute()
            i += 1
            continue
        j = i
        workload_id = spec.workload_id
        while (
            j < len(specs)
            and specs[j].workload_id == workload_id
            and _eligible_tail(specs[j])
        ):
            j += 1
        group = specs[i:j]
        TALLY["kernel"] += len(group)
        keys = [s.key for s in group]
        tails = [tuple(s.args) for s in group]
        values = runner(keys, tails)
        for offset, (key, value) in enumerate(zip(keys, values)):
            results[i + offset] = TrialResult(key=key, value=value)
        i = j
    return results  # type: ignore[return-value]
