"""Trial-execution runtime: run Monte-Carlo sweeps serially or in parallel.

Every experiment estimates its curves by averaging many independent
trials.  This package factors the *execution* of those trials out of the
experiment definitions: a definition emits
:class:`~repro.runtime.trial.TrialSpec` work units and hands them to a
:class:`~repro.runtime.runner.TrialRunner`, which returns one
:class:`~repro.runtime.trial.TrialResult` per spec **in submission
order**, however the work was actually scheduled.

Per-trial granularity
---------------------

The schedulable unit is a **single Monte-Carlo trial** — one
percolation draw plus (at most) one routing attempt
(:func:`repro.core.complexity.run_trial`), or one union–find /
structural sweep.  Every definition in the registry emits its trials
through :meth:`TrialRunner.run_grouped`: all per-trial specs of all
sweep points go into one flat batch, the pool chunks that batch across
workers, and the values come back re-grouped per sweep point, in trial
order, ready for :func:`repro.core.complexity.assemble_measurement`.
Two consequences:

* a *single* large sweep point — the large-``n`` regime the paper's
  Theorem 1/Lemma 5 bounds target, where one point dominates the wall
  clock — fans out across the whole pool instead of serialising;
* ``--workers N`` covers the entire suite; there is no legacy
  ``run(scale, seed)`` path left.

Shared workloads
----------------

Per-trial parameters are a few scalars; the measurement *context* —
graph, router, percolation factory, conditioning config — is shared by
every trial of a sweep point.  The runtime therefore splits the two:

* a :class:`~repro.runtime.workload.Workload` freezes the shared
  context once per group, content-addressed by a stable id (a digest of
  its pickled contents) that keys the result cache, and keeps its
  compiled chunk runner on itself;
* each :class:`TrialSpec` references the workload and carries only its
  per-trial tail — ``key``, ``(trial, trial_seed)``.

A chunk's pickle is the whole wire form of its work on every backend:
specs pickle their workload by value, pickle's memo writes each one
once per chunk, and a worker keeps one live copy per content id, so a
workload's compiled runner and its graph's cached index, built by one
chunk, serve the next.

**Pool reuse:** :class:`ProcessPoolRunner` keeps its pool alive across
``run``/``run_grouped`` calls, so consecutive batches do not pay
process start-up.  ``close()`` (or a ``with`` block) reaps the workers.

The cluster backend carries the same chunks over TCP:
:class:`~repro.runtime.cluster.ClusterRunner` streams chunks to each
worker node and results back.  Nodes execute chunks on their own
process pools (``repro worker serve --node-workers``) and announce the
pool's width, which sets how many chunks each holds in flight.
Heartbeat supervision (``$REPRO_HEARTBEAT``) requeues the chunks of a
node that disconnects *or* silently wedges to the survivors.

The batch-kernel seam
---------------------

The schedulable unit is a trial; the *executable* unit on any worker is
a chunk of consecutive specs.  :mod:`repro.runtime.chunkexec` lets a
whole chunk execute through **one vectorized kernel call** when its
workload supports it: the one chunk compiler
(:func:`repro.kernels.complexity.compile_trial_chunk`) turns one
workload's frozen context into a chunk runner (or declines), and
:func:`~repro.runtime.chunkexec.execute_specs` — called by
``SerialRunner``, the process pool's workers and the cluster nodes'
pools alike — batches each maximal run of kernel-eligible
same-workload specs through it, falling back to ``spec.execute()`` for
everything else.  It tallies which path each spec took
(:data:`~repro.runtime.chunkexec.TALLY`); ``repro info <EXP>`` reports
that split per experiment.

The contract is **bit-identical records**: a kernel changes the wall
clock, never a result — parallel parity, the golden trial-split
reference and the kernel parity suite (``tests/kernels/``) all enforce
it.  The shipped kernels live in :mod:`repro.kernels` (batched
percolation masks + chunk-wide BFS over implicit topologies) and load
lazily on the first chunk.  ``$REPRO_KERNEL=off`` switches the seam
off — same results, per-trial speed.

Runner backends
---------------

:func:`make_runner` (:mod:`repro.runtime.backends`) builds one of a
closed set of backends — ``auto`` (the serial/process split, the
default), ``serial``, ``process`` or ``cluster`` — selected by
argument, else the ``REPRO_BACKEND`` environment variable.  The
contract every backend honours (determinism versus ``SerialRunner``,
``run_grouped`` flattening, workloads appearing in later batches,
crash/traceback propagation, chunking edge cases) is enforced by the
conformance suite in ``tests/runtime/test_backend_conformance.py``,
which runs over every backend.

The cluster backend's hand-shake, wire framing and fault tolerance are
documented in :mod:`repro.runtime.cluster`; worker nodes start with
``repro worker serve`` and are named by ``$REPRO_CLUSTER_NODES``, or
spawned on localhost automatically when that is unset.

Seed-derivation contract
------------------------

Parallel execution changes *when* and *where* a trial runs, never *what*
it computes.  That guarantee rests on three rules:

1. Every random decision inside a trial is a pure function of the seed
   carried by its :class:`TrialSpec` — derived up front as
   ``derive_seed(master, experiment, *sweep_point_labels)`` then
   ``derive_seed(point_seed, "complexity", trial)`` (see
   :func:`repro.util.rng.derive_seed`) — never of global RNG state,
   scheduling order, or process identity.
2. A spec's kernel must be an importable module-level callable and its
   arguments (shared workload and per-trial tail alike) plain picklable
   values, so the same work unit can execute in any process.
3. Runners return results in submission order (``run_grouped``
   re-slices by group, preserving each group's trial order), so
   downstream assembly (``ComplexityMeasurement`` record streams,
   ``ResultTable`` rows, fitted notes) is independent of completion
   order.

Together these make ``SerialRunner`` and ``ProcessPoolRunner`` produce
**identical** ``ResultTable``\\ s for the same master seed — enforced
for every registered experiment by ``tests/experiments/test_parity.py``
(including under a ``spawn`` multiprocessing context, where nothing is
inherited and every workload arrives inside its chunk) and at the kernel
level by ``tests/core/test_trial_split.py``.

Choosing a runner
-----------------

:func:`make_runner` resolves the worker count from an explicit argument,
else the ``REPRO_WORKERS`` environment variable, else 1; the chunk size
resolves the same way (argument, else ``REPRO_CHUNKSIZE``, else the
automatic four-chunks-per-worker split), and the backend likewise
(argument, else ``REPRO_BACKEND``, else ``auto``).  All three are rows
of the one settings table, :mod:`repro.settings`, with the cluster,
kernel and cache knobs: every runtime call site reads them through
:func:`repro.settings.resolve`, so they validate uniformly on every
construction path — a zero or garbage environment value raises instead
of being silently accepted.  The CLI exposes them as ``repro run ...
--workers N --chunksize C --backend B``; ``repro info`` prints every
knob with its resolved value and source.
"""

from repro.runtime.backends import available_backends, make_runner
from repro.runtime.chunkexec import execute_specs
from repro.runtime.runner import ProcessPoolRunner, SerialRunner, TrialRunner
from repro.runtime.trial import TrialExecutionError, TrialResult, TrialSpec
from repro.runtime.workload import Workload

__all__ = [
    "ClusterRunner",
    "ProcessPoolRunner",
    "SerialRunner",
    "TrialExecutionError",
    "TrialResult",
    "TrialRunner",
    "TrialSpec",
    "Workload",
    "available_backends",
    "execute_specs",
    "make_runner",
]


def __getattr__(name):
    # ClusterRunner is exported lazily (PEP 562) so the common
    # serial/process paths never pay the socket/subprocess machinery's
    # import cost; `from repro.runtime import ClusterRunner` still
    # works, it just loads repro.runtime.cluster on first use.
    if name == "ClusterRunner":
        from repro.runtime.cluster import ClusterRunner

        return ClusterRunner
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
