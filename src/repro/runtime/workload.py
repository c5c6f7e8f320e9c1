"""Content-addressed workloads: one frozen context per group of trials.

A per-trial :class:`~repro.runtime.trial.TrialSpec` carries only its
``(trial, seed)`` tail; the measurement context every trial of a sweep
point shares — graph, router, percolation factory, conditioning config
— lives in one frozen :class:`Workload`, **content-addressed** by a
stable :attr:`~Workload.workload_id` (a BLAKE2b digest of the pickled
contents).  The id keys the result cache's point digests
(:mod:`repro.serve.digest`) and a worker's live copies (below): equal
content is an equal id in any process, and a changed context is a
different id.

Wire form
---------

A spec pickles its workload by value, so a pickled chunk is the whole
wire form of its work on every backend.  Pickle's memo writes each
workload once per chunk, and the paper's networks are implicit (the
hypercube, the d-mesh, the double tree, G(n,p)), so a context pickles
to a few hundred bytes to a few kilobytes.

One live copy per process
-------------------------

:meth:`Workload.__reduce__` rebuilds an unpickled workload through
:func:`_live_copy`, which returns this process's live copy for the
content id the workload carries, from one LRU of :data:`_LIVE_CAP`
entries.  Chunks of one workload therefore resolve to one object in a
worker, and its compiled chunk runner and the graph's cached edge
index and adjacency, built by one chunk, serve the next.  This LRU is
the one process-wide cache of compiled work: a runner leaves with its
live copy.  A serial run never unpickles a workload, so the in-process
path does no extra work.

The id travels with the content instead of being recomputed:
unpickled content need not re-pickle to the same bytes (a dict key and
an attribute name that were one interned string come back as two
objects, which changes pickle's memo), so a recomputed digest could
differ from the sender's.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Workload"]


@dataclass(frozen=True, eq=False)
class Workload:
    """A frozen shared payload for a group of per-trial specs.

    ``fn`` is the module-level kernel the group's specs execute;
    ``args``/``kwargs`` are the leading arguments shared by every trial
    (graph, router, percolation factory, conditioning config...).  A
    spec's own ``args``/``kwargs`` are appended per call:
    ``fn(*workload.args, *spec.args, **workload.kwargs, **spec.kwargs)``.

    Everything must be picklable; the content id is a digest of the
    pickled ``(fn, args, kwargs)``, so equal content hashes to an equal
    id in any process.

    The first kernel chunk over a workload compiles its chunk runner
    (:func:`~repro.runtime.chunkexec.chunk_runner`) and keeps it on the
    instance.  The runner is process-local: never pickled (a workload
    pickles as its id and contents alone), not part of the id, and
    freed with the workload.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    workload_id: str = field(init=False)

    def __post_init__(self) -> None:
        payload = (
            getattr(self.fn, "__module__", None),
            getattr(self.fn, "__qualname__", None),
            self.args,
            tuple(sorted(self.kwargs.items())),
        )
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise TypeError(
                f"workload for {self.fn!r} is not picklable and cannot be "
                f"shipped to workers: {exc}"
            ) from exc
        digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
        object.__setattr__(self, "workload_id", digest)

    def call(self, *trial_args: Any, **trial_kwargs: Any) -> Any:
        """Run the kernel for one trial's arguments."""
        return self.fn(
            *self.args, *trial_args, **{**self.kwargs, **trial_kwargs}
        )

    def __reduce__(self):
        return _live_copy, (
            self.workload_id, self.fn, self.args, dict(self.kwargs)
        )

    def __repr__(self) -> str:
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Workload({name}, id={self.workload_id[:8]}...)"


#: Unpickled workloads this process holds, by content id, most recently
#: used last.  Each keeps its compiled chunk runner, and the runner its
#: graph, so this bound is also how many workloads' graphs a worker
#: keeps compiled between chunks.  One thread per process unpickles
#: workloads (a pool worker's, or a cluster node's loop), so the LRU
#: takes no lock.
_LIVE: OrderedDict[str, Workload] = OrderedDict()
_LIVE_CAP = 64


def _live_copy(workload_id, fn, args, kwargs) -> Workload:
    """Resolve an unpickled workload to this process's live copy."""
    workload = object.__new__(Workload)  # keep the sender's id as is
    for name, value in (
        ("fn", fn),
        ("args", args),
        ("kwargs", kwargs),
        ("workload_id", workload_id),
    ):
        object.__setattr__(workload, name, value)
    live = _LIVE.setdefault(workload_id, workload)
    _LIVE.move_to_end(workload_id)
    while len(_LIVE) > _LIVE_CAP:
        _LIVE.popitem(last=False)
    return live
