"""Cache keys: digests of what determines a sweep point's results.

A cached result is only reusable if its key covers **everything** the
result depends on.  For a sweep point that is exactly three things:

* the shared measurement context — graph, router, percolation factory,
  conditioning, ``p``, pair, budget — already content-addressed by the
  workload protocol (:mod:`repro.runtime.workload`): equal context
  *is* an equal ``workload_id``, different context a different one;
* the trial plan — how many trials, their spec keys, and their
  per-trial ``(trial, seed)`` tails (the derived seeds make the master
  seed and the sweep-point labels part of the key for free);
* the code version — results are functions of the source tree, so the
  digest folds in a hash of every ``.py`` file under :mod:`repro`
  (override with ``$REPRO_CODE_VERSION`` when an external build system
  already knows the version).

:func:`point_digest` hashes one sweep point's spec list in trial order
(records are ordered data, so order is significant *within* a point);
:func:`sweep_digest` combines point digests order-insensitively (a
sweep is a set of points); :func:`job_key` identifies a service job —
(experiment, scale, seed, overrides, code version) — canonicalising
the override dict so iteration order never leaks into the key; the
service files a finished job's table under it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.runtime.trial import TrialSpec
from repro.settings import resolve

__all__ = [
    "code_version",
    "job_key",
    "point_digest",
    "sweep_digest",
]

_DIGEST_SIZE = 16  # bytes; 128-bit BLAKE2b, like workload ids

_code_version_cache: dict[str, str] = {}


def code_version() -> str:
    """The version fragment of every cache key.

    ``$REPRO_CODE_VERSION`` if set (a build system's artifact id, say;
    any non-empty string, stripped), else a BLAKE2b digest of all
    ``.py`` sources under the installed :mod:`repro` package (path +
    contents, sorted), computed once per process.  Editing any source
    file therefore invalidates every cached result — stale entries go
    unused, never wrong, exactly like workload content addressing.
    """
    return resolve("code_version", default=_source_version)


def _source_version() -> str:
    cached = _code_version_cache.get("source")
    if cached is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        cached = h.hexdigest()
        _code_version_cache["source"] = cached
    return cached


#: Types :func:`_canonical` returns unchanged, matched exactly: a
#: subclass (a numpy scalar, a namedtuple) takes the recursive path.
_ATOMS = frozenset({int, float, str, bytes, bool, type(None)})


def _canonical(value):
    """Recursively order-normalise mappings so equal content fingerprints
    equally however a dict was built (insertion order is not content).
    """
    if isinstance(value, dict):
        return (
            "__dict__",
            tuple(
                (key, _canonical(value[key])) for key in sorted(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        if _ATOMS.issuperset(map(type, value)):
            # A new tuple even for a tuple, as the recursive path
            # builds: pickle writes a tuple object met twice as a memo
            # reference, so handing back ``value`` itself could change
            # the digest bytes.
            return (*value,)
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted(repr(item) for item in value)))
    return value


def _spec_fingerprint(spec: TrialSpec) -> bytes:
    """Canonical bytes for one spec: context id + per-trial tail.

    Workload-referenced specs contribute their 16-byte content id (the
    payload's own digest — graph, router, factory, conditioning all
    fold in there); self-contained specs contribute their callable's
    qualified name.  Either way the spec's ``key``, ``args`` and
    (order-normalised) ``kwargs`` ride along, so the trial index and
    its derived seed are part of the fingerprint.
    """
    if spec.workload is not None:
        context = ("workload", spec.workload.workload_id)
    else:
        context = (
            "fn",
            getattr(spec.fn, "__module__", None),
            getattr(spec.fn, "__qualname__", repr(spec.fn)),
        )
    payload = (
        context,
        _canonical(tuple(spec.key)),
        _canonical(tuple(spec.args)),
        _canonical(dict(spec.kwargs)),
    )
    return pickle.dumps(payload, protocol=4)


def point_digest(
    specs: Sequence[TrialSpec], *, version: str | None = None
) -> str:
    """The cache key of one sweep point: its specs, in trial order.

    Sensitive to every component — workload content (graph, router,
    factory, ``p``...), trial count, per-trial seeds (hence master
    seed and sweep-point labels), spec keys, and the code version.
    Pickling a spec's primitives is deterministic for equal content,
    and dict-valued arguments are order-normalised first.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(b"repro-point-v1\0")
    h.update((version if version is not None else code_version()).encode())
    h.update(b"\0")
    for spec in specs:
        blob = _spec_fingerprint(spec)
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


def sweep_digest(point_digests: Iterable[str]) -> str:
    """Combine per-point digests into one sweep id, order-insensitively.

    A sweep is a *set* of points — two emissions of the same points in
    different orders are the same sweep, so the digests are sorted
    before hashing.  (Duplicate points are kept: a plan that runs a
    point twice is not the plan that runs it once.)
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(b"repro-sweep-v1\0")
    for digest in sorted(point_digests):
        h.update(digest.encode())
        h.update(b"\0")
    return h.hexdigest()


def job_key(
    experiment: str,
    scale: str,
    seed: int,
    overrides: dict | None = None,
    *,
    version: str | None = None,
) -> str:
    """The single-flight identity of a service job.

    Two submissions with this key are the same computation; in-flight
    duplicates coalesce to one job (:mod:`repro.serve.jobs`).  The
    override dict canonicalises through JSON with sorted keys, so
    ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` are the same job.
    """
    payload = json.dumps(
        {
            "experiment": experiment.upper(),
            "scale": scale,
            "seed": seed,
            "overrides": overrides or {},
            "version": version if version is not None else code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(
        payload.encode(), digest_size=_DIGEST_SIZE
    ).hexdigest()
