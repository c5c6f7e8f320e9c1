"""Packed record arrays for the cluster wire.

A cluster node's ``done`` reply used to pickle a list of
:class:`~repro.runtime.trial.TrialResult` objects — for complexity
workloads that is thousands of tiny :class:`~repro.core.complexity.
TrialRecord` / :class:`~repro.core.result.RoutingResult` dataclasses,
each pickled field by field.  :func:`pack_records` flattens such a
chunk into a handful of flat arrays (one column per record field,
paths as vertex codes against the workload graph's vertex order) and
:func:`unpack_records` rebuilds the exact ``TrialResult`` list on the
coordinator.  The contract is the seam invariant everywhere else in
the runtime: reassembled records are **identical** to what the legacy
pickle wire would have carried — packing is unobservable in results.

Both ends derive the codec from the *workload* (``specs[i]`` names it;
content-addressed ids guarantee the two sides hold the same graph, so
``graph.vertices()`` order is a shared vertex numbering that never
travels on the wire).  Chunks that do not fit the packed shape — a
workload that is neither ``run_trial`` nor ``run_traffic_trial``, a
record carrying ``extra`` data, a workload either side cannot resolve
— make :func:`pack_records` return ``None`` and the node falls back to
the pickle wire for that chunk.

``records/2`` extends ``records/1`` with demand-matrix trials: a
traffic record packs its per-commodity query counts and delivery mask
into ragged flat columns (``t_comm`` holds each record's commodity
count, ``-1`` marking pair records) plus per-record congestion columns
— exactly the fields of :class:`~repro.core.traffic.TrafficResult`, so
the reassembled records stay identical to the pickle wire's.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence

from repro.runtime.trial import TrialResult, TrialSpec
from repro.runtime.workload import (
    Workload,
    WorkloadMissError,
    WorkloadRef,
    resolve_workload,
)

__all__ = ["PACKED_FORMAT", "pack_records", "unpack_records"]

#: Format tag carried in every packed body; bump on layout changes.
PACKED_FORMAT = "records/2"

#: ``FailureReason`` <-> wire code (0 is "no failure").
_FAILURE_CODES = {None: 0, "budget": 1, "exhausted": 2, "gave_up": 3}

#: workload_id -> (verts list, vertex -> code dict); small LRU.
_CODECS: OrderedDict[str, tuple[list, dict]] = OrderedDict()
_CODEC_CAP = 64


def _codec(workload: Workload) -> tuple[list, dict]:
    workload_id = workload.workload_id
    if workload_id in _CODECS:
        _CODECS.move_to_end(workload_id)
        return _CODECS[workload_id]
    verts = list(workload.args[0].vertices())
    codes = {v: c for c, v in enumerate(verts)}
    _CODECS[workload_id] = (verts, codes)
    while len(_CODECS) > _CODEC_CAP:
        _CODECS.popitem(last=False)
    return verts, codes


def _live_workload(spec: TrialSpec, resolve: Callable | None) -> Workload | None:
    workload = spec.workload
    if isinstance(workload, Workload):
        return workload
    if isinstance(workload, WorkloadRef):
        if resolve is not None:
            return resolve(workload.workload_id)
        try:
            return resolve_workload(workload.workload_id)
        except WorkloadMissError:
            return None
    return None


def _is_run_trial(workload: Workload) -> bool:
    fn = workload.fn
    return (
        getattr(fn, "__module__", None) == "repro.core.complexity"
        and getattr(fn, "__qualname__", None) == "run_trial"
    )


def _is_run_traffic(workload: Workload) -> bool:
    fn = workload.fn
    return (
        getattr(fn, "__module__", None) == "repro.core.traffic"
        and getattr(fn, "__qualname__", None) == "run_traffic_trial"
    )


def pack_records(
    specs: Sequence[TrialSpec],
    results: Sequence[TrialResult],
    resolve: Callable | None = None,
) -> dict | None:
    """Pack a chunk's results into flat arrays, or decline.

    Returns the packed body (plain dict of numpy arrays) when every
    result is a ``run_trial`` record whose routing outcome the codec
    can represent, else ``None`` — the caller then sends the legacy
    pickled list.  Declining is always safe; packing never raises.

    ``resolve`` maps a workload id to a live :class:`Workload` (a node
    passes its payload cache); without it, specs must carry live
    workloads or resolve through the process registry.
    """
    try:
        import numpy as np

        from repro.core.complexity import TrialRecord
        from repro.core.result import RoutingResult
        from repro.core.traffic import TrafficResult

        if len(specs) != len(results):
            return None
        n = len(results)
        trial = np.zeros(n, dtype=np.int64)
        seed = np.zeros(n, dtype=np.uint64)
        connected = np.zeros(n, dtype=bool)
        attempted = np.zeros(n, dtype=bool)
        success = np.zeros(n, dtype=bool)
        queries = np.zeros(n, dtype=np.int64)
        failure = np.zeros(n, dtype=np.int8)
        path_len = np.full(n, -1, dtype=np.int64)
        flat_path: list[int] = []
        t_comm = np.full(n, -1, dtype=np.int64)
        t_max_load = np.zeros(n, dtype=np.int64)
        t_mean_load = np.zeros(n, dtype=np.float64)
        t_queries: list[int] = []
        t_delivered: list[bool] = []
        for i, (spec, result) in enumerate(zip(specs, results)):
            record = result.value
            if type(record) is not TrialRecord or result.key != spec.key:
                return None
            workload = _live_workload(spec, resolve)
            if workload is None:
                return None
            trial[i] = record.trial
            seed[i] = record.seed
            connected[i] = record.connected
            if _is_run_traffic(workload):
                traffic = record.traffic
                if type(traffic) is not TrafficResult or record.result is not None:
                    return None
                t_comm[i] = traffic.commodities
                t_max_load[i] = traffic.max_link_load
                t_mean_load[i] = traffic.mean_link_load
                t_queries.extend(traffic.queries)
                t_delivered.extend(traffic.delivered_mask)
                continue
            if not _is_run_trial(workload) or record.traffic is not None:
                return None
            routing = record.result
            if routing is None:
                continue
            source, target = workload.args[3], workload.args[4]
            if (
                type(routing) is not RoutingResult
                or routing.extra
                or routing.source != source
                or routing.target != target
                or routing.router != workload.args[2].name
            ):
                return None
            attempted[i] = True
            success[i] = routing.success
            queries[i] = routing.queries
            reason = routing.failure.value if routing.failure else None
            if reason not in _FAILURE_CODES:
                return None
            failure[i] = _FAILURE_CODES[reason]
            if routing.path is not None:
                _, codes = _codec(workload)
                path_len[i] = len(routing.path)
                flat_path.extend(codes[v] for v in routing.path)
        return {
            "format": PACKED_FORMAT,
            "trial": trial,
            "seed": seed,
            "connected": connected,
            "attempted": attempted,
            "success": success,
            "queries": queries,
            "failure": failure,
            "path_len": path_len,
            "path": np.asarray(flat_path, dtype=np.int64),
            "t_comm": t_comm,
            "t_max_load": t_max_load,
            "t_mean_load": t_mean_load,
            "t_queries": np.asarray(t_queries, dtype=np.int64),
            "t_delivered": np.asarray(t_delivered, dtype=bool),
        }
    except Exception:
        return None


def unpack_records(
    packed: dict,
    specs: Sequence[TrialSpec],
    resolve: Callable | None = None,
) -> list[TrialResult]:
    """Rebuild the ``TrialResult`` list a packed body describes.

    Inverse of :func:`pack_records` against the coordinator's own
    specs (which carry the live workloads and the authoritative keys).
    Raises :class:`ValueError` on any malformed body — the cluster
    coordinator converts that into a protocol error, dropping the node
    and requeueing the chunk.
    """
    from repro.core.complexity import TrialRecord
    from repro.core.result import FailureReason, RoutingResult
    from repro.core.traffic import TrafficResult

    if packed.get("format") != PACKED_FORMAT:
        raise ValueError(f"unknown packed format {packed.get('format')!r}")
    try:
        columns = (
            packed["trial"],
            packed["seed"],
            packed["connected"],
            packed["attempted"],
            packed["success"],
            packed["queries"],
            packed["failure"],
            packed["path_len"],
            packed["t_comm"],
            packed["t_max_load"],
            packed["t_mean_load"],
        )
        flat_path = packed["path"]
        t_queries = packed["t_queries"]
        t_delivered = packed["t_delivered"]
    except KeyError as missing:
        raise ValueError(f"packed body is missing column {missing}")
    n = len(specs)
    if any(len(column) != n for column in columns):
        raise ValueError(
            f"packed columns do not cover the {n}-spec chunk"
        )
    if len(t_queries) != len(t_delivered):
        raise ValueError("traffic columns disagree on commodity count")
    reasons = {
        code: FailureReason(reason)
        for reason, code in _FAILURE_CODES.items()
        if reason is not None
    }
    (trial, seed, connected, attempted, success, queries, failure,
     path_len, t_comm, t_max_load, t_mean_load) = columns
    results = []
    cursor = 0
    t_cursor = 0
    for i, spec in enumerate(specs):
        workload = _live_workload(spec, resolve)
        if workload is None or not (
            _is_run_trial(workload) or _is_run_traffic(workload)
        ):
            raise ValueError(
                f"spec {spec.key!r} does not name a packable workload"
            )
        traffic = None
        if t_comm[i] >= 0:
            if not _is_run_traffic(workload) or attempted[i]:
                raise ValueError(
                    f"spec {spec.key!r} cannot carry a traffic record"
                )
            k = int(t_comm[i])
            stop = t_cursor + k
            if stop > len(t_queries):
                raise ValueError(
                    "traffic columns are shorter than declared"
                )
            mask = tuple(bool(d) for d in t_delivered[t_cursor:stop])
            traffic = TrafficResult(
                commodities=k,
                delivered=sum(mask),
                queries=tuple(int(q) for q in t_queries[t_cursor:stop]),
                delivered_mask=mask,
                max_link_load=int(t_max_load[i]),
                mean_link_load=float(t_mean_load[i]),
            )
            t_cursor = stop
        elif _is_run_traffic(workload):
            raise ValueError(
                f"spec {spec.key!r} names a traffic workload but the "
                "record carries none"
            )
        routing = None
        if attempted[i]:
            path = None
            if path_len[i] >= 0:
                verts, _ = _codec(workload)
                stop = cursor + int(path_len[i])
                if stop > len(flat_path):
                    raise ValueError("path column is shorter than declared")
                path = [verts[int(code)] for code in flat_path[cursor:stop]]
                cursor = stop
            code = int(failure[i])
            if code and code not in reasons:
                raise ValueError(f"unknown failure code {code}")
            routing = RoutingResult(
                source=workload.args[3],
                target=workload.args[4],
                success=bool(success[i]),
                queries=int(queries[i]),
                path=path,
                failure=reasons[code] if code else None,
                router=workload.args[2].name,
            )
        record = TrialRecord(
            trial=int(trial[i]),
            seed=int(seed[i]),
            connected=bool(connected[i]),
            result=routing,
            traffic=traffic,
        )
        results.append(TrialResult(key=spec.key, value=record))
    if cursor != len(flat_path):
        raise ValueError("path column is longer than declared")
    if t_cursor != len(t_queries):
        raise ValueError("traffic columns are longer than declared")
    return results
