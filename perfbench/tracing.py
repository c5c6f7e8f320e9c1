"""Spans around the calls into each layer, installed from outside.

Nothing under ``src/`` knows it is traced: :func:`install` replaces
public entry points of ``repro.experiments``, ``repro.runtime``,
``repro.kernels``, the per-trial path (``repro.core``,
``percolation``, ``routers``) and ``repro.serve`` with wrappers that
record a span — name, start, end, parent span, and the workload,
experiment and job ids — and puts the originals back on
:meth:`Patches.restore`.  Spans stay in memory and are written as
JSON lines when the traced run ends.

:func:`layer_metrics` turns the spans into the per-layer metrics.  A
layer's time is its *self* time: span time minus the time of the
spans it encloses, so the layer times of one thread add up to the
traced wall clock.  The exceptions are ``experiment.<ID>.s`` (a
definition's whole call) and ``runtime.execute_s`` (whole runner
calls), which are inclusive envelopes.

Lazy site draws (``LazySiteDraw``, ``HashPercolation``) hash coins
when a stage first asks for them, so their cost counts toward the
stage that demands it: conditioning or routing, not draw.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import sys
import threading
import time
from collections import defaultdict

from repro.runtime.runner import TrialRunner, pick_chunksize, split_chunks
from repro.runtime.trial import TrialResult

#: Workers the computed chunk split assumes (a 2-core host).
SPLIT_WORKERS = 2

#: Self-contained point functions with a metric of their own.
POINT_FUNCTIONS = (
    "certificate_point",
    "chemical_point",
    "root_threshold",
    "giant_scan",
    "connectivity_scan",
    "size_point",
    "giant_fraction_scan",
    "alpha_point",
)

_RUNNER_CALLS = ("runtime.execute", "serve.cached_run")


class Tracer:
    """In-memory span recorder with a span stack per thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
        return state.stack

    def begin(self, name: str, experiment=None, job=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            experiment = experiment or parent[5]
            job = job or parent[6]
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            0.0,
            None if parent is None else parent[0],
            experiment,
            job,
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "experiment", "job")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(zip(keys, span))
                record["workload"] = self.workload
                handle.write(json.dumps(record) + "\n")


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


class TimedRunner(TrialRunner):
    """Wraps the runner a definition is handed; times each runner call.

    Lazy spec groups are materialised first, under an
    ``experiments.emit`` span, so emission done on demand counts as
    emission.  With ``account=True`` it also counts points and specs
    and computes what a :data:`SPLIT_WORKERS`-worker pool would ship:
    chunk count and pickled chunk, payload and result bytes.  Nothing
    is shipped; the sizes are computed.
    """

    def __init__(self, inner: TrialRunner, tracer: Tracer, account=True):
        self.inner = inner
        self.tracer = tracer
        self.account = account
        self.workers = inner.workers

    def _materialise(self, groups):
        if not self.account:  # an inner runner: groups arrive built
            return [(label, list(specs)) for label, specs in groups]
        span = self.tracer.begin("experiments.emit")
        try:
            return [(label, list(specs)) for label, specs in groups]
        finally:
            self.tracer.end(span)

    def run(self, specs):
        if not isinstance(specs, (list, tuple)):
            specs = self._materialise([(None, specs)])[0][1]
        span = self.tracer.begin("runtime.execute")
        try:
            results = self.inner.run(specs)
        finally:
            self.tracer.end(span)
        self._account(1, list(specs), [r.value for r in results])
        return results

    def run_grouped(self, groups):
        groups = self._materialise(groups)
        span = self.tracer.begin("runtime.execute")
        try:
            out = self.inner.run_grouped(groups)
        finally:
            self.tracer.end(span)
        flat = [spec for _, specs in groups for spec in specs]
        values = [value for label, _ in groups for value in out[label]]
        self._account(len(groups), flat, values)
        return out

    def _account(self, points: int, specs: list, values: list) -> None:
        if not self.account or not specs:
            return
        span = self.tracer.begin("trace.accounting")
        try:
            tracer = self.tracer
            tracer.count("experiments.points", points)
            tracer.count("experiments.specs", len(specs))
            size = pick_chunksize(len(specs), SPLIT_WORKERS)
            chunks = split_chunks(specs, size)
            if len(chunks) == 1:
                return  # a one-chunk batch runs in-process: nothing ships
            tracer.count("runtime.chunks", len(chunks))
            payloads = {
                spec.workload.workload_id: spec.workload
                for spec in specs
                if spec.workload is not None
            }
            shipped = sum(len(_dumps(chunk)) for _, chunk in chunks)
            shipped += sum(len(_dumps(p)) for p in payloads.values())
            tracer.count("runtime.ship_bytes", shipped)
            tracer.count(
                "runtime.result_bytes",
                sum(
                    len(_dumps([
                        TrialResult(key=s.key, value=v)
                        for s, v in zip(chunk, values[start:])
                    ]))
                    for start, chunk in chunks
                ),
            )
        finally:
            self.tracer.end(span)

    def close(self) -> None:
        self.inner.close()


def _dumps(obj) -> bytes:
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # an unpicklable payload ships nothing
        return b""


class _TimedChunk:
    """A compiled chunk runner, timed as one kernel call.

    A chunk whose router has no kernel routes trial by trial; those
    ``Router.route`` calls nest as ``fallback.routing`` spans, so self
    time leaves them out of the chunk's ``kernels.routing_s``.
    """

    def __init__(self, runner, tracer: Tracer) -> None:
        self._runner = runner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._runner, name)

    def __call__(self, keys, tails):
        tracer = self._tracer
        span = tracer.begin("kernels.chunk")
        try:
            records = self._runner(keys, tails)
        finally:
            tracer.end(span)
        tracer.count("kernels.trials", len(records))
        tracer.count(
            "kernels.routed",
            sum(
                1
                for r in records
                if getattr(r, "result", None) is not None
                or getattr(r, "traffic", None) is not None
            ),
        )
        return records


class Patches:
    """Attribute replacements, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _rebind_everywhere(patches: Patches, original, replacement) -> None:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, replacement)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary; returns the patches to restore."""
    import repro.kernels  # noqa: F401  (kernels register on import)
    import repro.kernels.complexity as kcomplexity
    import repro.runtime.chunkexec as chunkexec
    import repro.serve.cached_runner as cached_runner
    import repro.serve.http as http
    from repro.core.complexity import run_trial
    from repro.core.router import Router
    from repro.core.traffic import run_traffic_trial
    from repro.experiments import all_experiments
    from repro.experiments.spec import ExperimentSpec
    from repro.kernels.percolation import LazySiteDraw
    from repro.percolation.cluster import connected
    from repro.percolation.models import PercolationModel
    from repro.runtime.trial import TrialSpec
    from repro.serve.cache import ResultCache
    from repro.serve.cached_runner import CachedRunner
    from repro.serve.jobs import JobManager

    all_experiments()  # load every definition module before rebinding
    patches = Patches()

    # repro.experiments: one span per definition call.
    spec_call = ExperimentSpec.__call__

    def experiment_call(self, *args, **kwargs):
        span = tracer.begin("experiment", experiment=self.experiment_id)
        try:
            return spec_call(self, *args, **kwargs)
        finally:
            tracer.end(span)

    patches.set(ExperimentSpec, "__call__", experiment_call)

    # repro.runtime: compile on the first chunk_runner() per workload,
    # and a timed proxy around every compiled chunk runner.
    original_chunk_runner = chunkexec.chunk_runner
    compiled: set[str] = set()

    def chunk_runner(workload):
        if workload.workload_id in compiled:
            runner = original_chunk_runner(workload)
        else:
            compiled.add(workload.workload_id)
            span = tracer.begin("runtime.compile")
            try:
                runner = original_chunk_runner(workload)
            finally:
                tracer.end(span)
        return None if runner is None else _TimedChunk(runner, tracer)

    patches.set(chunkexec, "chunk_runner", chunk_runner)

    # repro.kernels: draw and conditioning stages; routing is the rest
    # of the chunk call.
    patches.set(
        kcomplexity,
        "table_edge_masks",
        _timed(tracer, "kernels.draw", kcomplexity.table_edge_masks),
    )
    patches.set(
        LazySiteDraw,
        "__init__",
        _timed(tracer, "kernels.draw", LazySiteDraw.__init__),
    )
    patches.set(
        kcomplexity,
        "batched_connected",
        _timed(
            tracer, "kernels.conditioning", kcomplexity.batched_connected
        ),
    )
    patches.set(
        LazySiteDraw,
        "connected",
        _timed(tracer, "kernels.conditioning", LazySiteDraw.connected),
    )

    # Per-trial fallback: model factories, `connected`, Router.route,
    # and the spec executions that reach them.  Router.route is timed
    # inside chunks too (a router without a kernel routes per trial).
    # The kernels' own mask models are views of a chunk draw, not a
    # factory draw, so they and the base class they call into are left
    # unwrapped.
    for cls in _subclasses(PercolationModel):
        if (
            cls is not PercolationModel
            and "__init__" in cls.__dict__
            and cls.__module__.startswith("repro")
            and not cls.__module__.startswith("repro.kernels")
        ):
            patches.set(
                cls,
                "__init__",
                _timed(tracer, "fallback.draw", cls.__dict__["__init__"]),
            )
    _rebind_everywhere(
        patches,
        connected,
        _timed(tracer, "fallback.conditioning", connected),
    )
    for cls in _subclasses(Router):
        if "route" in cls.__dict__:
            patches.set(
                cls,
                "route",
                _timed(tracer, "fallback.routing", cls.__dict__["route"]),
            )

    spec_execute = TrialSpec.execute
    per_trial = (run_trial, run_traffic_trial)

    def execute(self):
        fn = self.fn if self.workload is None else getattr(
            self.workload, "fn", None
        )
        if fn in per_trial:
            name = "fallback.trial"
        else:
            name = f"fallback.fn.{getattr(fn, '__name__', 'other')}"
        span = tracer.begin(name)
        try:
            return spec_execute(self)
        finally:
            tracer.end(span)

    patches.set(TrialSpec, "execute", execute)

    # repro.serve: job, cached runner call, digest, cache read/write;
    # the service's backend runner is wrapped like the suites' runner.
    manager_execute = JobManager._execute

    def job_execute(self, job, spec):
        span = tracer.begin("serve.job", job=job.job_id)
        try:
            return manager_execute(self, job, spec)
        finally:
            tracer.end(span)

    patches.set(JobManager, "_execute", job_execute)
    for method in ("run", "run_grouped"):
        patches.set(
            CachedRunner,
            method,
            _counted_cached_run(tracer, CachedRunner.__dict__[method]),
        )
    patches.set(
        cached_runner,
        "point_digest",
        _timed(tracer, "serve.digest", cached_runner.point_digest),
    )
    patches.set(
        ResultCache,
        "get",
        _timed(tracer, "serve.cache_get", ResultCache.get),
    )
    patches.set(
        ResultCache,
        "put",
        _timed(tracer, "serve.cache_put", ResultCache.put),
    )
    make_runner = http.make_runner

    def traced_make_runner(*args, **kwargs):
        return TimedRunner(make_runner(*args, **kwargs), tracer, False)

    patches.set(http, "make_runner", traced_make_runner)
    return patches


def _counted_cached_run(tracer: Tracer, method):
    """A CachedRunner call: the runner boundary a served def sees."""

    @functools.wraps(method)
    def wrapper(self, arg):
        if method.__name__ == "run_grouped":
            groups = [(label, list(specs)) for label, specs in arg]
            tracer.count("experiments.points", len(groups))
            tracer.count(
                "experiments.specs", sum(len(s) for _, s in groups)
            )
            arg = groups
        else:
            arg = list(arg)
            tracer.count("experiments.points", 1)
            tracer.count("experiments.specs", len(arg))
        span = tracer.begin("serve.cached_run")
        try:
            return method(self, arg)
        finally:
            tracer.end(span)

    return wrapper


# -- aggregation --------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    return {
        span[0]: (span[3] - span[2]) - child_time[span[0]] for span in spans
    }


def _emit_summarise(spans, selfs) -> tuple[float, float]:
    """Split definition self time at its last runner call's return.

    Before it: building spec groups (emission).  After it: turning
    results into the table (summarise).  Explicit ``experiments.emit``
    spans (lazy groups materialised by the runner wrapper) add to
    emission.
    """
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    emit = summarise = 0.0
    for span in spans:
        if span[1] != "experiment":
            continue
        kids = children[span[0]]
        calls = [k for k in kids if k[1] in _RUNNER_CALLS]
        if not calls:
            summarise += selfs[span[0]]
            continue
        last_end = max(k[3] for k in calls)
        after = (span[3] - last_end) - sum(
            k[3] - k[2] for k in kids if k[2] >= last_end
        )
        summarise += after
        emit += selfs[span[0]] - after
    emit += sum(selfs[s[0]] for s in spans if s[1] == "experiments.emit")
    return emit, summarise


def layer_metrics(tracer: Tracer, experiment_ids) -> dict[str, float]:
    """Per-layer metric values from the spans and counters."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        by_name[span[1]] += selfs[span[0]]
        calls[span[1]] += 1
    c = tracer.counters
    out: dict[str, float] = {}

    emit, summarise = _emit_summarise(spans, selfs)
    out["experiments.emit_s"] = emit
    out["experiments.summarise_s"] = summarise
    out["experiments.points"] = c["experiments.points"]
    out["experiments.specs"] = c["experiments.specs"]
    per_experiment: dict[str, float] = defaultdict(float)
    for span in spans:
        if span[1] == "experiment":
            per_experiment[span[5]] += span[3] - span[2]
    for experiment_id in experiment_ids:
        out[f"experiment.{experiment_id}.s"] = per_experiment[experiment_id]

    out["runtime.execute_s"] = sum(
        s[3] - s[2] for s in spans if s[1] == "runtime.execute"
    )
    out["runtime.compile_s"] = by_name["runtime.compile"]
    kernel_specs = c["kernels.trials"]
    fallback_specs = calls["fallback.trial"] + sum(
        n for name, n in calls.items() if name.startswith("fallback.fn.")
    )
    out["runtime.kernel_specs"] = kernel_specs
    out["runtime.fallback_specs"] = fallback_specs
    total_specs = kernel_specs + fallback_specs
    out["runtime.kernel_spec_frac"] = (
        kernel_specs / total_specs if total_specs else 0.0
    )
    out["runtime.chunks"] = c["runtime.chunks"]
    out["runtime.ship_bytes"] = c["runtime.ship_bytes"]
    out["runtime.result_bytes"] = c["runtime.result_bytes"]

    out["kernels.draw_s"] = by_name["kernels.draw"]
    out["kernels.conditioning_s"] = by_name["kernels.conditioning"]
    out["kernels.routing_s"] = by_name["kernels.chunk"]
    out["kernels.trials"] = kernel_specs
    out["kernels.routed_frac"] = (
        c["kernels.routed"] / kernel_specs if kernel_specs else 0.0
    )

    out["fallback.draw_s"] = by_name["fallback.draw"]
    out["fallback.conditioning_s"] = by_name["fallback.conditioning"]
    out["fallback.routing_s"] = by_name["fallback.routing"]
    out["fallback.trials"] = calls["fallback.trial"]
    for name in POINT_FUNCTIONS:
        out[f"fallback.fn.{name}_s"] = (
            by_name[f"fallback.fn._{name}"] + by_name[f"fallback.fn.{name}"]
        )
    known = {f"fallback.fn._{n}" for n in POINT_FUNCTIONS}
    known |= {f"fallback.fn.{n}" for n in POINT_FUNCTIONS}
    out["fallback.fn.other_s"] = sum(
        t
        for name, t in by_name.items()
        if name.startswith("fallback.fn.") and name not in known
    )

    out["serve.digest_s"] = by_name["serve.digest"]
    out["serve.cache_get_s"] = by_name["serve.cache_get"]
    out["serve.cache_put_s"] = by_name["serve.cache_put"]
    return out


def hit_split(tracer: Tracer, hits: list[tuple]) -> list[str]:
    """Where a cache-hit job's latency goes, per hit on average.

    ``hits`` holds ``(job_id, latency_s, queue_wait_s)`` per hit job;
    the queue wait comes from the job's snapshot timestamps.
    """
    if not hits:
        return []
    ids = {job_id for job_id, _, _ in hits}
    spans = [s for s in tracer.spans if s[6] in ids]
    selfs = self_times(spans)
    emit, summarise = _emit_summarise(spans, selfs)
    by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span[1]] += selfs[span[0]]
    job = sum(s[3] - s[2] for s in spans if s[1] == "serve.job")
    latency = sum(latency for _, latency, _ in hits)
    queue = sum(wait for _, _, wait in hits)
    parts = {
        "experiments.emit": emit,
        "experiments.summarise": summarise,
        "serve.digest": by_name["serve.digest"],
        "serve.cache_get": by_name["serve.cache_get"],
    }
    parts["rest of the job"] = job - sum(parts.values())
    parts["serve.queue_wait"] = queue
    parts["HTTP and wait notification"] = latency - job - queue
    n = len(ids)
    text = ", ".join(
        f"{k} {1000 * v / n:.2f} ms ({v / latency:.0%})"
        for k, v in parts.items()
    )
    return [
        f"per hit job (mean of {n}, latency {1000 * latency / n:.2f} ms):"
        f" {text}"
    ]
