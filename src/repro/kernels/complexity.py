"""The vectorized chunk kernel for pair and demand-matrix trials.

``complexity_specs`` and ``traffic_specs`` freeze a sweep point's
context (graph, p, router, factory, and either the probe pair with its
conditioning or a demand factory) into one workload whose specs differ
only in their ``(trial, seed)`` tail.  :func:`compile_trial_chunk`
inspects that context once and — when every ingredient has a vectorized
counterpart — returns a chunk runner that executes *all* tails in one
pass, stage by stage:

1. **topology** reads the graph's :class:`~repro.kernels.topology.
   EdgeIndex` (:func:`~repro.kernels.topology.edge_index_for`: compiled
   once per graph per process and shared with the per-trial draws);
2. **draw** — the workload's model draws every trial at once through
   its :meth:`~repro.percolation.models.PercolationModel.chunk_draw`
   (a mask matrix, or a lazily-demanded one), bit-identical per row to
   the per-trial model;
3. **conditioning** (probe pairs under ``"exact"`` only) runs as
   chunk-wide union-find (:func:`~repro.kernels.bfs.batched_connected`,
   or the draw's own lazy BFS — same verdicts, no per-trial Python
   BFS);
4. **routing** flattens the chunk into ``(trial, source, target)``
   rows — the workload's pair for every trial conditioning keeps, or
   every commodity the demand factory draws (*the very same call* the
   per-trial path makes) — and routes them through the router's
   registered *engine* (:mod:`repro.kernels.routing`): a per-row
   replay of the exact per-trial probe sequence over each row's mask
   bytes, with no oracle — same counts, same paths.  Unregistered
   routers, and batches an engine cannot replay, keep the per-trial
   ``Router.route`` loop against cheap mask-backed models — behaviour,
   not speed, is the invariant;
5. **records** — a pair trial's one result, or a demand trial's
   commodity results folded by the one shared
   :func:`~repro.core.traffic.summarize_traffic`.

The result is the same list of :class:`~repro.core.complexity.
TrialRecord` objects ``spec.execute()`` would produce, field for field.
Eligibility follows the model the workload's factory builds: the
compiler builds it once (construction draws nothing) and asks it for a
draw.  A model with none (the lazy :class:`~repro.percolation.models.
HashPercolation`), a factory that raises, or an unenumerable graph
make the compiler return ``None`` and the runners fall back to the
per-trial loop.  Each call counts the stages it ran trial by trial into
:data:`~repro.runtime.chunkexec.TALLY` — what ``repro info``'s kernel
audit prints.
"""

from __future__ import annotations

import traceback
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.kernels.bfs import BLOCK_BYTES, batched_connected
# Kept importable under this module: perfbench's tracer binds the name.
from repro.kernels.percolation import table_edge_masks  # noqa: F401
from repro.kernels.routing import PairRoutingUnsupported, router_kernel_for
from repro.kernels.topology import EdgeIndex, edge_index_for
from repro.percolation.models import PercolationModel
from repro.runtime.chunkexec import TALLY
from repro.runtime.trial import TrialExecutionError
from repro.runtime.workload import Workload

__all__ = ["compile_trial_chunk"]


@contextmanager
def _blame(key: tuple):
    """Re-raise any error inside the block as ``key``'s trial error."""
    try:
        yield
    except TrialExecutionError:
        raise
    except Exception as exc:
        raise TrialExecutionError(
            key, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        ) from exc


class _TrialChunk:
    """A compiled chunk runner for one pair or demand-matrix workload.

    ``run_trial`` and ``run_traffic_trial`` workloads both route
    ``(trial, source, target)`` rows over one chunk draw: a probe-pair
    workload routes its pair once per trial that conditioning keeps, a
    demand workload (``pair is None``) every commodity of every trial.
    Conditioning and record assembly are the only pair-specific steps.
    """

    def __init__(
        self,
        graph: Graph,
        index: EdgeIndex,
        model: PercolationModel,
        router,
        router_kernel,
        budget: int | None,
        conditioning: str,
        pair: tuple[Vertex, Vertex] | None,
        demand_factory,
    ) -> None:
        # Keeps the graph alive for as long as the runner lives (its
        # workload holds it): the shared index refers back to the graph
        # only weakly.
        self._graph = graph
        self._index = index
        self._model = model
        self._router = router
        self._router_kernel = router_kernel
        self._budget = budget
        self._conditioning = conditioning
        self._pair = pair
        self._demand_factory = demand_factory

    def __call__(
        self, keys: Sequence[tuple], tails: Sequence[tuple]
    ) -> list:
        from repro.core.complexity import TrialRecord
        from repro.core.traffic import summarize_traffic

        seeds = [seed for _, seed in tails]
        with _blame(keys[0] if keys else ("<chunk-kernel>",)):
            draw = self._model.chunk_draw(self._index, seeds)
            conn = None
            if self._conditioning == "exact":
                source_code = self._index.code[self._pair[0]]
                target_code = self._index.code[self._pair[1]]
                lazy = getattr(draw, "connected", None)
                if lazy is not None:
                    conn = lazy(source_code, target_code)
                else:
                    conn = batched_connected(
                        self._index, draw.edge_masks(), source_code,
                        target_code,
                    )
        # Each trial's pairs to route: every commodity its demand
        # matrix draws, or the workload's pair — under "exact"
        # conditioning for connected trials only; the other modes route
        # everything and read `connected` off the attempt.
        if self._pair is None:
            pairs = []
            for i, seed in enumerate(seeds):
                with _blame(keys[i]):
                    matrix = self._demand_factory(self._graph, seed)
                pairs.append(matrix.pairs)
        else:
            pairs = [
                (self._pair,) if conn is None or conn[i] else ()
                for i in range(len(tails))
            ]
        rows = [
            (i, source, target)
            for i, trial_pairs in enumerate(pairs)
            for source, target in trial_pairs
        ]
        results = None
        if self._router_kernel is not None:
            results = self._route_kernel(keys, draw, rows) if rows else []
        if results is None:
            # No engine, or one that declined the batch.  Conditioning
            # other than "exact" *is* the routing attempt.
            TALLY["routing per-trial"] += len(tails)
            if self._conditioning != "exact":
                TALLY["conditioning per-trial"] += len(tails)
            results = self._route_per_trial(keys, draw, rows)
        elif self._pair is None:
            TALLY["commodity-batched"] += len(tails)

        records = []
        cursor = 0
        for i, (trial, seed) in enumerate(tails):
            mine = results[cursor : cursor + len(pairs[i])]
            cursor += len(mine)
            if self._pair is None:
                traffic = summarize_traffic(self._graph, mine)
                records.append(
                    TrialRecord(
                        trial=trial,
                        seed=seed,
                        connected=traffic.delivered == traffic.commodities,
                        result=None,
                        traffic=traffic,
                    )
                )
                continue
            result = mine[0] if mine else None
            is_conn = bool(conn[i]) if conn is not None else result.success
            records.append(
                TrialRecord(
                    trial=trial, seed=seed, connected=is_conn, result=result
                )
            )
        return records

    def _route_kernel(self, keys, draw, rows):
        """Route every row through the router's engine, or ``None``.

        ``None`` means the batch cannot be replayed (a pair without a
        kernel-side representation) and the per-trial loop should run
        instead — behaviour, not speed, is the invariant.
        """
        code = self._index.code
        try:
            src = [code[s] for _, s, _ in rows]
            tgt = [code[t] for _, _, t in rows]
        except KeyError:
            return None
        trial_of_row = np.asarray([i for i, _, _ in rows], dtype=np.int64)
        with _blame(keys[rows[0][0]]):
            try:
                rows_fn = getattr(draw, "edge_masks_for", None)
                if rows_fn is None:
                    masks = draw.edge_masks()
                else:
                    routed, trial_of_row = np.unique(
                        trial_of_row, return_inverse=True
                    )
                    masks = rows_fn(routed.tolist())
                # Expand trial masks to rows a bounded block at a time,
                # however many commodities a trial carries.
                block = max(1, BLOCK_BYTES // max(1, self._index.num_edges))
                out = []
                for lo in range(0, len(rows), block):
                    hi = lo + block
                    out.extend(
                        self._router_kernel.route_pairs(
                            masks[trial_of_row[lo:hi]], src[lo:hi],
                            tgt[lo:hi],
                        )
                    )
                return out
            except PairRoutingUnsupported:
                return None

    def _route_per_trial(self, keys, draw, rows):
        """The exact per-trial ``Router.route`` loop over mask models."""
        route = self._router.route
        out = []
        model_of = None
        for i, source, target in rows:
            with _blame(keys[i]):
                if model_of != i:
                    model, model_of = draw.model(i), i
                out.append(route(model, source, target, budget=self._budget))
        return out


def compile_trial_chunk(workload: Workload):
    """Compile a ``run_trial`` or ``run_traffic_trial`` workload to a
    chunk runner, or ``None``.

    ``None`` — the per-trial fallback — whenever any ingredient lacks a
    vectorized counterpart; anything the fallback would *reject* (bad
    ``p``, unknown conditioning, a factory that raises) is also
    declined, so the error surfaces through the unchanged per-trial
    code path.  A model with a chunk draw and an unregistered *router*
    still compiles: draw and conditioning vectorize, routing takes the
    per-trial loop (and the runner tallies it).
    """
    from repro.core.complexity import _default_factory, run_trial
    from repro.core.traffic import run_traffic_trial

    kwargs = workload.kwargs
    if workload.fn is run_trial and len(workload.args) == 5:
        graph, p, router, source, target = workload.args
        pair = (source, target)
        demand_factory = None
        conditioning = kwargs.get("conditioning", "exact")
        allowed = {"budget", "model_factory", "conditioning"}
    elif workload.fn is run_traffic_trial and len(workload.args) == 4:
        graph, p, router, demand_factory = workload.args
        if not callable(demand_factory):
            return None
        pair = None
        conditioning = "none"  # every commodity is attempted
        allowed = {"budget", "model_factory"}
    else:
        return None
    if not set(kwargs) <= allowed:
        return None
    if conditioning not in ("exact", "router", "none"):
        return None
    if not isinstance(graph, Graph):
        return None
    if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        return None
    factory = kwargs.get("model_factory") or _default_factory(graph)
    try:
        # One model per workload: construction draws nothing, and its
        # chunk draws never read its seed.
        model = factory(graph, p, 0)
    except Exception:
        return None
    # A model on the base hook has no draw: decline before compiling
    # the graph (a complete graph's index would list every pair).
    base = PercolationModel.chunk_draw
    if getattr(type(model), "chunk_draw", base) is base:
        return None
    index = edge_index_for(graph)
    if index is None:
        return None
    if pair is not None and not all(v in index.code for v in pair):
        return None
    try:
        if model.chunk_draw(index, ()) is None:
            return None
    except Exception:
        return None
    # "router" conditioning routes with no budget (run_trial's rule);
    # the effective budget is fixed per workload, so the routing engine
    # compiles once against it.
    budget = None if conditioning == "router" else kwargs.get("budget")
    return _TrialChunk(
        graph,
        index,
        model,
        router,
        router_kernel_for(router, index, budget),
        budget,
        conditioning,
        pair,
        demand_factory,
    )
