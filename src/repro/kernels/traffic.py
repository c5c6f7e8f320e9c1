"""The vectorized chunk kernel for demand-matrix trials.

:func:`~repro.core.traffic.traffic_specs` freezes a sweep point's
context (graph, p, router, demand factory) into one workload whose
specs differ only in their ``(trial, seed)`` tail — the same shape as
single-pair trials, but each trial routes *many* commodities.  That is
a fatter, more parallel-friendly unit for the lockstep frontier
engines: instead of one source per sweep, the whole chunk's
``(trial, commodity)`` rows advance together through one
:meth:`~repro.kernels.routing._EngineBase.route_pairs` call.

Pipeline per chunk:

1. **draw** — the registered model kernel draws every trial's mask as
   one matrix (bit-identical per row to the per-trial model);
2. **demands** — the demand factory runs per trial in plain Python,
   *the very same call* the sequential path makes, so the commodity
   lists are equal by construction;
3. **routing** — the commodity loop flattens into ``(trial,
   commodity)`` rows; each row carries its trial's mask and its own
   ``(source, target)`` pair, and the router's registered *pair
   kernel* replays the per-commodity probe sequences in lockstep
   blocks.  Unregistered routers — and pairs a kernel cannot replay
   (:class:`~repro.kernels.routing.PairRoutingUnsupported`) — keep the
   sequential :meth:`~repro.core.router.Router.route_demands` loop
   against cheap mask-backed models;
4. **summarise** — per-trial results regroup and flow through the one
   shared :func:`~repro.core.traffic.summarize_traffic`, so congestion
   floats are bit-identical to the sequential path.

The result is the same list of :class:`~repro.core.complexity.
TrialRecord` objects ``spec.execute()`` would produce, field for field
— gated by the golden + hypothesis parity suite in
``tests/kernels/test_traffic_kernel.py``.
"""

from __future__ import annotations

import traceback
from collections.abc import Sequence

import numpy as np

from repro.graphs.base import Graph
from repro.kernels.complexity import _MODEL_KERNELS
from repro.kernels.routing import (
    PairRoutingUnsupported,
    _block_rows,
    pair_router_kernel_for,
)
from repro.kernels.topology import EdgeIndex, edge_index_for
from repro.runtime.trial import TrialExecutionError
from repro.runtime.workload import Workload

__all__ = ["compile_traffic_chunk"]


class _TrafficChunk:
    """A compiled chunk runner for one ``run_traffic_trial`` workload."""

    def __init__(
        self,
        graph: Graph,
        index: EdgeIndex,
        model_kernel,
        router,
        pair_kernel,
        demand_factory,
        budget: int | None,
    ) -> None:
        self._graph = graph
        self._index = index
        self._model_kernel = model_kernel
        self._router = router
        self._pair_kernel = pair_kernel
        self._demand_factory = demand_factory
        self._budget = budget

    def stages(self) -> dict[str, str]:
        """Per-stage verdicts for the kernel audit.

        Demand trials have no conditioning step — every commodity is
        attempted — so the slot reports what the (commodity-batched)
        routing stage does, mirroring ``conditioning="none"`` chunks.
        """
        routing = (
            "kernel" if self._pair_kernel is not None else "per-trial"
        )
        return {
            "draw": "kernel",
            "conditioning": routing,
            "routing": routing,
        }

    def __call__(
        self, keys: Sequence[tuple], tails: Sequence[tuple]
    ) -> list:
        from repro.core.complexity import TrialRecord
        from repro.core.traffic import summarize_traffic

        seeds = [seed for _, seed in tails]
        try:
            draw = self._model_kernel.draw(seeds)
        except Exception as exc:
            raise TrialExecutionError(
                keys[0] if keys else ("<chunk-kernel>",),
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            ) from exc
        demands = []
        for i, seed in enumerate(seeds):
            try:
                demands.append(self._demand_factory(self._graph, seed))
            except Exception as exc:
                raise TrialExecutionError(
                    keys[i],
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                ) from exc

        flat = None
        if self._pair_kernel is not None:
            flat = self._route_batched(keys, demands, draw)
        if flat is None:
            flat = self._route_sequential(keys, demands, draw)

        records = []
        cursor = 0
        for i, (trial, seed) in enumerate(tails):
            k = demands[i].commodities
            traffic = summarize_traffic(self._graph, flat[cursor : cursor + k])
            cursor += k
            records.append(
                TrialRecord(
                    trial=trial,
                    seed=seed,
                    connected=traffic.delivered == traffic.commodities,
                    result=None,
                    traffic=traffic,
                )
            )
        return records

    def _route_batched(self, keys, demands, draw):
        """Route every (trial, commodity) row in lockstep, or ``None``.

        ``None`` means the batch cannot be replayed (a pair without a
        kernel-side representation) and the sequential loop should run
        instead — behaviour, not speed, is the invariant.
        """
        code = self._index.code
        rowtrial: list[int] = []
        rowsrc: list[int] = []
        rowtgt: list[int] = []
        for i, matrix in enumerate(demands):
            for source, target in matrix.pairs:
                sc = code.get(source)
                tc = code.get(target)
                if sc is None or tc is None:
                    return None
                rowtrial.append(i)
                rowsrc.append(sc)
                rowtgt.append(tc)
        try:
            masks = draw.edge_masks()
            trial_of_row = np.asarray(rowtrial, dtype=np.int64)
            src = np.asarray(rowsrc, dtype=np.int64)
            tgt = np.asarray(rowtgt, dtype=np.int64)
            out = []
            # Expand trial masks to commodity rows one engine-sized
            # block at a time, so peak memory matches the fixed-pair
            # engines' own blocking.
            block = _block_rows(
                self._index.num_vertices, self._index.num_edges
            )
            for lo in range(0, src.shape[0], block):
                hi = min(lo + block, src.shape[0])
                out.extend(
                    self._pair_kernel.route_pairs(
                        masks[trial_of_row[lo:hi]],
                        src[lo:hi],
                        tgt[lo:hi],
                    )
                )
            return out
        except PairRoutingUnsupported:
            return None
        except TrialExecutionError:
            raise
        except Exception as exc:
            raise TrialExecutionError(
                keys[0] if keys else ("<chunk-kernel>",),
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            ) from exc

    def _route_sequential(self, keys, demands, draw):
        """The exact sequential-commodity loop over mask-backed models."""
        flat = []
        for i, matrix in enumerate(demands):
            try:
                flat.extend(
                    self._router.route_demands(
                        draw.model(i), matrix, budget=self._budget
                    )
                )
            except TrialExecutionError:
                raise
            except Exception as exc:
                raise TrialExecutionError(
                    keys[i],
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                ) from exc
        return flat


def compile_traffic_chunk(workload: Workload):
    """Compile a ``run_traffic_trial`` workload to a chunk runner.

    Mirrors :func:`~repro.kernels.complexity.compile_run_trial_chunk`:
    ``None`` (per-trial fallback) whenever an ingredient lacks a
    vectorized counterpart or the fallback would reject the arguments.
    A registered model kernel with an unregistered router still
    compiles — the draw vectorizes and routing keeps the sequential
    commodity loop (``stages()`` reports the split).
    """
    from repro.core.complexity import _default_factory
    from repro.core.traffic import run_traffic_trial

    if workload.fn is not run_traffic_trial:
        return None
    if len(workload.args) != 4:
        return None
    if not set(workload.kwargs) <= {"budget", "model_factory"}:
        return None
    graph, p, router, demand_factory = workload.args
    if not isinstance(graph, Graph):
        return None
    if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        return None
    if not callable(demand_factory):
        return None
    budget = workload.kwargs.get("budget")
    factory = workload.kwargs.get("model_factory") or _default_factory(graph)
    try:
        compiler = _MODEL_KERNELS.get(factory)
    except TypeError:
        # Unhashable factory — cannot be registered, fall back.
        compiler = None
    if compiler is None:
        return None
    index = edge_index_for(graph)
    if index is None:
        return None
    model_kernel = compiler(graph, index, p)
    if model_kernel is None:
        return None
    pair_kernel = pair_router_kernel_for(router, index, budget)
    return _TrafficChunk(
        graph,
        index,
        model_kernel,
        router,
        pair_kernel,
        demand_factory,
        budget,
    )
