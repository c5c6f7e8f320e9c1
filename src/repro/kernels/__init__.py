"""Vectorized chunk kernels: whole-chunk trial execution with NumPy.

The runtime's schedulable unit is a single trial, but the *executable*
unit on a worker is a chunk of consecutive specs sharing one workload.
This package supplies batch kernels that execute such a chunk in one
call — i.i.d. percolation masks drawn as one seeded bit-matrix, the
conditioning BFS as chunk-wide frontier expansion over implicit
topologies compiled to index arithmetic — while preserving the
per-trial seed derivation, so every record is **bit-identical** to what
``spec.execute()`` produces.  Registration happens on import: pulling
this package in wires the one chunk compiler into
:mod:`repro.runtime.chunkexec` for both ``run_trial`` and
``run_traffic_trial`` (chunkexec imports it lazily on the first chunk
it sees).  A probe pair is the one-commodity demand: both workloads
route ``(trial, source, target)`` rows through the same engines.

Layout
------

:mod:`~repro.kernels.topology`
    :class:`EdgeIndex` — a graph as flat edge/incidence arrays, edges
    in exact ``graph.edges()`` order (the mask-parity contract), built
    arithmetically for Hypercube/Mesh/Torus/DeBruijn;
    :func:`edge_index_for` keeps one per graph per process, shared
    with the per-trial draws.
:mod:`~repro.kernels.percolation`
    The chunk draws percolation models build through their
    ``chunk_draw`` hook — table masks, lazy site coins, correlated
    outages, keyed edge coins — and the mask-backed
    ``PercolationModel`` rows that answer exactly like the per-trial
    models they replace.
:mod:`~repro.kernels.bfs`
    Chunk-wide reachability (the conditioning step) by batched
    frontier expansion.
:mod:`~repro.kernels.routing`
    Lockstep frontier-array routing engines replaying the complete
    -information routers probe for probe through one entry point,
    ``route_pairs``, plus the router-kernel registry router types opt
    into.
:mod:`~repro.kernels.complexity`
    The chunk compiler tying the above together for pair and demand
    trials alike.  It builds each workload's model once and asks it for
    a chunk draw, so any factory whose model has one vectorizes — no
    registration.
"""

from repro.kernels.bfs import batched_connected
from repro.kernels.complexity import compile_trial_chunk
from repro.kernels.percolation import (
    LazySiteDraw,
    MaskEdgePercolation,
    table_edge_masks,
)
from repro.kernels.routing import (
    PairRoutingUnsupported,
    register_router_kernel,
    router_kernel_for,
    routing_incidence,
)
from repro.kernels.topology import (
    EdgeIndex,
    build_edge_index,
    edge_index_for,
)

__all__ = [
    "EdgeIndex",
    "LazySiteDraw",
    "MaskEdgePercolation",
    "PairRoutingUnsupported",
    "batched_connected",
    "build_edge_index",
    "compile_trial_chunk",
    "edge_index_for",
    "register_router_kernel",
    "router_kernel_for",
    "routing_incidence",
    "table_edge_masks",
]


def _register_builtin_kernels() -> None:
    """Wire the shipped compilers into the runtime seam (idempotent)."""
    from repro.core.complexity import run_trial
    from repro.core.traffic import run_traffic_trial
    from repro.runtime.chunkexec import register_chunk_kernel

    register_chunk_kernel(run_trial, compile_trial_chunk)
    register_chunk_kernel(run_traffic_trial, compile_trial_chunk)


_register_builtin_kernels()
