"""Demand-matrix trials: many-commodity routing under load.

The paper measures one ``(source, target)`` probe per percolation draw;
a production network routes a **demand matrix**.  This module makes
"route a demand matrix" the per-trial unit while keeping the existing
single-pair machinery as the degenerate one-commodity case:

* :class:`DemandMatrix` — an ordered tuple of commodities, each a
  ``(source, target)`` pair routed independently over the same
  percolated graph;
* the demand *generators* (:class:`PermutationTraffic`,
  :class:`HotspotTraffic`, :class:`AllToAllTraffic`,
  :class:`FixedTraffic`) — frozen, picklable factories called as
  ``factory(graph, trial_seed)``, drawing their randomness from the
  same keyed-BLAKE2b streams as everything else
  (:func:`repro.util.rng.uniform_for`), so a trial's demands are a pure
  function of ``(master seed, labels, trial)``;
* :class:`TrafficResult` — the per-trial outcome: delivered fraction
  (*routability*), per-commodity query counts, and link congestion
  (max / mean link load over the delivered paths);
* :func:`run_traffic_trial` — the pure per-trial kernel (one
  percolation draw, one demand draw, one
  :meth:`~repro.core.router.Router.route` call per commodity), executed
  by any runner in any process;
* :func:`traffic_specs` / :func:`assemble_traffic` — the spec-emission
  and reassembly halves, mirroring
  :func:`~repro.core.complexity.complexity_specs` exactly (slim
  ``(trial, seed)`` tails against one shared workload), so demand
  trials inherit the parity, conformance, cluster and caching gates
  unchanged.

Congestion accounting is centralised in :func:`summarize_traffic`: both
the per-trial path and the chunk kernel
(:mod:`repro.kernels.complexity`, which routes a probe pair and a
demand matrix through the same engines) feed their per-commodity
:class:`~repro.core.result.RoutingResult` lists through this one
function, so the derived floats are bit-identical by construction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.complexity import (
    ModelFactory,
    TrialRecord,
    _default_factory,
)
from repro.core.result import RoutingResult
from repro.core.router import Router
from repro.graphs.base import Graph, Vertex
from repro.runtime import TrialSpec, Workload
from repro.util.rng import derive_seed, uniform_for

__all__ = [
    "AllToAllTraffic",
    "DemandMatrix",
    "FixedTraffic",
    "HotspotTraffic",
    "PermutationTraffic",
    "TrafficMeasurement",
    "TrafficResult",
    "assemble_traffic",
    "run_traffic_trial",
    "summarize_traffic",
    "traffic_specs",
]


@dataclass(frozen=True)
class DemandMatrix:
    """An ordered set of commodities to route over one percolation.

    Each pair is routed independently (fresh oracle, independent probe
    accounting); the *order* is part of the value — per-commodity
    results line up index for index.
    """

    pairs: tuple[tuple[Vertex, Vertex], ...]

    @property
    def commodities(self) -> int:
        return len(self.pairs)

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("demand matrix needs at least one commodity")


_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


def _shuffled_vertices(graph: Graph, trial_seed: int) -> list[Vertex]:
    """The graph's vertices in a seeded, deterministic random order.

    One BLAKE2b derivation per trial seeds a SplitMix64 stream; each
    vertex's sort key is the stream word at its position in the graph's
    (deterministic) enumeration.  The order is a pure function of
    ``(trial_seed, graph)``, identical in every process, and costs one
    hash plus a vectorized mix instead of a hash per vertex.  SplitMix64
    is a bijection on 64-bit words, so the keys are tie-free.
    """
    canonical = list(graph.vertices())
    stream = np.uint64(derive_seed(trial_seed, "traffic", "order"))
    x = stream + np.arange(len(canonical), dtype=np.uint64) * _SPLITMIX_GAMMA
    z = (x ^ (x >> np.uint64(30))) * _SPLITMIX_M1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_M2
    z ^= z >> np.uint64(31)
    return [canonical[i] for i in np.argsort(z, kind="stable")]


@dataclass(frozen=True)
class FixedTraffic:
    """A constant demand matrix, ignoring the trial seed.

    The degenerate bridge to the classic measurement: a one-pair
    ``FixedTraffic`` makes :func:`run_traffic_trial` route exactly the
    probe :func:`~repro.core.complexity.run_trial` routes (under
    ``conditioning="none"``) — the single-pair path as the
    one-commodity case.
    """

    pairs: tuple[tuple[Vertex, Vertex], ...]

    def __call__(self, graph: Graph, trial_seed: int) -> DemandMatrix:
        for source, target in self.pairs:
            graph._require_vertex(source)
            graph._require_vertex(target)
        return DemandMatrix(self.pairs)


@dataclass(frozen=True)
class PermutationTraffic:
    """``commodities`` sources each sending to one distinct receiver.

    A seeded vertex shuffle picks the participants; commodity ``i``
    sends from ``order[i]`` to ``order[i+1 mod commodities]`` — a
    single cycle, so the demand is a fixed-point-free partial
    permutation with every participant sending and receiving exactly
    once.
    """

    commodities: int

    def __call__(self, graph: Graph, trial_seed: int) -> DemandMatrix:
        c = self.commodities
        if c < 1:
            raise ValueError("need at least one commodity")
        order = _shuffled_vertices(graph, trial_seed)
        if len(order) < max(2, c):
            raise ValueError(
                f"graph has {len(order)} vertices; cannot host "
                f"{c} permutation commodities"
            )
        if c == 1:
            return DemandMatrix(((order[0], order[1]),))
        chosen = order[:c]
        return DemandMatrix(
            tuple((chosen[i], chosen[(i + 1) % c]) for i in range(c))
        )


@dataclass(frozen=True)
class HotspotTraffic:
    """Permutation traffic skewed toward one hot receiver.

    The seeded shuffle's first vertex is the hotspot; each of the
    ``commodities`` senders (the next vertices of the shuffle) targets
    the hotspot with probability ``skew`` — an independent per-commodity
    BLAKE2b coin — and its cyclic permutation partner otherwise.
    ``skew=0`` recovers permutation traffic among the senders;
    ``skew=1`` is full incast, every flow converging on one vertex.
    """

    commodities: int
    skew: float

    def __call__(self, graph: Graph, trial_seed: int) -> DemandMatrix:
        c = self.commodities
        if c < 1:
            raise ValueError("need at least one commodity")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError(f"skew must be in [0, 1], got {self.skew!r}")
        order = _shuffled_vertices(graph, trial_seed)
        if len(order) < c + 1:
            raise ValueError(
                f"graph has {len(order)} vertices; cannot host a hotspot "
                f"plus {c} senders"
            )
        hotspot = order[0]
        senders = order[1 : c + 1]
        pairs = []
        for i, sender in enumerate(senders):
            partner = senders[(i + 1) % c]
            hot = uniform_for(trial_seed, "traffic", "hot", i) < self.skew
            if hot or partner == sender:
                pairs.append((sender, hotspot))
            else:
                pairs.append((sender, partner))
        return DemandMatrix(tuple(pairs))


@dataclass(frozen=True)
class AllToAllTraffic:
    """Every ordered pair among a seeded group of ``group`` vertices.

    ``group * (group - 1)`` commodities — the densest workload shape,
    for capacity questions where total offered load matters more than
    who sends to whom.
    """

    group: int

    def __call__(self, graph: Graph, trial_seed: int) -> DemandMatrix:
        g = self.group
        if g < 2:
            raise ValueError("all-to-all needs a group of at least two")
        order = _shuffled_vertices(graph, trial_seed)
        if len(order) < g:
            raise ValueError(
                f"graph has {len(order)} vertices; cannot host an "
                f"all-to-all group of {g}"
            )
        members = order[:g]
        return DemandMatrix(
            tuple((a, b) for a in members for b in members if a != b)
        )


@dataclass(frozen=True)
class TrafficResult:
    """One trial's demand-matrix outcome: delivery plus congestion.

    ``queries`` and ``delivered`` line up with the demand matrix's
    commodity order.  Link loads count delivered paths crossing each
    undirected edge; ``mean_link_load`` averages over *all* graph
    edges (idle links included), so it is total carried hops divided
    by capacity.
    """

    commodities: int
    delivered: int
    queries: tuple[int, ...]
    delivered_mask: tuple[bool, ...]
    max_link_load: int
    mean_link_load: float

    @property
    def routability(self) -> float:
        """Delivered fraction of the offered commodities."""
        return self.delivered / self.commodities

    @property
    def total_queries(self) -> int:
        return sum(self.queries)

    @property
    def queries_per_delivered(self) -> float:
        """Probe cost per delivered commodity (NaN if none delivered)."""
        if not self.delivered:
            return float("nan")
        return self.total_queries / self.delivered

    def __post_init__(self) -> None:
        if len(self.queries) != self.commodities:
            raise ValueError("queries must cover every commodity")
        if len(self.delivered_mask) != self.commodities:
            raise ValueError("delivered_mask must cover every commodity")
        if self.delivered != sum(self.delivered_mask):
            raise ValueError("delivered must equal the mask's popcount")


def summarize_traffic(
    graph: Graph, results: Sequence[RoutingResult]
) -> TrafficResult:
    """Fold per-commodity routing results into one :class:`TrafficResult`.

    The **single** congestion accountant: both the per-trial path and
    the chunk kernel call this on their (identical) result lists, so
    every derived number — including the one float division behind
    ``mean_link_load`` — is computed exactly once, the same way, on
    both paths.
    """
    loads: dict = {}
    for res in results:
        if res.success and res.path is not None:
            for a, b in zip(res.path, res.path[1:]):
                k = graph.edge_key(a, b)
                loads[k] = loads.get(k, 0) + 1
    carried = sum(loads.values())
    return TrafficResult(
        commodities=len(results),
        delivered=sum(1 for res in results if res.success),
        queries=tuple(res.queries for res in results),
        delivered_mask=tuple(bool(res.success) for res in results),
        max_link_load=max(loads.values(), default=0),
        mean_link_load=carried / graph.num_edges(),
    )


def run_traffic_trial(
    graph: Graph,
    p: float,
    router: Router,
    demand_factory,
    trial: int,
    trial_seed: int,
    budget: int | None = None,
    model_factory: ModelFactory | None = None,
) -> TrialRecord:
    """Execute one demand-matrix trial: percolate, draw demands, route.

    The traffic counterpart of :func:`~repro.core.complexity.run_trial`
    — a pure function of its arguments, so the same trial computes the
    same :class:`~repro.core.complexity.TrialRecord` in any process.
    There is no conditioning step: every commodity is attempted, and
    partial delivery *is* the measurement.  ``record.connected`` means
    full delivery (every commodity routed); ``record.result`` stays
    ``None`` — the per-commodity outcomes live in ``record.traffic``.
    """
    factory = model_factory or _default_factory(graph)
    model = factory(graph, p, trial_seed)
    demands = demand_factory(graph, trial_seed)
    # Commodities are independent: a fresh oracle and probe count each.
    results = [
        router.route(model, source, target, budget=budget)
        for source, target in demands.pairs
    ]
    traffic = summarize_traffic(graph, results)
    return TrialRecord(
        trial=trial,
        seed=trial_seed,
        connected=traffic.delivered == traffic.commodities,
        result=None,
        traffic=traffic,
    )


def traffic_specs(
    graph: Graph,
    p: float,
    router: Router,
    demands,
    trials: int = 20,
    seed: int = 0,
    budget: int | None = None,
    model_factory: ModelFactory | None = None,
    key: tuple = ("traffic",),
) -> list[TrialSpec]:
    """Emit one :class:`TrialSpec` per demand-matrix trial.

    The traffic twin of :func:`~repro.core.complexity.complexity_specs`:
    the shared context — graph, router, demand factory, budget,
    percolation factory — is frozen into one
    :class:`~repro.runtime.Workload`, and each spec carries only its
    ``(t, derive_seed(seed, "traffic", t))`` tail, so demand trials
    ride the same chunk-kernel seam, cluster wire and result cache as
    single-pair trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not callable(demands):
        raise ValueError(
            f"demands must be a demand factory callable, got {demands!r}"
        )
    factory = model_factory or _default_factory(graph)
    workload = Workload(
        fn=run_traffic_trial,
        args=(graph, p, router, demands),
        kwargs={"budget": budget, "model_factory": factory},
    )
    return [
        TrialSpec(
            key=tuple(key) + (t,),
            args=(t, derive_seed(seed, "traffic", t)),
            workload=workload,
        )
        for t in range(trials)
    ]


@dataclass
class TrafficMeasurement:
    """All trials of one (graph, p, router, demands) traffic sweep point."""

    graph_name: str
    router_name: str
    p: float
    budget: int | None
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return len(self.records)

    def traffics(self) -> list[TrafficResult]:
        return [r.traffic for r in self.records if r.traffic is not None]

    @property
    def offered(self) -> int:
        """Total commodities offered across trials."""
        return sum(t.commodities for t in self.traffics())

    @property
    def delivered(self) -> int:
        """Total commodities delivered across trials."""
        return sum(t.delivered for t in self.traffics())

    @property
    def routability(self) -> float:
        """Pooled delivered fraction over every offered commodity."""
        offered = self.offered
        if not offered:
            raise ValueError("no traffic trials recorded")
        return self.delivered / offered

    @property
    def full_delivery_rate(self) -> float:
        """Fraction of trials in which *every* commodity was delivered."""
        traffics = self.traffics()
        if not traffics:
            raise ValueError("no traffic trials recorded")
        full = sum(1 for t in traffics if t.delivered == t.commodities)
        return full / len(traffics)

    def median_queries_per_delivered(self) -> float:
        """Median per-trial probe cost per delivered commodity.

        Trials that delivered nothing carry no cost-per-delivery signal
        and are excluded; NaN if no trial delivered anything.
        """
        values = sorted(
            t.queries_per_delivered for t in self.traffics() if t.delivered
        )
        return _median(values)

    def max_link_load(self) -> int:
        """The worst link congestion seen in any trial."""
        return max((t.max_link_load for t in self.traffics()), default=0)

    def median_max_link_load(self) -> float:
        """Median over trials of the per-trial max link load."""
        return _median(sorted(float(t.max_link_load) for t in self.traffics()))

    def mean_link_load(self) -> float:
        """Mean over trials of the per-trial mean link load."""
        traffics = self.traffics()
        if not traffics:
            return float("nan")
        return sum(t.mean_link_load for t in traffics) / len(traffics)


def _median(ordered: list[float]) -> float:
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def assemble_traffic(
    graph: Graph,
    p: float,
    router: Router,
    records,
    budget: int | None = None,
) -> TrafficMeasurement:
    """Fold a trial-ordered record stream into a measurement.

    ``records`` must be in trial order — every runner returns results
    in submission order, so ``runner.run_values(traffic_specs(...))``
    (or the ``run_grouped`` group) qualifies.
    """
    measurement = TrafficMeasurement(
        graph_name=graph.name,
        router_name=router.name,
        p=p,
        budget=budget,
    )
    for record in records:
        if record.traffic is None:
            raise ValueError(
                f"trial {record.trial} carries no traffic result; "
                "assemble_traffic folds demand-matrix records only"
            )
        measurement.records.append(record)
    return measurement
