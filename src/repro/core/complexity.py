"""Routing-complexity measurement (Definition 2 of the paper).

The routing complexity of an algorithm ``A`` w.r.t. vertices ``u, v`` is
the number of probes ``A`` makes in ``G_p``, **conditioned on the event
{u ~ v}**.  Its distribution is estimated by rejection sampling:

1. draw an independent percolation per trial (seeded, replayable);
2. establish ground truth for ``{u ~ v}`` (a cluster BFS independent of
   the router — or, for complete routers, the router's own verdict; the
   A1 ablation confirms the two agree);
3. keep only connected trials; run the router with a probe budget and
   record queries, success and censoring.

The measurement is split into three phases so a single (graph, p)
sweep point can fan its trials out across worker processes:

* :func:`complexity_specs` emits one :class:`~repro.runtime.TrialSpec`
  per trial, each carrying its own seed derived up front from the
  master seed — the rejection-sampling hot loop is the parallel unit.
  The shared context (graph, router, pair, factory, conditioning) is
  frozen into one :class:`~repro.runtime.Workload` for the whole group,
  and a spec carries only its ``(trial, seed)`` tail: a pickled chunk
  writes the graph once, not once per trial;
* :func:`run_trial` is the pure per-trial kernel (one percolation draw,
  one conditioning check, at most one routing attempt) executed by a
  :class:`~repro.runtime.TrialRunner`, in any process;
* :func:`assemble_measurement` folds the :class:`TrialRecord` stream —
  returned in deterministic trial order by every runner — back into a
  :class:`ComplexityMeasurement`.

:func:`measure_complexity` composes the three for callers that want the
classic one-call interface: its trials run on a serial runner in the
calling process, or on the ``runner=`` passed to parallelise it.  The
result keeps every per-trial record so experiments can compute CDFs
(needed to compare against the Lemma 5 bound) as well as summaries.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic import TrafficResult

from repro.core.result import RoutingResult
from repro.core.router import Router
from repro.graphs.base import Graph, Vertex
from repro.percolation.cluster import connected
from repro.percolation.models import (
    HashPercolation,
    PercolationModel,
    TablePercolation,
)
from repro.runtime import SerialRunner, TrialRunner, TrialSpec, Workload
from repro.util.rng import derive_seed
from repro.util.stats import Summary, proportion_ci, summarize

__all__ = [
    "ComplexityMeasurement",
    "TrialRecord",
    "assemble_measurement",
    "complexity_specs",
    "measure_complexity",
    "run_trial",
]

ModelFactory = Callable[[Graph, float, int], PercolationModel]


@dataclass(frozen=True)
class TrialRecord:
    """One percolation draw and (if conditioned in) one routing attempt.

    Single-pair trials carry their attempt in ``result``; demand-matrix
    trials (:func:`repro.core.traffic.run_traffic_trial`) carry their
    per-commodity outcome in ``traffic`` instead (``result`` stays
    ``None`` and ``connected`` means every commodity was delivered).
    """

    trial: int
    seed: int
    connected: bool
    result: RoutingResult | None = None
    traffic: "TrafficResult | None" = None

    @property
    def attempted(self) -> bool:
        return self.result is not None

    def __repr__(self) -> str:
        # Byte-stable with the pre-traffic dataclass repr: single-pair
        # records (traffic=None) must render identically to before the
        # field existed — the golden record streams and repr-parity
        # gates pin those bytes.
        base = (
            f"TrialRecord(trial={self.trial!r}, seed={self.seed!r}, "
            f"connected={self.connected!r}, result={self.result!r}"
        )
        if self.traffic is None:
            return base + ")"
        return base + f", traffic={self.traffic!r})"


@dataclass
class ComplexityMeasurement:
    """All trials of one (graph, p, router, pair) measurement."""

    graph_name: str
    router_name: str
    p: float
    source: Vertex
    target: Vertex
    budget: int | None
    records: list[TrialRecord] = field(default_factory=list)

    # -- derived statistics ------------------------------------------------

    @property
    def trials(self) -> int:
        """Total percolation draws (before conditioning)."""
        return len(self.records)

    @property
    def connected_trials(self) -> int:
        """Trials where ``u ~ v`` held (the conditioning event)."""
        return sum(r.connected for r in self.records)

    @property
    def connection_rate(self) -> float:
        """Empirical ``Pr[u ~ v]``."""
        if not self.records:
            raise ValueError("no trials recorded")
        return self.connected_trials / self.trials

    def successes(self) -> list[RoutingResult]:
        """Routing attempts that found a path."""
        return [
            r.result
            for r in self.records
            if r.result is not None and r.result.success
        ]

    @property
    def success_rate(self) -> float:
        """Fraction of *conditioned* trials in which the router succeeded.

        For a complete router with no budget this is 1 by definition;
        for the waypoint routers it reproduces the paper's "with
        probability 1 - exp(-c n^{1-α})" statements.
        """
        attempted = [r for r in self.records if r.attempted]
        if not attempted:
            raise ValueError("no conditioned trials; cannot compute rate")
        return len(self.successes()) / len(attempted)

    def success_rate_ci(self) -> tuple[float, float, float]:
        """Wilson 95% CI of :attr:`success_rate`."""
        attempted = sum(r.attempted for r in self.records)
        return proportion_ci(len(self.successes()), attempted)

    @property
    def censored_trials(self) -> int:
        """Attempts cut off by the probe budget (complexity ≥ budget)."""
        return sum(
            1
            for r in self.records
            if r.result is not None and r.result.censored
        )

    def query_counts(self, include_censored: bool = False) -> list[int]:
        """Per-attempt query counts (successes; optionally censored too).

        Censored counts are lower bounds on the true complexity, so
        including them *under-estimates* heavy tails — exactly the safe
        direction when demonstrating a lower bound.
        """
        counts = [res.queries for res in self.successes()]
        if include_censored:
            counts += [
                r.result.queries
                for r in self.records
                if r.result is not None and r.result.censored
            ]
        return counts

    def query_summary(self, include_censored: bool = False) -> Summary:
        """Summary statistics of the query distribution."""
        return summarize(self.query_counts(include_censored))

    def empirical_cdf(self, thresholds: Sequence[int]) -> list[float]:
        """Return ``Pr[X < t]`` for each ``t``, over conditioned trials.

        Censored attempts count as ``X >= budget``, which is exact as
        long as ``t <= budget`` — the regime the Lemma 5 comparison uses.
        """
        attempted = [r.result for r in self.records if r.result is not None]
        if not attempted:
            raise ValueError("no conditioned trials; CDF undefined")
        out = []
        for t in thresholds:
            below = sum(
                1 for res in attempted if res.success and res.queries < t
            )
            out.append(below / len(attempted))
        return out

    def path_lengths(self) -> list[int]:
        """Lengths of the found paths."""
        return [res.path_length for res in self.successes()]


def _validate(trials: int, router: Router, budget, conditioning: str) -> None:
    if trials < 1:
        raise ValueError("need at least one trial")
    if conditioning not in ("exact", "router", "none"):
        raise ValueError(f"unknown conditioning mode {conditioning!r}")
    if conditioning == "router" and not router.is_complete:
        raise ValueError(
            f"router {router.name!r} is not complete; its failures do not "
            "certify disconnection"
        )
    if conditioning == "router" and budget is not None:
        raise ValueError("router conditioning requires an unbounded budget")


def run_trial(
    graph: Graph,
    p: float,
    router: Router,
    source: Vertex,
    target: Vertex,
    trial: int,
    trial_seed: int,
    budget: int | None = None,
    model_factory: ModelFactory | None = None,
    conditioning: str = "exact",
) -> TrialRecord:
    """Execute one trial: percolate, condition, (maybe) route.

    The per-trial kernel of the measurement — a pure function of its
    arguments, so the same trial computes the same
    :class:`TrialRecord` in any process.  ``trial_seed`` is the seed
    already derived for this trial index (see :func:`complexity_specs`).
    """
    factory = model_factory or _default_factory(graph)
    model = factory(graph, p, trial_seed)
    if conditioning == "exact":
        is_conn = connected(model, source, target)
        result = None
        if is_conn:
            result = router.route(model, source, target, budget=budget)
    elif conditioning == "router":
        result = router.route(model, source, target, budget=None)
        is_conn = result.success
    else:  # "none"
        result = router.route(model, source, target, budget=budget)
        is_conn = result.success  # best-effort marker
    return TrialRecord(
        trial=trial, seed=trial_seed, connected=is_conn, result=result
    )


def complexity_specs(
    graph: Graph,
    p: float,
    router: Router,
    pair: tuple[Vertex, Vertex] | None = None,
    trials: int = 20,
    seed: int = 0,
    budget: int | None = None,
    model_factory: ModelFactory | None = None,
    conditioning: str = "exact",
    key: tuple = ("complexity",),
) -> list[TrialSpec]:
    """Emit one :class:`TrialSpec` per trial of a measurement.

    Each spec calls :func:`run_trial` with the seed for its trial index
    derived up front (``derive_seed(seed, "complexity", t)`` — the same
    derivation the classic inline loop used, so the emitted stream
    reproduces it bit for bit).  Spec keys are ``key + (t,)``; pass the
    sweep-point label as ``key`` so error reports identify the point.

    The measurement context — graph, router, pair, budget, factory,
    conditioning — is emitted once as a shared
    :class:`~repro.runtime.Workload` referenced by every spec of the
    group, so a pickled chunk writes the context once and each spec
    adds only its per-trial ``(t, seed)`` tail; see
    :mod:`repro.runtime.workload`.  Demand-matrix trials emit through
    :func:`~repro.core.traffic.traffic_specs` instead.
    """
    _validate(trials, router, budget, conditioning)
    source, target = pair if pair is not None else graph.canonical_pair()
    factory = model_factory or _default_factory(graph)
    workload = Workload(
        fn=run_trial,
        args=(graph, p, router, source, target),
        kwargs={
            "budget": budget,
            "model_factory": factory,
            "conditioning": conditioning,
        },
    )
    return [
        TrialSpec(
            key=tuple(key) + (t,),
            args=(t, derive_seed(seed, "complexity", t)),
            workload=workload,
        )
        for t in range(trials)
    ]


def assemble_measurement(
    graph: Graph,
    p: float,
    router: Router,
    records: Iterable[TrialRecord],
    pair: tuple[Vertex, Vertex] | None = None,
    budget: int | None = None,
    max_conditioned: int | None = None,
) -> ComplexityMeasurement:
    """Fold a trial-ordered :class:`TrialRecord` stream into a measurement.

    ``records`` must be in trial order (every runner returns results in
    submission order, so ``runner.run_values(complexity_specs(...))``
    qualifies).  ``max_conditioned`` truncates the stream right after
    the record in which the ``max_conditioned``-th conditioned attempt
    happened — the same cut the classic early-stopping loop made, since
    trials are independent.
    """
    source, target = pair if pair is not None else graph.canonical_pair()
    measurement = ComplexityMeasurement(
        graph_name=graph.name,
        router_name=router.name,
        p=p,
        source=source,
        target=target,
        budget=budget,
    )
    attempted = 0
    for record in records:
        measurement.records.append(record)
        attempted += record.attempted
        if max_conditioned is not None and attempted >= max_conditioned:
            break
    return measurement


def measure_complexity(
    graph: Graph,
    p: float,
    router: Router,
    pair: tuple[Vertex, Vertex] | None = None,
    trials: int = 20,
    seed: int = 0,
    budget: int | None = None,
    model_factory: ModelFactory | None = None,
    conditioning: str = "exact",
    max_conditioned: int | None = None,
    runner: TrialRunner | None = None,
) -> ComplexityMeasurement:
    """Estimate the routing complexity of ``router`` on ``graph`` at ``p``.

    Composes :func:`complexity_specs` → runner →
    :func:`assemble_measurement`; the result is identical for any
    runner and worker count (see the :mod:`repro.runtime` contract).

    Parameters
    ----------
    pair:
        (source, target); defaults to ``graph.canonical_pair()``.
    trials:
        Number of independent percolation draws **before** conditioning.
    budget:
        Probe budget per attempt (None = unbounded; only safe for
        complete routers on enumerable graphs).
    model_factory:
        How to percolate; default :class:`TablePercolation` for graphs
        that enumerate fewer than ~2·10⁶ edges, else lazy hashing.
    conditioning:
        ``"exact"`` — ground-truth cluster BFS decides ``{u ~ v}``;
        ``"router"`` — a *complete* router's own verdict decides (runs
        the router on every draw; failures certify disconnection);
        ``"none"`` — no conditioning (every draw is attempted and
        recorded as connected-unknown; used by threshold scans where
        disconnection itself is the signal).
    max_conditioned:
        Stop early once this many conditioned trials were attempted:
        every trial runs (they are scheduled up front, as one batch)
        and the record stream is truncated right after the
        ``max_conditioned``-th attempt.
    runner:
        A :class:`~repro.runtime.TrialRunner` to execute the trials;
        ``None`` runs them on a :class:`~repro.runtime.SerialRunner`
        in the calling process, through the chunk kernel where the
        workload has one.
    """
    specs = complexity_specs(
        graph,
        p,
        router,
        pair=pair,
        trials=trials,
        seed=seed,
        budget=budget,
        model_factory=model_factory,
        conditioning=conditioning,
    )
    if runner is None:
        runner = SerialRunner()
    return assemble_measurement(
        graph,
        p,
        router,
        runner.run_values(specs),
        pair=pair,
        budget=budget,
        max_conditioned=max_conditioned,
    )


def _default_factory(graph: Graph) -> ModelFactory:
    """Materialise small graphs; hash lazily on big ones."""
    try:
        too_big = graph.num_vertices() > 2_000_000
    except (OverflowError, ValueError):  # pragma: no cover - defensive
        too_big = True
    if too_big:
        return HashPercolation
    return TablePercolation
