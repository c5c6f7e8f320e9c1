"""The paper's core contribution: the routing-complexity framework.

* :mod:`repro.core.probe` — the probe/query model.  Routers learn edge
  states only through a counting oracle; the *local* oracle enforces
  Definition 1 (probes must touch the established open cluster of the
  source) as a hard runtime invariant.
* :mod:`repro.core.router` — the algorithm interface; running a router
  validates any returned path against the percolation (open edges,
  correct endpoints), so measurements cannot be silently wrong.
* :mod:`repro.core.result` — results, failure taxonomy, loop erasure.
* :mod:`repro.core.complexity` — Definition 2 made executable:
  rejection-sampled estimation of query distributions conditioned on
  ``{u ~ v}``, split into per-trial work units (spec emission → pure
  trial kernel → deterministic reassembly) so sweeps parallelise.
* :mod:`repro.core.traffic` — the per-trial unit generalised to a
  demand matrix: seeded permutation / hotspot / all-to-all generators,
  one independent ``Router.route`` per commodity, and congestion
  metrics (routability, max/mean link load, probes per delivered
  commodity) — the single pair is the one-commodity case.
* :mod:`repro.core.lower_bounds` — Lemma 5 as an empirical certificate:
  estimate ``η``, ``Pr[(u~v) ∈ S]`` and ``Pr[u ~ v]`` for a concrete cut
  and obtain a CDF bound every local router must respect.
"""

from repro.core.complexity import (
    ComplexityMeasurement,
    TrialRecord,
    assemble_measurement,
    complexity_specs,
    measure_complexity,
    run_trial,
)
from repro.core.lower_bounds import (
    Lemma5Certificate,
    ball,
    cut_edges,
    estimate_certificate,
)
from repro.core.probe import (
    LocalityViolation,
    LocalProbeOracle,
    ProbeBudgetExceeded,
    ProbeOracle,
)
from repro.core.result import (
    FailureReason,
    InvalidPathError,
    RoutingResult,
    erase_loops,
    validate_path,
)
from repro.core.router import Router
from repro.core.traffic import (
    AllToAllTraffic,
    DemandMatrix,
    FixedTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TrafficMeasurement,
    TrafficResult,
    assemble_traffic,
    run_traffic_trial,
    summarize_traffic,
    traffic_specs,
)

__all__ = [
    "AllToAllTraffic",
    "ComplexityMeasurement",
    "DemandMatrix",
    "FailureReason",
    "FixedTraffic",
    "HotspotTraffic",
    "InvalidPathError",
    "Lemma5Certificate",
    "LocalProbeOracle",
    "LocalityViolation",
    "PermutationTraffic",
    "ProbeBudgetExceeded",
    "ProbeOracle",
    "Router",
    "RoutingResult",
    "TrafficMeasurement",
    "TrafficResult",
    "TrialRecord",
    "assemble_measurement",
    "assemble_traffic",
    "ball",
    "complexity_specs",
    "cut_edges",
    "erase_loops",
    "estimate_certificate",
    "measure_complexity",
    "run_trial",
    "run_traffic_trial",
    "summarize_traffic",
    "traffic_specs",
    "validate_path",
]
