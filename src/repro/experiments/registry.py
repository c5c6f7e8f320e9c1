"""Registry of all experiments (the index ``repro list`` prints).

Experiment modules in :mod:`repro.experiments.defs` register themselves
at import; :func:`all_experiments` triggers those imports lazily so that
importing :mod:`repro` stays cheap.
"""

from __future__ import annotations

import importlib

from repro.experiments.spec import ExperimentSpec

__all__ = ["all_experiments", "get_experiment", "register"]

_REGISTRY: dict[str, ExperimentSpec] = {}

#: Modules that define experiments (one per index entry).
_DEF_MODULES = (
    "repro.experiments.defs.e01_hypercube_phase",
    "repro.experiments.defs.e02_hypercube_lower",
    "repro.experiments.defs.e03_hypercube_upper",
    "repro.experiments.defs.e04_mesh_linear",
    "repro.experiments.defs.e05_mesh_pc",
    "repro.experiments.defs.e06_tt_threshold",
    "repro.experiments.defs.e07_tt_local",
    "repro.experiments.defs.e08_tt_oracle",
    "repro.experiments.defs.e09_gnp_local",
    "repro.experiments.defs.e10_gnp_oracle",
    "repro.experiments.defs.e11_hypercube_giant",
    "repro.experiments.defs.e12_open_question",
    "repro.experiments.defs.e13_middle_regime",
    "repro.experiments.defs.e14_site_faults",
    "repro.experiments.defs.e15_clos_faults",
    "repro.experiments.defs.e16_correlated_faults",
    "repro.experiments.defs.e17_adversarial_budget",
    "repro.experiments.defs.e18_permutation_traffic",
    "repro.experiments.defs.e19_hotspot_skew",
    "repro.experiments.defs.e20_fault_capacity",
    "repro.experiments.defs.a1_conditioning",
    "repro.experiments.defs.a2_waypoint",
    "repro.experiments.defs.a3_gnp_policies",
    "repro.experiments.defs.a4_boundary",
)

_loaded = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (idempotent per id; conflicts raise)."""
    existing = _REGISTRY.get(spec.experiment_id)
    if existing is not None and existing is not spec:
        raise ValueError(f"duplicate experiment id {spec.experiment_id!r}")
    _REGISTRY[spec.experiment_id] = spec
    return spec


def _load_all() -> None:
    global _loaded
    if _loaded:
        return
    for module in _DEF_MODULES:
        importlib.import_module(module)
    _loaded = True


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Return the spec for an id (case-insensitive)."""
    _load_all()
    key = experiment_id.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[key]


def all_experiments() -> list[ExperimentSpec]:
    """Return all registered specs, in index order (E1..E12, then A1..)."""
    _load_all()

    def sort_key(spec: ExperimentSpec):
        head = spec.experiment_id[0]
        number = int("".join(ch for ch in spec.experiment_id if ch.isdigit()))
        return (0 if head == "E" else 1, number)

    return sorted(_REGISTRY.values(), key=sort_key)
