"""Registry of all experiments (the index ``repro list`` prints).

Experiment modules in :mod:`repro.experiments.defs` register themselves
at import; :func:`all_experiments` imports every module of that package
on first use, so importing :mod:`repro` stays cheap and a new
definition needs no entry anywhere else.
"""

from __future__ import annotations

import importlib
import pkgutil

from repro.experiments import defs
from repro.experiments.spec import ExperimentSpec

__all__ = ["all_experiments", "get_experiment", "register"]

_REGISTRY: dict[str, ExperimentSpec] = {}

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
    for module in pkgutil.iter_modules(defs.__path__, defs.__name__ + "."):
        importlib.import_module(module.name)
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
