"""Experiment definitions — one module per experiment of the index.

Modules self-register an :class:`~repro.experiments.spec.ExperimentSpec`
on import; the registry imports them lazily.
"""
