"""Experiment harness: specs, registry, result tables, CLI.

One experiment per theorem-derived claim — ``repro list`` prints the
index and ``repro report`` writes the results.  Typical use::

    from repro.experiments import get_experiment
    table = get_experiment("E7")(scale="small", seed=0)
    print(table.render())
"""

from repro.experiments.registry import all_experiments, get_experiment, register
from repro.experiments.results import ResultTable
from repro.experiments.spec import SCALES, ExperimentSpec, pick

__all__ = [
    "SCALES",
    "ExperimentSpec",
    "ResultTable",
    "all_experiments",
    "get_experiment",
    "pick",
    "register",
]
