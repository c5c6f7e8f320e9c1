"""Shared infrastructure for the benchmark suite.

Each benchmark regenerates one experiment from the registry in
``repro.experiments.registry`` — the experiment index that ``repro
list`` prints claim by claim (the paper has no numbered tables/figures;
the experiments stand in for them).  Results are printed and persisted under
``results/`` so the series survive pytest's output capture.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — ``tiny`` / ``small`` (default) / ``medium``.
* ``REPRO_BENCH_SEED`` — master seed (default 0).
* ``REPRO_WORKERS`` — worker processes for trial execution (default 1).
  Results are identical for any worker count; see :mod:`repro.runtime`.
* ``REPRO_CHUNKSIZE`` — specs per parallel work unit (default: ~4
  chunks per worker).  Likewise result-invariant.
"""

import os
from pathlib import Path

import pytest

from repro.experiments.registry import get_experiment
from repro.runtime import make_runner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture
def run_experiment(benchmark):
    """Run a registered experiment under pytest-benchmark, persist output.

    Returns the ResultTable so the calling bench can assert its claim.
    """
    runner = make_runner()  # $REPRO_WORKERS, else serial

    def _run(experiment_id: str):
        spec = get_experiment(experiment_id)
        table = benchmark.pedantic(
            lambda: spec(scale=SCALE, seed=SEED, runner=runner),
            rounds=1,
            iterations=1,
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{table.experiment_id.lower()}.txt"
        path.write_text(table.render() + "\n", encoding="utf-8")
        table.to_csv(RESULTS_DIR)
        print()
        print(table.render())
        return table

    return _run
