#!/usr/bin/env python3
"""Recompute ``reference.json``: the table digests the gate checks.

Runs every (experiment, scale, seed, overrides) the workloads can use
on a plain ``SerialRunner`` and writes their digests.  Only needed
when a change alters tables on purpose.  Takes a few minutes.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]

from gate import REFERENCE_PATH, table_digest  # noqa: E402
from workloads import reference_key, reference_keys  # noqa: E402


def main() -> None:
    from repro.experiments import all_experiments, get_experiment
    from repro.runtime import SerialRunner

    ids = [spec.experiment_id for spec in all_experiments()]
    digests = {}
    start = time.perf_counter()
    with SerialRunner() as runner:
        for experiment, scale, seed, overrides in reference_keys(ids):
            key = reference_key(experiment, scale, seed, overrides)
            table = get_experiment(experiment)(
                scale=scale, seed=seed, runner=runner, **overrides
            )
            digests[key] = table_digest(table.render())
            print(f"{key} {digests[key]}", flush=True)
    payload = {
        "note": "BLAKE2b-128 of table.render() on a SerialRunner; "
        "regenerate with perfbench/make_reference.py",
        "digests": dict(sorted(digests.items())),
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{len(digests)} digests in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
