"""The benchmark's workloads: what each one runs, built from its seed.

Each workload is fixed work — a list of experiment tables to compute,
or a fixed job schedule against a served cache — so its wall clock is
comparable across runs.  The workload seed picks which experiment
seeds (and, for the service, which job order) a run uses, from a fixed
pool whose reference table digests are committed in
``reference.json``.

* ``suite-small-serial`` — every registered definition at ``small``
  on one shared ``SerialRunner``: what ``repro run all --scale small``
  does.  Most of its time is in the per-trial fallback layers.
* ``kernel-medium-serial`` — the nine fully kernel-eligible
  definitions at ``medium``, serial: the draw, conditioning and
  routing kernels do most of the work.
* ``serve-mixed`` — an in-process ``repro serve`` on the serial
  backend with a fresh cache, driven by two closed-loop clients with a
  mix of cold keys, repeats and E1 ``alphas=`` partial overlaps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Experiment seeds a run may use; the workload seed picks among them.
EXPERIMENT_SEEDS = (0, 1, 2, 3)

SUITE_SCALE = "small"

#: Fully kernel-eligible definitions (E8 left out: 33 s on its own).
KERNEL_IDS = ("E1", "E3", "E4", "E7", "E14", "E18", "E19", "A2", "A4")
KERNEL_SCALE = "medium"

SERVE_IDS = ("E1", "E3", "E14", "E18")
SERVE_SCALE = "small"

#: E1 ``alphas=`` sweeps overlapping the default small sweep
#: (0.2 .. 0.8): each reads the shared points and computes the rest.
E1_PARTIALS = (
    {"alphas": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
    {"alphas": [0.45, 0.5, 0.55]},
)

#: Hits per client, by experiment.  E1 holds the middle half of the
#: hit latencies, so hit_p50_ms lands inside one experiment's cluster
#: rather than on the boundary between two; hits are most of the jobs,
#: so a run averages over many of them.
HIT_WEIGHTS = {"E18": 27, "E14": 27, "E1": 66, "E3": 12}

def experiment_seed(seed: int, offset: int = 0) -> int:
    """The experiment seed a workload seed maps to."""
    return EXPERIMENT_SEEDS[(seed + offset) % len(EXPERIMENT_SEEDS)]


@dataclass(frozen=True)
class Job:
    """One served job: an experiment key plus its expected kind."""

    experiment: str
    seed: int
    overrides: dict = field(default_factory=dict)
    #: "cold" (computes every point), "partial" (reads some points and
    #: computes the rest) or "hit" (served from cache).
    kind: str = "hit"

    @property
    def key(self) -> str:
        return reference_key(
            self.experiment, SERVE_SCALE, self.seed, self.overrides
        )


def suite_plan(seed: int) -> tuple[str, int, list[str] | None]:
    """``(scale, experiment seed, ids)``; ``None`` ids = every def."""
    return SUITE_SCALE, experiment_seed(seed), None


def kernel_plan(seed: int) -> tuple[str, int, list[str]]:
    return KERNEL_SCALE, experiment_seed(seed), list(KERNEL_IDS)


def client_schedule(seed: int, client: int) -> list[Job]:
    """The job list of one serve client, built from the workload seed.

    Each client owns its keys (client ``c`` uses experiment seed
    ``experiment_seed(seed, 2 * c)``), so it only repeats keys it has
    computed itself: no job ever coalesces onto another client's
    in-flight job, and the hit/miss split is the same on every run.
    Client 0 computes all four experiments and both E1 partials;
    client 1 skips E3 and the second partial, keeping the run short.
    """
    rng = random.Random(f"perfbench-serve-{seed}-{client}")
    job_seed = experiment_seed(seed, 2 * client)
    cold_ids = list(SERVE_IDS) if client == 0 else ["E1", "E14", "E18"]
    partials = E1_PARTIALS if client == 0 else E1_PARTIALS[:1]
    rng.shuffle(cold_ids)
    hits = [
        experiment
        for experiment, count in HIT_WEIGHTS.items()
        if experiment in cold_ids
        for _ in range(count)
    ]
    if client == 1:
        # Client 1 has no E3: give its share to E1 so the per-client
        # hit count, and the median's position, stay the same.
        hits += ["E1"] * HIT_WEIGHTS["E3"]
    rng.shuffle(hits)
    # Colds first (so every later hit finds its key cached), then the
    # hits with the partials spread among them.  A partial must follow
    # the cold E1 it overlaps, which the ordering guarantees.
    jobs = [Job(e, job_seed, {}, "cold") for e in cold_ids]
    tail = [Job(e, job_seed, {}, "hit") for e in hits]
    for overrides in partials:
        tail.insert(rng.randrange(len(tail) + 1), Job(
            "E1", job_seed, dict(overrides), "partial"
        ))
    return jobs + tail


def reference_key(
    experiment: str, scale: str, seed: int, overrides: dict | None = None
) -> str:
    """The string a table digest is filed under in ``reference.json``."""
    parts = ",".join(
        f"{name}={overrides[name]}" for name in sorted(overrides or {})
    )
    return f"{experiment}/{scale}/{seed}/{parts}"


def reference_keys(all_ids: list[str]) -> list[tuple[str, str, int, dict]]:
    """Every (experiment, scale, seed, overrides) any shipped seed uses."""
    keys = []
    for seed in EXPERIMENT_SEEDS:
        keys += [(e, SUITE_SCALE, seed, {}) for e in all_ids]
        keys += [(e, KERNEL_SCALE, seed, {}) for e in KERNEL_IDS]
        keys += [("E1", SERVE_SCALE, seed, dict(o)) for o in E1_PARTIALS]
    return keys
