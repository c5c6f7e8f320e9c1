"""Property tests for the result-cache key recipe (repro.serve.digest).

The digest must be *invariant* to representation accidents —
override-dict iteration order, kwargs insertion order — and
*sensitive* to every component a result actually depends on: workload
content, trial count, per-trial seeds, spec keys, scale, master seed,
and the code version.  A key that conflates two different computations
serves wrong results; a key that distinguishes two equal ones only
wastes recomputation — so sensitivity tests are the safety-critical
half.
"""

import pickle
import string
from collections import namedtuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import TrialSpec, Workload
from repro.serve.digest import _canonical, job_key, point_digest
from repro.util.rng import derive_seed

VERSION = "test-code-version"

Pair = namedtuple("Pair", "source target")


# Module-level kernels so workloads content-address by qualified name.
def _kernel(payload, trial, seed):
    return (payload, trial, seed)


def _other_kernel(payload, trial, seed):
    return (payload, trial, seed, "other")


def _specs(payload="ctx", trials=4, seed0=100, kernel=_kernel, label="pt"):
    """One sweep point: a workload + per-trial (trial, seed) tails."""
    workload = Workload(kernel, args=(payload,))
    return [
        TrialSpec(
            key=(label, t), workload=workload, args=(t, seed0 + t)
        )
        for t in range(trials)
    ]


_override_values = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.ascii_lowercase, max_size=6),
    st.lists(st.integers(min_value=0, max_value=9), max_size=4),
)
_overrides = st.dictionaries(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    _override_values,
    max_size=5,
)


class TestOrderInvariance:
    @given(_overrides)
    def test_job_key_ignores_override_insertion_order(self, overrides):
        reversed_build = dict(reversed(list(overrides.items())))
        assert job_key(
            "E1", "tiny", 0, overrides, version=VERSION
        ) == job_key("E1", "tiny", 0, reversed_build, version=VERSION)

    def test_point_digest_is_order_sensitive_within_a_point(self):
        # Trials are ordered data: [t0, t1] is not [t1, t0].
        specs = _specs(trials=2)
        assert point_digest(specs, version=VERSION) != point_digest(
            list(reversed(specs)), version=VERSION
        )

    def test_kwargs_insertion_order_is_not_content(self):
        workload = Workload(_kernel, args=("ctx",))
        a = TrialSpec(
            key=("pt", 0),
            workload=workload,
            kwargs={"x": 1, "y": 2},
        )
        b = TrialSpec(
            key=("pt", 0),
            workload=workload,
            kwargs={"y": 2, "x": 1},
        )
        assert point_digest([a], version=VERSION) == point_digest(
            [b], version=VERSION
        )

    def test_deterministic_across_calls(self):
        assert point_digest(_specs(), version=VERSION) == point_digest(
            _specs(), version=VERSION
        )


class TestSensitivity:
    def test_workload_content(self):
        base = point_digest(_specs(payload="a"), version=VERSION)
        assert base != point_digest(_specs(payload="b"), version=VERSION)
        assert base != point_digest(
            _specs(kernel=_other_kernel), version=VERSION
        )

    def test_trial_count(self):
        assert point_digest(_specs(trials=4), version=VERSION) != (
            point_digest(_specs(trials=5), version=VERSION)
        )

    def test_per_trial_seeds(self):
        assert point_digest(_specs(seed0=100), version=VERSION) != (
            point_digest(_specs(seed0=101), version=VERSION)
        )

    def test_spec_keys(self):
        assert point_digest(_specs(label="pt"), version=VERSION) != (
            point_digest(_specs(label="qt"), version=VERSION)
        )

    def test_code_version(self):
        specs = _specs()
        assert point_digest(specs, version="v1") != point_digest(
            specs, version="v2"
        )

    @given(
        st.sampled_from(["E1", "E2"]),
        st.sampled_from(["tiny", "small"]),
        st.integers(min_value=0, max_value=3),
    )
    def test_job_key_components(self, experiment, scale, seed):
        base = job_key("E1", "tiny", 0, {}, version=VERSION)
        other = job_key(experiment, scale, seed, {}, version=VERSION)
        same = (experiment, scale, seed) == ("E1", "tiny", 0)
        assert (base == other) == same

    def test_job_key_overrides_and_version(self):
        base = job_key("E1", "tiny", 0, {}, version=VERSION)
        assert base != job_key(
            "E1", "tiny", 0, {"trials": 3}, version=VERSION
        )
        assert base != job_key("E1", "tiny", 0, {}, version="other")

    def test_job_key_experiment_id_is_case_insensitive(self):
        assert job_key("e1", "tiny", 0, version=VERSION) == job_key(
            "E1", "tiny", 0, version=VERSION
        )


def _recursive_canonical(value):
    """The reference: every container item canonicalised one by one."""
    if isinstance(value, dict):
        return (
            "__dict__",
            tuple(
                (key, _recursive_canonical(value[key]))
                for key in sorted(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_recursive_canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted(repr(item) for item in value)))
    return value


_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=4),
)
_leaves = st.one_of(
    _atoms,
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.builds(Pair, _atoms, _atoms),
)
_nested = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.text(alphabet=string.ascii_lowercase, max_size=3),
            children,
            max_size=3,
        ),
        st.sets(_atoms, max_size=3),
        st.frozensets(_atoms, max_size=3),
        # One object twice: pickle writes the second as a memo reference.
        children.map(lambda child: [child, child]),
    ),
    max_leaves=16,
)


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(_nested)
    def test_pickles_as_the_recursive_form(self, value):
        assert pickle.dumps(_canonical(value), protocol=4) == pickle.dumps(
            _recursive_canonical(value), protocol=4
        )

    def test_golden_point_digest(self):
        specs = [
            TrialSpec(
                key=("E1", 0.25, 64, trial),
                fn=derive_seed,
                args=(trial, 1000 + trial, [0.5, None, True, b"\x00"]),
                kwargs={
                    "pair": Pair(0, 63),
                    "levels": [(1, 2.5), ("x", False)],
                    "tags": {"b", "a"},
                    "nested": {"z": [1, [2, (3,)]], "a": ()},
                },
            )
            for trial in range(3)
        ]
        assert point_digest(specs, version="v") == (
            "983bfbc9eec11ca2c3ea5f92c6e5f8f6"
        )


class TestCollisionSmoke:
    @settings(deadline=None)
    @given(st.data())
    def test_distinct_points_get_distinct_digests(self, data):
        n = data.draw(st.integers(min_value=2, max_value=20))
        digests = {
            point_digest(
                _specs(
                    payload=f"p{i}",
                    trials=2 + i % 3,
                    seed0=1000 + 7 * i,
                ),
                version=VERSION,
            )
            for i in range(n)
        }
        assert len(digests) == n

    def test_many_job_keys_distinct(self):
        keys = {
            job_key("E1", scale, seed, {"k": v}, version=VERSION)
            for scale in ("tiny", "small", "medium")
            for seed in range(20)
            for v in range(5)
        }
        assert len(keys) == 3 * 20 * 5
