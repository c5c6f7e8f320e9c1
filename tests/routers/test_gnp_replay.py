"""The G(n, p) routers' lean replays against the oracle reference.

On an exact :class:`GnpPercolation` draw the three routers of
:mod:`repro.routers.gnp` replay their probe sequence without a
:class:`~repro.core.probe.ProbeOracle`.  ``Router.route`` called on the
same router runs the oracle-driven ``_route`` and is the reference:
every replayed result must equal it repr for repr (path, query count,
failure reason), budgets and censoring included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probe import ProbeOracle
from repro.core.router import Router
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import GnpPercolation, TablePercolation
from repro.routers.gnp import (
    GnpBidirectionalRouter,
    GnpLocalRouter,
    GnpUnidirectionalRouter,
)

ROUTERS = [
    GnpLocalRouter(),
    GnpUnidirectionalRouter(),
    GnpBidirectionalRouter(),
]


def assert_parity(router, model, source, target, budget):
    replayed = router.route(model, source, target, budget)
    reference = Router.route(router, model, source, target, budget)
    assert repr(replayed) == repr(reference)
    return replayed


@st.composite
def routing_cases(draw):
    n = draw(st.integers(2, 96))
    p = draw(
        st.one_of(
            st.floats(0.0, 8.0).map(lambda c: min(1.0, c / n)),
            st.sampled_from([0.0, 1.0]),
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    pair = draw(st.sampled_from(["canonical", "reversed", "random", "same"]))
    if pair == "canonical":
        source, target = 0, n - 1
    elif pair == "reversed":
        source, target = n - 1, 0
    elif pair == "random":
        source = draw(st.integers(0, n - 1))
        target = draw(st.integers(0, n - 1))
    else:
        source = target = draw(st.integers(0, n - 1))
    budget = draw(
        st.one_of(st.sampled_from([None, 1, 2, 3]), st.integers(1, 3 * n * n))
    )
    return n, p, seed, source, target, budget


@given(routing_cases())
@settings(max_examples=250, deadline=None)
def test_replay_matches_reference(case):
    n, p, seed, source, target, budget = case
    model = GnpPercolation(n=n, p=p, seed=seed)
    for router in ROUTERS:
        assert_parity(router, model, source, target, budget)


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("c", [2.0, 3.0])
def test_replay_matches_reference_on_experiment_sizes(router, n, c):
    for seed in range(4):
        model = GnpPercolation(n=n, p=c / n, seed=seed)
        full = assert_parity(router, model, 0, n - 1, None)
        # Budgets below and at the unbudgeted count hit the censoring
        # rule mid-sequence and on its last probe.
        for budget in {max(1, full.queries // 2), full.queries}:
            assert_parity(router, model, 0, n - 1, budget)
        assert_parity(router, model, n - 1, 0, None)


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
def test_exact_gnp_draw_takes_the_replay(router, monkeypatch):
    # Without this the parity gates would pass trivially if route()
    # always fell back to the reference.
    model = GnpPercolation(n=64, p=3 / 64, seed=2)
    expected = Router.route(router, model, 0, 63)

    def probe(self, u, v):
        raise AssertionError("the replay must not probe through an oracle")

    monkeypatch.setattr(ProbeOracle, "probe", probe)
    assert repr(router.route(model, 0, 63)) == repr(expected)


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
def test_other_models_take_the_reference(router, monkeypatch):
    class Draw(GnpPercolation):
        pass

    probes = []
    original = ProbeOracle.probe

    def counting(self, u, v):
        probes.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(ProbeOracle, "probe", counting)
    for model in (
        Draw(n=40, p=0.1, seed=1),
        TablePercolation(CompleteGraph(40), 0.1, seed=1),
    ):
        probes.clear()
        result = router.route(model, 0, 39)
        assert len(probes) >= result.queries > 0


@pytest.mark.parametrize(
    "base", [GnpLocalRouter, GnpUnidirectionalRouter, GnpBidirectionalRouter]
)
def test_subclasses_take_the_reference(base):
    # The exact-type rule: a subclass may override _route, so it never
    # runs a replay of its parent's probe sequence.
    calls = []

    class Variant(base):
        def _route(self, oracle, source, target):
            calls.append((source, target))
            return super()._route(oracle, source, target)

    model = GnpPercolation(n=40, p=0.1, seed=3)
    result = Variant().route(model, 0, 39)
    assert calls == [(0, 39)]
    assert repr(result) == repr(Router.route(Variant(), model, 0, 39))


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
@pytest.mark.parametrize(
    "source, target, budget",
    [(0, 9, 0), (0, 9, -2), (-1, 9, 0), (0, 10, None), (0, 10, 0), (3, 3, 0)],
)
def test_argument_errors_match_reference(router, source, target, budget):
    # Vertices are checked first, then the oracle rejects budget < 1.
    model = GnpPercolation(n=10, p=0.3, seed=0)
    with pytest.raises(ValueError) as replayed:
        router.route(model, source, target, budget)
    with pytest.raises(ValueError) as reference:
        Router.route(router, model, source, target, budget)
    assert str(replayed.value) == str(reference.value)
