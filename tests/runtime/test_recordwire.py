"""The packed record wire: pack/unpack identity and safe declining.

``pack_records`` flattens a chunk of ``run_trial`` records into flat
arrays; ``unpack_records`` must rebuild the exact ``TrialResult`` list
from them against the coordinator's specs.  Anything the packer cannot
represent — foreign workloads, records carrying extra data, results
out of step with their specs — must make it decline (return ``None``),
never raise and never ship a lossy body; a malformed packed body must
make the unpacker raise, which the cluster coordinator treats as a
protocol violation.  A worker node always tries the packed body for
its ``done`` reply and ships the pickled list only when the packer
declines.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.core.complexity import complexity_specs
from repro.core.traffic import (
    FixedTraffic,
    HotspotTraffic,
    PermutationTraffic,
    traffic_specs,
)
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.routers.bfs import BidirectionalBFSRouter, LocalBFSRouter
from repro.routers.waypoint import WaypointRouter
from repro.runtime import TrialResult, TrialSpec, Workload
from repro.runtime.chunkexec import execute_specs
from repro.runtime.cluster import WorkloadCache, _done_message
from repro.runtime.recordwire import pack_records, unpack_records


def _chunk(router, *, p=0.5, budget=40, trials=12, seed=21, **kw):
    specs = complexity_specs(
        Hypercube(5),
        p=p,
        router=router,
        trials=trials,
        seed=seed,
        budget=budget,
        key=("wire",),
        **kw,
    )
    return specs, execute_specs(specs)


@pytest.mark.parametrize(
    "router,p,budget",
    [
        (LocalBFSRouter(), 0.5, 40),     # mixed outcomes
        (LocalBFSRouter(), 0.2, 30),     # mostly disconnected
        (BidirectionalBFSRouter(), 0.6, 5),  # budget failures
        (WaypointRouter(), 0.7, None),   # successes with paths
    ],
    ids=["mixed", "disconnected", "budget", "paths"],
)
def test_round_trip_is_identical(router, p, budget):
    specs, results = _chunk(router, p=p, budget=budget)
    packed = pack_records(specs, results)
    assert packed is not None
    rebuilt = unpack_records(packed, specs)
    assert repr(rebuilt) == repr(results)


def test_round_trip_survives_pickling():
    # The body crosses the wire as a pickle frame: the arrays must
    # come back intact, and decode must not depend on object identity.
    specs, results = _chunk(LocalBFSRouter())
    packed = pickle.loads(pickle.dumps(pack_records(specs, results)))
    assert repr(unpack_records(packed, specs)) == repr(results)


def test_multi_workload_chunk_packs():
    s1, r1 = _chunk(LocalBFSRouter(), seed=3)
    specs2 = complexity_specs(
        Mesh(2, 5),
        p=0.7,
        router=WaypointRouter(),
        trials=6,
        seed=4,
        key=("wire-b",),
    )
    r2 = execute_specs(specs2)
    specs, results = s1 + specs2, r1 + r2
    packed = pack_records(specs, results)
    assert packed is not None
    assert repr(unpack_records(packed, specs)) == repr(results)


def _foreign_fn(x, t, s):
    return (x, t, s)


def _foreign_chunk():
    w = Workload(fn=_foreign_fn, args=(1,), kwargs={})
    specs = [TrialSpec(key=("f", 0), args=(0, 1), workload=w)]
    return specs, [TrialResult(key=("f", 0), value=(1, 0, 1))]


def test_foreign_workload_declines():
    specs, results = _foreign_chunk()
    assert pack_records(specs, results) is None


def test_extra_data_declines():
    specs, results = _chunk(LocalBFSRouter(), p=1.0, trials=2)
    record = results[0].value
    object.__setattr__(record.result, "extra", {"hops": 3})
    assert pack_records(specs, results) is None


def test_length_mismatch_declines():
    specs, results = _chunk(LocalBFSRouter(), trials=4)
    assert pack_records(specs, results[:-1]) is None


def test_unpack_rejects_malformed_bodies():
    specs, results = _chunk(LocalBFSRouter(), trials=4)
    packed = pack_records(specs, results)
    with pytest.raises(ValueError, match="format"):
        unpack_records({**packed, "format": "records/999"}, specs)
    with pytest.raises(ValueError, match="cover"):
        unpack_records(
            {**packed, "trial": packed["trial"][:-1]}, specs
        )
    with pytest.raises(ValueError, match="missing"):
        short = dict(packed)
        del short["queries"]
        unpack_records(short, specs)
    specs, results = _chunk(LocalBFSRouter(), p=1.0, budget=None, trials=2)
    packed = pack_records(specs, results)
    assert packed["path"].size  # routed: the truncation must be seen
    with pytest.raises(ValueError, match="path"):
        unpack_records({**packed, "path": packed["path"][:-1]}, specs)


def test_unpack_rejects_foreign_specs():
    specs, results = _chunk(LocalBFSRouter(), trials=1)
    packed = pack_records(specs, results)
    foreign_specs, _ = _foreign_chunk()
    with pytest.raises(ValueError, match="packable"):
        unpack_records(packed, foreign_specs)


def _node_job(specs):
    """The parts of a node's chunk job its ``done`` reply reads."""
    cache = WorkloadCache()
    cache.install({spec.workload_id: spec.workload for spec in specs})
    return SimpleNamespace(
        chunk_id=5, specs=specs, server=SimpleNamespace(cache=cache)
    )


@pytest.mark.parametrize("kind", ["pair", "traffic"])
def test_node_done_reply_ships_packed_records(kind):
    if kind == "pair":
        specs, results = _chunk(LocalBFSRouter())
    else:
        specs, results = _traffic_chunk(PermutationTraffic(4))
    tag, body = _done_message(_node_job(specs), results)
    assert tag == "done"
    assert set(body) == {"chunk", "packed"}
    assert body["chunk"] == 5
    assert repr(unpack_records(body["packed"], specs)) == repr(results)


def test_node_done_reply_pickles_a_declined_chunk():
    specs, results = _foreign_chunk()
    tag, body = _done_message(_node_job(specs), results)
    assert (tag, body) == ("done", {"chunk": 5, "results": results})


def _traffic_chunk(demands, *, p=0.7, trials=6, seed=11, budget=None):
    specs = traffic_specs(
        Hypercube(4),
        p,
        LocalBFSRouter(),
        demands,
        trials=trials,
        seed=seed,
        budget=budget,
        key=("twire",),
    )
    return specs, execute_specs(specs)


class TestTrafficRecords:
    @pytest.mark.parametrize(
        "demands,p,budget",
        [
            (PermutationTraffic(4), 0.7, None),   # mixed deliveries
            (PermutationTraffic(4), 0.2, None),   # mostly undelivered
            (HotspotTraffic(5, 0.8), 0.75, 25),   # budget failures
            (FixedTraffic(((0, 15),)), 0.8, None),  # one commodity
        ],
        ids=["mixed", "undelivered", "budget", "single"],
    )
    def test_round_trip_is_identical(self, demands, p, budget):
        specs, results = _traffic_chunk(demands, p=p, budget=budget)
        packed = pack_records(specs, results)
        assert packed is not None
        assert packed["format"] == "records/2"
        assert repr(unpack_records(packed, specs)) == repr(results)

    def test_mixed_pair_and_traffic_chunk(self):
        # One chunk carrying both trial units: ragged traffic columns
        # must skip the pair records (t_comm == -1) cleanly.
        s1, r1 = _chunk(LocalBFSRouter(), seed=3, trials=4)
        s2, r2 = _traffic_chunk(PermutationTraffic(3), seed=5)
        specs, results = s1 + s2, r1 + r2
        packed = pack_records(specs, results)
        assert packed is not None
        assert repr(unpack_records(packed, specs)) == repr(results)

    def test_traffic_record_with_result_declines(self):
        specs, results = _traffic_chunk(PermutationTraffic(3), trials=2)
        donor = _chunk(LocalBFSRouter(), trials=1)[1][0].value
        record = results[0].value
        object.__setattr__(record, "result", donor.result)
        assert pack_records(specs, results) is None

    def test_pair_record_with_traffic_declines(self):
        specs, results = _chunk(LocalBFSRouter(), trials=2)
        donor = _traffic_chunk(PermutationTraffic(3), trials=1)[1][0].value
        record = results[0].value
        object.__setattr__(record, "traffic", donor.traffic)
        assert pack_records(specs, results) is None

    def test_unpack_rejects_malformed_traffic_columns(self):
        specs, results = _traffic_chunk(PermutationTraffic(3), trials=3)
        packed = pack_records(specs, results)
        with pytest.raises(ValueError, match="disagree"):
            unpack_records(
                {**packed, "t_delivered": packed["t_delivered"][:-1]},
                specs,
            )
        with pytest.raises(ValueError, match="shorter"):
            unpack_records(
                {
                    **packed,
                    "t_queries": packed["t_queries"][:-1],
                    "t_delivered": packed["t_delivered"][:-1],
                },
                specs,
            )
        import numpy as np

        with pytest.raises(ValueError, match="longer"):
            unpack_records(
                {
                    **packed,
                    "t_queries": np.append(packed["t_queries"], 1),
                    "t_delivered": np.append(
                        packed["t_delivered"], True
                    ),
                },
                specs,
            )

    def test_unpack_rejects_traffic_body_against_pair_specs(self):
        # Same trial count, but the specs route a single pair: a body
        # declaring traffic rows for them is a protocol violation.
        t_specs, t_results = _traffic_chunk(PermutationTraffic(3), trials=3)
        packed = pack_records(t_specs, t_results)
        p_specs, _ = _chunk(LocalBFSRouter(), trials=3)
        with pytest.raises(ValueError):
            unpack_records(packed, p_specs)
