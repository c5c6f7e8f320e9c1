"""The directed routers on their per-(graph, target) order memo.

``DirectedDFSRouter``, ``GreedyRouter``, ``HybridGreedyRouter`` and
``BestFirstRouter`` read their neighbour orders and target distances
from :func:`repro.routers.orders.target_orders` instead of re-sorting
on every expansion, and the probe oracle asks the model once per new
probe through ``edge_state``.  The references below are the
per-expansion routers and the ``is_edge``-then-``is_open`` oracle they
replaced; every attempt must render exactly like theirs — same
queries, same path, same failure reason, same error — over the graph
set of ``tests/percolation/test_shared_index.py``, at p in {0, 0.5,
0.9, 1}, under budgets that stop mid-route and none, and toward more
targets than the memo keeps.  The memo itself must stay invisible:
out of pickles and workload ids, and holding no reference to its
graph.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import pickle
import weakref

import pytest

from repro.core.complexity import complexity_specs
from repro.core.probe import LocalProbeOracle, ProbeBudgetExceeded
from repro.graphs.base import TARGET_ORDERS_ATTR
from repro.graphs.hypercube import Hypercube
from repro.kernels.topology import edge_index_for
from repro.percolation.models import TablePercolation
from repro.routers.bestfirst import BestFirstRouter
from repro.routers.dfs import DirectedDFSRouter, GreedyRouter
from repro.routers.hybrid import HybridGreedyRouter
from repro.routers.orders import MAX_TARGETS
from repro.util.rng import derive_seed
from tests.percolation.test_shared_index import GRAPHS, IDS

# -- references: the per-expansion routers and the two-call oracle -------


class _TwoCallOracle(LocalProbeOracle):
    """The oracle before ``edge_state``: ``is_edge``, then ``is_open``."""

    def probe(self, u, v):
        key = self.graph.edge_key(u, v)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        self._check_allowed(u, v)
        if self.budget is not None and len(self._results) >= self.budget:
            raise ProbeBudgetExceeded(self.budget)
        if not self.graph.is_edge(u, v):
            raise ValueError(f"{u!r}-{v!r} is not an edge of {self.graph.name}")
        result = self.model.is_open(u, v)
        self._results[key] = result
        self._note_result(u, v, result)
        return result


class _Reference:
    def make_oracle(self, model, source, budget=None):
        return _TwoCallOracle(model, source, budget=budget)


def _ordered_neighbors(graph, v, target):
    return sorted(
        graph.neighbors(v),
        key=lambda w: (graph.distance(w, target), repr(w)),
    )


def _descending(graph, v, target):
    here = graph.distance(v, target)
    return sorted(
        (w for w in graph.neighbors(v) if graph.distance(w, target) < here),
        key=repr,
    )


def _depth_first(oracle, source, target, expand):
    graph = oracle.graph
    visited = {source}
    path = [source]
    stack = [iter(expand(graph, source, target))]
    while stack:
        advanced = False
        for y in stack[-1]:
            x = path[-1]
            if y in visited:
                continue
            if not oracle.probe(x, y):
                continue
            visited.add(y)
            path.append(y)
            if y == target:
                return path
            stack.append(iter(expand(graph, y, target)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            path.pop()
    return None


def _best_first(oracle, target, parent, frontier):
    graph = oracle.graph
    counter = itertools.count()
    heap = []

    def push_candidates(x):
        for y in graph.neighbors(x):
            if y not in parent:
                heapq.heappush(
                    heap, (graph.distance(y, target), next(counter), x, y)
                )

    for x in frontier:
        push_candidates(x)
    while heap:
        _, _, x, y = heapq.heappop(heap)
        if y in parent:
            continue
        if not oracle.probe(x, y):
            continue
        parent[y] = x
        if y == target:
            path = [y]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        push_candidates(y)
    return None


class _RefDFS(_Reference, DirectedDFSRouter):
    def _route(self, oracle, source, target):
        if source == target:
            return [source]
        return _depth_first(oracle, source, target, _ordered_neighbors)


class _RefGreedy(_Reference, GreedyRouter):
    def _route(self, oracle, source, target):
        if source == target:
            return [source]
        return _depth_first(oracle, source, target, _descending)


class _RefBestFirst(_Reference, BestFirstRouter):
    def _route(self, oracle, source, target):
        if source == target:
            return [source]
        return _best_first(oracle, target, {source: None}, [source])


class _RefHybrid(_Reference, HybridGreedyRouter):
    def _route(self, oracle, source, target):
        if source == target:
            return [source]
        graph = oracle.graph
        parent = {source: None}
        path = [source]
        stack = [iter(_descending(graph, source, target))]
        while stack:
            x = path[-1]
            if graph.distance(x, target) <= self.switch_distance:
                break
            advanced = False
            for y in stack[-1]:
                if y in parent:
                    continue
                if not oracle.probe(x, y):
                    continue
                parent[y] = x
                path.append(y)
                if y == target:
                    return path
                stack.append(iter(_descending(graph, y, target)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                path.pop()
        return _best_first(oracle, target, parent, list(parent))


ROUTERS = [
    (DirectedDFSRouter, _RefDFS, ()),
    (GreedyRouter, _RefGreedy, ()),
    (BestFirstRouter, _RefBestFirst, ()),
    (HybridGreedyRouter, _RefHybrid, (2,)),
    (HybridGreedyRouter, _RefHybrid, (0,)),
]
PROBS = [0.0, 0.5, 0.9, 1.0]
BUDGETS = [None, 2, 5]


def _fresh(graph):
    """An equal graph with no process-local state attached."""
    return pickle.loads(pickle.dumps(graph))


def _pairs(graph):
    verts = list(graph.vertices())
    return [
        graph.canonical_pair(),
        (verts[1], verts[-2]),
        (verts[len(verts) // 2], verts[0]),
    ]


def _models(graph, p, seed):
    """The per-trial table draw and its chunk-kernel row view."""
    table = TablePercolation(graph, p, seed=seed)
    row = TablePercolation(graph, p, 0).chunk_draw(
        edge_index_for(graph), [seed]
    ).model(0)
    return [table, row]


def _outcome(router, model, source, target, budget):
    try:
        return repr(router.route(model, source, target, budget=budget))
    except Exception as exc:  # a raising metric must raise alike
        return f"{type(exc).__name__}: {exc}"


# -- parity ---------------------------------------------------------------


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_routes_equal_the_per_expansion_reference(graph):
    graph = _fresh(graph)
    seed = derive_seed(25, "target-orders", graph.name)
    for p in PROBS:
        for model in _models(graph, p, seed):
            for source, target in _pairs(graph):
                for budget in BUDGETS:
                    for cls, ref_cls, args in ROUTERS:
                        want = _outcome(
                            ref_cls(*args), model, source, target, budget
                        )
                        got = _outcome(
                            cls(*args), model, source, target, budget
                        )
                        assert got == want, (
                            cls.__name__, args, p, source, target, budget
                        )


def test_budgets_stop_mid_route():
    # The budgeted cases above must really cut routes short.
    graph = Hypercube(6)
    model = TablePercolation(graph, 0.5, seed=3)
    source, target = graph.canonical_pair()
    for cls, _, args in ROUTERS:
        result = cls(*args).route(model, source, target, budget=5)
        assert result.censored and result.queries == 5


def test_more_targets_than_the_memo_keeps():
    graph = Hypercube(7)
    model = TablePercolation(graph, 0.7, seed=11)
    targets = list(range(1, graph.num_vertices()))
    assert len(targets) > MAX_TARGETS
    # Forwards then backwards: targets dropped by the LRU come back.
    for target in targets + targets[::-1]:
        for cls, ref_cls, args in ROUTERS:
            want = _outcome(ref_cls(*args), model, 0, target, None)
            assert _outcome(cls(*args), model, 0, target, None) == want
    memo = graph.__dict__[TARGET_ORDERS_ATTR]
    assert list(memo) == targets[:MAX_TARGETS][::-1]


# -- the memo stays invisible ----------------------------------------------


@pytest.mark.parametrize("graph", GRAPHS, ids=IDS)
def test_routing_changes_no_pickle_and_no_workload_id(graph):
    graph = _fresh(graph)
    pair = graph.canonical_pair()

    def workload_id():
        specs = complexity_specs(
            graph, 0.5, DirectedDFSRouter(), pair=pair, trials=2, seed=1
        )
        return specs[0].workload.workload_id

    before, wid = pickle.dumps(graph), workload_id()
    for p in (0.5, 1.0):
        for model in _models(graph, p, seed=7):
            for source, target in _pairs(graph):
                for cls, _, args in ROUTERS:
                    _outcome(cls(*args), model, source, target, None)
    assert TARGET_ORDERS_ATTR in graph.__dict__
    assert pickle.dumps(graph) == before
    assert workload_id() == wid


def test_memo_holds_no_reference_to_its_graph():
    graph = Hypercube(6)
    model = TablePercolation(graph, 0.8, seed=2)
    for cls, _, args in ROUTERS:
        cls(*args).route(model, *graph.canonical_pair())
    assert graph.__dict__[TARGET_ORDERS_ATTR]
    ref = weakref.ref(graph)
    gc.disable()  # freed by reference counting alone: no cycle
    try:
        del graph, model
        assert ref() is None
    finally:
        gc.enable()
