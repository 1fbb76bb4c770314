"""Tests for incremental cycle detection, cross-validated against both the
Tarjan-style baseline and a from-scratch reachability oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    Edge,
    EdgeKind,
    EventGraph,
    IncrementalCycleDetector,
    TarjanCycleDetector,
)
from tests.ordering.test_unit_edge import materialised


def mk_edge(u, v, var=None):
    kind = EdgeKind.WS if var is not None else EdgeKind.PO
    reason = (var,) if var is not None else ()
    return Edge(u, v, kind, reason, var)


@pytest.fixture(params=["icd", "tarjan"])
def detector_cls(request):
    return (
        IncrementalCycleDetector if request.param == "icd" else TarjanCycleDetector
    )


class TestBasicCycles:
    def test_chain_is_acyclic(self, detector_cls):
        g = EventGraph(4)
        det = detector_cls(g)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            assert det.add_edge(mk_edge(u, v)).cycle is False
        assert g.has_path(0, 3)

    def test_direct_cycle_detected(self, detector_cls):
        g = EventGraph(2)
        det = detector_cls(g)
        assert det.add_edge(mk_edge(0, 1)).cycle is False
        assert det.add_edge(mk_edge(1, 0)).cycle is True
        # Rejected edge must not be in the graph.
        assert g.n_active_edges == 1
        assert not g.has_path(1, 0)

    def test_long_cycle_detected(self, detector_cls):
        g = EventGraph(5)
        det = detector_cls(g)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            assert det.add_edge(mk_edge(u, v)).cycle is False
        assert det.add_edge(mk_edge(4, 0)).cycle is True

    def test_diamond_no_cycle(self, detector_cls):
        g = EventGraph(4)
        det = detector_cls(g)
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert det.add_edge(mk_edge(u, v)).cycle is False

    def test_parallel_edges_allowed(self, detector_cls):
        g = EventGraph(2)
        det = detector_cls(g)
        assert det.add_edge(mk_edge(0, 1)).cycle is False
        assert det.add_edge(mk_edge(0, 1, var=7)).cycle is False
        assert g.n_active_edges == 2

    def test_remove_reopens(self, detector_cls):
        g = EventGraph(3)
        det = detector_cls(g)
        e01 = mk_edge(0, 1, var=1)
        e12 = mk_edge(1, 2, var=2)
        det.add_edge(e01)
        det.add_edge(e12)
        e20 = mk_edge(2, 0, var=3)
        assert det.add_edge(e20).cycle is True
        # Remove in LIFO order; then 2->0 becomes insertable.
        det.remove_edge(e12)
        assert det.add_edge(e20).cycle is False


class TestFastPathFlag:
    def test_flag_set_on_consistent_insert(self):
        g = EventGraph(3)
        det = IncrementalCycleDetector(g)
        assert det.add_edge(mk_edge(0, 1)).fast_path is True

    def test_flag_clear_when_search_runs(self):
        g = EventGraph(3)
        det = IncrementalCycleDetector(g)
        res = det.add_edge(mk_edge(2, 0))  # ord[2] > ord[0]: must search
        assert res.cycle is False
        assert res.fast_path is False

    def test_theory_stat_counts_fast_paths(self):
        from repro.ordering import OrderingTheory
        from repro.sat import Solver

        theory = OrderingTheory(3, [(0, 1)])
        solver = Solver(theory)
        v = solver.new_var(relevant=True)
        theory.add_rf_var(v, 1, 2)  # ord[1] < ord[2] holds already
        theory.assign(v, 1)
        assert theory.stats.icd_fast_path == 1
        w = solver.new_var(relevant=True)
        theory.add_ws_var(w, 2, 0)  # closes 0 -> 1 -> 2 -> 0: a cycle
        assert theory.assign(w, 2).conflicts
        x = solver.new_var(relevant=True)
        theory.add_ws_var(x, 0, 2)  # consistent again: fast path
        theory.assign(x, 3)
        assert theory.stats.icd_fast_path == 2
        assert theory.stats.edges_activated == 2


class TestSearchSets:
    def test_fast_path_sets(self):
        """The fast path runs no search, yet unit-edge propagation still
        reaches closing edges beyond the pair ``(v, u)``."""
        from repro.ordering import OrderingTheory
        from repro.sat import Solver

        g = EventGraph(3)
        res = IncrementalCycleDetector(g).add_edge(mk_edge(0, 1))
        assert res.fast_path and not res.cycle

        theory = OrderingTheory(4, [(1, 2)])
        solver = Solver(theory)
        a = solver.new_var(relevant=True)
        theory.add_rf_var(a, 0, 1)
        c = solver.new_var(relevant=True)
        theory.add_ws_var(c, 2, 0)  # would close 0 -> 1 -po-> 2 -> 0
        d = solver.new_var(relevant=True)
        theory.add_ws_var(d, 3, 0)  # 3 is unrelated: never unit
        result = theory.assign(a, 1)
        assert theory.stats.icd_fast_path == 1
        assert materialised(result) == [(-c, [-c, -a])]

    def test_search_sets_cover_window(self):
        g = EventGraph(4)
        det = IncrementalCycleDetector(g)
        # Force a reorder: insert edges against the initial order.
        det.add_edge(mk_edge(2, 3))
        res = det.add_edge(mk_edge(3, 1))  # ord[3] > ord[1] -> search
        assert not res.fast_path and not res.cycle
        # The reorder moved B = {2, 3} before F = {1}.
        assert g.ord[2] < g.ord[3] < g.ord[1]

    def test_pseudo_topological_order_invariant(self):
        import random

        rng = random.Random(7)
        g = EventGraph(30)
        det = IncrementalCycleDetector(g)
        edges = []
        for _ in range(200):
            u, v = rng.randrange(30), rng.randrange(30)
            if u == v:
                continue
            e = mk_edge(u, v, var=len(edges) + 1)
            if not det.add_edge(e).cycle:
                edges.append(e)
                # Invariant: ord increases along every active edge.
                for ed in edges:
                    assert g.ord[ed.src] < g.ord[ed.dst]

    def test_path_reasons(self):
        from repro.ordering.kernel import bounded_backward, path_reason

        g = EventGraph(4)
        det = IncrementalCycleDetector(g)
        det.add_edge(mk_edge(1, 2, var=5))
        det.add_edge(mk_edge(2, 3, var=6))
        res = det.add_edge(mk_edge(3, 0, var=7))
        assert res.cycle is False
        # Backward search from 3 reaches 1 via vars 6, 5.
        nodes, pars = bounded_backward(g, 3, 0, g.new_epoch())
        memo = {}
        assert sorted(path_reason(1, dict(zip(nodes, pars)), True, memo)) == [5, 6]
        assert memo[2] == [6]  # the shared prefix is memoized


class _Oracle:
    """Reachability oracle recomputed from scratch (multigraph-aware)."""

    def __init__(self, n):
        self.n = n
        self.adj = {i: [] for i in range(n)}  # parallel edges preserved

    def reaches(self, a, b):
        seen, stack = {a}, [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for y in self.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def add(self, u, v):
        self.adj[u].append(v)

    def remove(self, u, v):
        self.adj[u].remove(v)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 10),
    ops=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60),
    data=st.data(),
)
def test_icd_matches_oracle_with_removals(n, ops, data):
    """Random insert/rollback sequences: ICD verdicts equal fresh search."""
    g = EventGraph(n)
    det = IncrementalCycleDetector(g)
    oracle = _Oracle(n)
    trail = []
    var = 0
    for u, v in ops:
        u, v = u % n, v % n
        if u == v:
            continue
        # Occasionally roll back a suffix (LIFO, like DPLL backjumping).
        if trail and data.draw(st.integers(0, 4)) == 0:
            k = data.draw(st.integers(1, len(trail)))
            for _ in range(k):
                e = trail.pop()
                det.remove_edge(e)
                oracle.remove(e.src, e.dst)
        var += 1
        e = mk_edge(u, v, var=var)
        expected_cycle = oracle.reaches(v, u)
        res = det.add_edge(e)
        assert res.cycle == expected_cycle, (u, v, trail)
        if not res.cycle:
            trail.append(e)
            oracle.add(u, v)
            for ed in trail:
                assert g.ord[ed.src] < g.ord[ed.dst]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 8),
    ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
)
def test_icd_and_tarjan_agree(n, ops):
    g1, g2 = EventGraph(n), EventGraph(n)
    d1, d2 = IncrementalCycleDetector(g1), TarjanCycleDetector(g2)
    var = 0
    for u, v in ops:
        u, v = u % n, v % n
        if u == v:
            continue
        var += 1
        r1 = d1.add_edge(mk_edge(u, v, var=var))
        r2 = d2.add_edge(mk_edge(u, v, var=var))
        assert r1.cycle == r2.cycle
