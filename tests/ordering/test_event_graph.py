"""Direct tests for the event graph structure."""

import pytest

from repro.ordering import Edge, EdgeKind, EventGraph
from tests.ordering.graph_helpers import active_edges, has_path, inactive_edges_between


def edge(u, v, kind=EdgeKind.WS, var=None):
    reason = (var,) if var is not None else ()
    return Edge(u, v, kind, reason, var)


class TestAdjacency:
    def test_activate_adds_to_both_lists(self):
        g = EventGraph(3)
        e = edge(0, 1)
        g.activate(e)
        assert e in g.out[0]
        assert e in g.inc[1]
        assert g.n_active_edges == 1

    def test_lifo_deactivation(self):
        g = EventGraph(3)
        e1, e2 = edge(0, 1), edge(0, 2)
        g.activate(e1)
        g.activate(e2)
        g.deactivate(e2)
        g.deactivate(e1)
        assert g.n_active_edges == 0
        assert g.out[0] == []

    def test_non_lifo_deactivation_rejected(self):
        g = EventGraph(3)
        e1, e2 = edge(0, 1), edge(0, 2)
        g.activate(e1)
        g.activate(e2)
        with pytest.raises(AssertionError):
            g.deactivate(e1)  # e2 was activated later on out[0]

    def test_double_activation_rejected(self):
        g = EventGraph(2)
        e = edge(0, 1)
        g.activate(e)
        with pytest.raises(AssertionError):
            g.activate(e)


class TestInactiveIndex:
    def test_registered_edge_found(self):
        g = EventGraph(3)
        e = edge(0, 1, var=5)
        g.register_inactive(e)
        assert inactive_edges_between(g, 0, 1) == [e]
        assert inactive_edges_between(g, 1, 0) == []

    def test_activation_removes_from_index(self):
        g = EventGraph(3)
        e = edge(0, 1, var=5)
        g.register_inactive(e)
        g.activate(e)
        assert inactive_edges_between(g, 0, 1) == []

    def test_deactivation_restores_index(self):
        g = EventGraph(3)
        e = edge(0, 1, var=5)
        g.register_inactive(e)
        g.activate(e)
        g.deactivate(e)
        assert inactive_edges_between(g, 0, 1) == [e]

    def test_parallel_inactive_edges(self):
        g = EventGraph(3)
        e1 = edge(0, 1, var=5)
        e2 = Edge(0, 1, EdgeKind.RF, (6,), 6)
        g.register_inactive(e1)
        g.register_inactive(e2)
        assert len(inactive_edges_between(g, 0, 1)) == 2


class TestReachability:
    def test_has_path(self):
        g = EventGraph(4)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            g.activate(edge(u, v))
        assert has_path(g, 0, 3)
        assert not has_path(g, 3, 0)
        assert has_path(g, 1, 1)  # reflexive by definition

    def test_active_edges_iteration(self):
        g = EventGraph(3)
        g.activate(edge(0, 1))
        g.activate(edge(1, 2))
        assert len(list(active_edges(g))) == 2
