"""Non-incremental cycle detection baseline (the Figure 10 ablation).

The paper compares its incremental detector against running Tarjan-style
non-incremental cycle detection afresh on every edge insertion.  This
detector performs a full (unbounded) backward search from the edge source
and reports a cycle if it reaches the target -- O(n + m) per insertion,
with no order labels maintained or reused.

It exposes the same interface as
:class:`repro.ordering.icd.IncrementalCycleDetector`, so the theory solver
can swap detectors via configuration.  Unit-edge propagation is the
theory's own and identical under both detectors, so the two differ only
in detection cost (Fig. 10).

The search shares the search kernel (:mod:`repro.ordering.kernel`) with
ICD, run with a slack bound: ``lb=0`` never prunes (order labels are a
permutation of ``range(n)``), which makes the bounded DFS an unbounded one.
"""

from __future__ import annotations

from repro.ordering.event_graph import Edge, EventGraph
from repro.ordering.icd import ACCEPTED, CYCLE, AddResult
from repro.ordering.kernel import bounded_backward

__all__ = ["TarjanCycleDetector"]


class TarjanCycleDetector:
    """Fresh full-graph cycle detection on every insertion."""

    name = "tarjan"

    __slots__ = ("graph",)

    def __init__(self, graph: EventGraph) -> None:
        self.graph = graph

    def add_edge(self, edge: Edge) -> AddResult:
        g = self.graph
        u, v = edge.src, edge.dst
        assert u != v, "order edges are irreflexive"

        epoch = g.new_epoch()
        # Full backward search from u: all ancestors (lb=0 never prunes).
        bounded_backward(g, u, 0, epoch)
        if g.vis_b[v] == epoch:
            return CYCLE
        g.activate(edge)
        return ACCEPTED

    def remove_edge(self, edge: Edge) -> None:
        self.graph.deactivate(edge)
