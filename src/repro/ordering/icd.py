"""Incremental cycle detection by two-way search (Section 5.2).

Each node carries a pseudo-topological order label ``ord`` consistent with
the active edges.  Inserting an edge ``(u, v)``:

* if ``ord[u] < ord[v]`` the labels remain consistent -- accept immediately;
* otherwise a **backward** search from ``u`` along incoming edges (bounded
  below by ``ord[v]``) collects the set ``B``; finding ``v`` means the new
  edge closes a cycle;
* then a **forward** search from ``v`` along outgoing edges (bounded above
  by ``ord[u]``) collects ``F``; hitting a node of ``B`` also means a cycle;
* if acyclic, the labels of ``B`` and ``F`` are permuted inside the window
  so that every ``B`` node precedes every ``F`` node (the Pearce-Kelly
  reordering; the paper follows Bender et al.'s two-way search with
  pseudo-topological orders -- operationally the same discipline).

Unit-edge propagation (Section 5.4) does not read these search sets: it
runs its own search after the insertion, pruned by the same order labels
(``OrderingTheory._propagate_unit_edges``).

On a detected cycle the graph is left *unchanged* (the offending edge is
not activated), so the acyclicity invariant always holds between calls.

The searches run in :mod:`repro.ordering.kernel`, over the graph's
``Edge``-object adjacency with epoch-stamped visited scratch instead of
per-insertion sets.
"""

from __future__ import annotations

from typing import List

from repro.ordering.event_graph import Edge, EventGraph
from repro.ordering.kernel import bounded_backward, bounded_forward

__all__ = ["ACCEPTED", "AddResult", "CYCLE", "FAST_PATH", "IncrementalCycleDetector"]


class AddResult:
    """Outcome of an edge insertion attempt (the shared constants below).

    Attributes:
        cycle: True if the insertion would close a cycle (edge rejected).
        fast_path: ICD accepted the edge on the ``ord[u] < ord[v]`` fast
            path, without searching (counted by the ``icd_fast_path``
            theory stat).
    """

    __slots__ = ("cycle", "fast_path")

    def __init__(self, cycle: bool, fast_path: bool = False) -> None:
        self.cycle = cycle
        self.fast_path = fast_path


CYCLE = AddResult(True)
ACCEPTED = AddResult(False)
FAST_PATH = AddResult(False, fast_path=True)


class IncrementalCycleDetector:
    """Two-way-search incremental cycle detection over an event graph."""

    name = "icd"

    __slots__ = ("graph", "on_reorder", "audit")

    def __init__(self, graph: EventGraph) -> None:
        self.graph = graph
        #: Optional hook ``on_reorder(n_back, n_fwd, lo, hi)`` invoked after
        #: every pseudo-topological-order permutation, which moved labels
        #: only among ``lo..hi`` (candidate upkeep, telemetry and stats).
        self.on_reorder = None
        #: Debug-mode invariant auditing (``REPRO_AUDIT=1`` or
        #: ``VerifierConfig.audit``): check every reordering's labels
        #: before the edge is activated (``check_icd_reorder``).
        from repro.oracle.audit import audit_enabled as _audit_enabled

        self.audit = _audit_enabled()

    def add_edge(self, edge: Edge) -> AddResult:
        """Try to activate ``edge``; detect cycles incrementally."""
        g = self.graph
        u, v = edge.src, edge.dst
        assert u != v, "order edges are irreflexive"
        ord_ = g.ord
        if ord_[u] < ord_[v]:
            g.activate(edge)
            return FAST_PATH

        # Two-way bounded search (see repro.ordering.kernel): backward
        # from u within ord >= ord[v], then forward from v within
        # ord <= ord[u].
        epoch = g.new_epoch()
        back_nodes, _ = bounded_backward(g, u, ord_[v], epoch)
        if g.vis_b[v] == epoch:
            return CYCLE

        fwd_nodes, _, hit = bounded_forward(g, v, ord_[u], epoch)
        if hit:
            # Path v ⇝ y ⇝ u: cycle (defensive; the backward phase finds
            # any such cycle first).
            return CYCLE

        if self.audit:
            from repro.oracle.audit import check_icd_reorder

            old = list(ord_)
            self._reorder(back_nodes, fwd_nodes)
            check_icd_reorder(g, old, edge, back_nodes + fwd_nodes)
        else:
            self._reorder(back_nodes, fwd_nodes)
        g.activate(edge)
        return ACCEPTED

    def remove_edge(self, edge: Edge) -> None:
        """Deactivate an edge; the pseudo-topological order stays valid."""
        self.graph.deactivate(edge)

    def _reorder(self, back_nodes: List[int], fwd_nodes: List[int]) -> None:
        """Permute the order labels so every B node precedes every F node.

        Nodes keep their relative order within B and within F; the union of
        their old labels is redistributed in increasing order, B first.
        """
        g = self.graph
        ord_ = g.ord
        node_at = g.node_at
        by_label = ord_.__getitem__
        window = sorted(back_nodes, key=by_label) + sorted(fwd_nodes, key=by_label)
        slots = sorted([ord_[n] for n in window])
        for node, slot in zip(window, slots):
            ord_[node] = slot
            node_at[slot] = node
        if self.on_reorder is not None:
            self.on_reorder(len(back_nodes), len(fwd_nodes), slots[0], slots[-1])
