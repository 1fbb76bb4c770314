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

The search sets ``B`` and ``F`` (with parent pointers for path
reconstruction) are returned to the caller: unit-edge propagation
(Section 5.4) enumerates ``F x B`` pairs against the inactive-edge index.

On a detected cycle the graph is left *unchanged* (the offending edge is
not activated), so the acyclicity invariant always holds between calls.

Since the packed-kernel rewrite (``docs/SATCORE.md``) the searches run in
:mod:`repro.ordering.kernel` over the graph's parallel int arrays:
epoch-stamped visited/parent scratch instead of per-insertion dicts, int
adjacency instead of ``Edge``-object chasing, and derivation reasons read
from a flat literal pool.  :class:`AddResult` is a thin view over those
search trees -- it captures parent *packed edge ids* as parallel lists
(plain ints, immune to later epoch reuse) and builds ``node -> parent``
maps only on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ordering.event_graph import Edge, EventGraph
from repro.ordering.kernel import bounded_backward, bounded_forward, path_reason

__all__ = ["AddResult", "IncrementalCycleDetector"]


class AddResult:
    """Outcome of an edge insertion attempt.

    Attributes:
        cycle: True if the insertion would close a cycle (edge rejected).
        back_nodes: nodes reached by the backward search (includes ``src``).
        fwd_nodes: nodes reached by the forward search (includes ``dst``).
        fast_path: the insertion was accepted on the ``ord[u] < ord[v]``
            fast path, i.e. without running the two-way search.  The B/F
            sets are then the trivial ``{u}`` / ``{v}``, so unit-edge
            propagation only ever sees the single pair ``(v, u)`` --
            intentional per the two-way-search design (the search sets
            *are* the propagation frontier), but worth counting: see the
            ``icd_fast_path`` theory stat.
    """

    __slots__ = (
        "cycle",
        "back_nodes",
        "fwd_nodes",
        "fast_path",
        "_graph",
        "_back_par",
        "_fwd_par",
        "_bmap",
        "_fmap",
    )

    def __init__(
        self,
        cycle: bool,
        back_nodes: List[int],
        fwd_nodes: List[int],
        graph: EventGraph,
        back_par: List[int],
        fwd_par: List[int],
        fast_path: bool = False,
    ) -> None:
        self.cycle = cycle
        self.back_nodes = back_nodes
        self.fwd_nodes = fwd_nodes
        self.fast_path = fast_path
        self._graph = graph
        self._back_par = back_par
        self._fwd_par = fwd_par
        self._bmap: Optional[Dict[int, int]] = None
        self._fmap: Optional[Dict[int, int]] = None

    def back_map(self) -> Dict[int, int]:
        """Backward tree as ``node -> parent packed edge id`` (-1 at the
        root ``src``); built once, cached."""
        m = self._bmap
        if m is None:
            m = dict(zip(self.back_nodes, self._back_par))
            self._bmap = m
        return m

    def fwd_map(self) -> Dict[int, int]:
        """Forward tree as ``node -> parent packed edge id`` (-1 at the
        root ``dst``); built once, cached."""
        m = self._fmap
        if m is None:
            m = dict(zip(self.fwd_nodes, self._fwd_par))
            self._fmap = m
        return m

    def back_path_reason(self, node: int) -> List[int]:
        """Ordering literals along the path ``node ⇝ src``."""
        return path_reason(self._graph, node, self.back_map(), backward=True)

    def fwd_path_reason(self, node: int) -> List[int]:
        """Ordering literals along the path ``dst ⇝ node``."""
        return path_reason(self._graph, node, self.fwd_map(), backward=False)


class IncrementalCycleDetector:
    """Two-way-search incremental cycle detection over an event graph."""

    name = "icd"

    __slots__ = ("graph", "on_reorder", "audit")

    def __init__(self, graph: EventGraph) -> None:
        self.graph = graph
        #: Optional hook ``on_reorder(n_back, n_fwd)`` invoked after every
        #: pseudo-topological-order permutation (telemetry/stats).
        self.on_reorder = None
        #: Debug-mode invariant auditing (``REPRO_AUDIT=1`` or
        #: ``VerifierConfig.audit``): after every reordering, check the
        #: B-before-F label discipline before the edge is activated.
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
            return AddResult(False, [u], [v], g, [-1], [-1], fast_path=True)

        # Two-way bounded search over the packed adjacency (see
        # repro.ordering.kernel): backward from u within ord >= ord[v],
        # then forward from v within ord <= ord[u].
        epoch = g.new_epoch()
        back_nodes, back_par = bounded_backward(g, u, ord_[v], epoch)
        if g.vis_b[v] == epoch:
            return AddResult(True, back_nodes, [v], g, back_par, [-1])

        fwd_nodes, fwd_par, hit = bounded_forward(g, v, ord_[u], epoch)
        if hit:
            # Path v ⇝ y ⇝ u: cycle (defensive; the backward phase finds
            # any such cycle first).
            return AddResult(True, back_nodes, fwd_nodes, g, back_par, fwd_par)

        self._reorder(back_nodes, fwd_nodes)
        if self.audit:
            self._audit_window(edge, back_nodes, fwd_nodes)
        g.activate(edge)
        return AddResult(False, back_nodes, fwd_nodes, g, back_par, fwd_par)

    def remove_edge(self, edge: Edge) -> None:
        """Deactivate an edge; the pseudo-topological order stays valid."""
        self.graph.deactivate(edge)

    def _audit_window(self, edge, back_nodes, fwd_nodes) -> None:
        """Audit check: after the reorder, every B label precedes every F
        label (which makes the inserted edge consistent, since its source
        is in B and its target in F)."""
        from repro.oracle.audit import AuditError

        ord_ = self.graph.ord
        max_b = max(ord_[n] for n in back_nodes)
        min_f = min(ord_[n] for n in fwd_nodes)
        if max_b >= min_f:
            raise AuditError(
                f"ICD reorder left max B label {max_b} >= min F label "
                f"{min_f} while inserting {edge!r}"
            )

    def _reorder(self, back_nodes: List[int], fwd_nodes: List[int]) -> None:
        """Permute the order labels so every B node precedes every F node.

        Nodes keep their relative order within B and within F; the union of
        their old labels is redistributed in increasing order, B first.
        """
        ord_ = self.graph.ord
        b_sorted = sorted(back_nodes, key=lambda n: ord_[n])
        f_sorted = sorted(fwd_nodes, key=lambda n: ord_[n])
        slots = sorted(ord_[n] for n in b_sorted + f_sorted)
        for node, slot in zip(b_sorted + f_sorted, slots):
            ord_[node] = slot
        if self.on_reorder is not None:
            self.on_reorder(len(back_nodes), len(fwd_nodes))
