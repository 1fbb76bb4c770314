"""The event graph (Section 4.2).

Nodes are event ids (dense integers); edges carry

* a **kind** -- PO (program order), RF (read-from), WS (write
  serialization), or FR (from-read);
* a **derivation reason** -- the tuple of ordering variables (positive
  DIMACS vars) the edge was derived from: empty for PO, the single ordering
  variable for RF/WS, and the pair ``(rf_var, ws_var)`` for a derived FR
  edge;
* an **active** flag -- only active edges are present in the adjacency
  structure; RF/WS edges are pre-created inactive and toggled as their
  ordering variable is assigned/unassigned (Section 5.4).

Activation/deactivation is strictly LIFO (it follows the DPLL(T) trail), so
adjacency lists support O(1) removal by popping.

The cycle detectors' searches (:mod:`repro.ordering.kernel`) walk the
:class:`Edge`-object adjacency (``out`` / ``inc``) directly; the graph adds
only epoch-stamped ``vis_b``/``vis_f`` arrays, which give the two-way
search O(1) visited state without per-search set/dict allocation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["EdgeKind", "Edge", "EventGraph"]


class EdgeKind:
    PO = "po"
    RF = "rf"
    WS = "ws"
    FR = "fr"


class Edge:
    """A directed order edge ``src ≺ dst``."""

    __slots__ = ("src", "dst", "kind", "reason", "var", "active")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        reason: Tuple[int, ...] = (),
        var: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.reason = reason
        self.var = var
        self.active = False

    @property
    def is_po(self) -> bool:
        return self.kind == EdgeKind.PO

    def __repr__(self) -> str:
        state = "+" if self.active else "-"
        return f"Edge({self.src}->{self.dst} {self.kind}{state} r={self.reason})"


class EventGraph:
    """Adjacency structure over active edges, plus the inactive-edge index
    used by unit-edge propagation.

    The pseudo-topological order used by incremental cycle detection lives
    here (``self.ord``) so conflict generation and detectors share it.
    """

    __slots__ = (
        "n",
        "out",
        "inc",
        "ord",
        "node_at",
        "inactive_out",
        "n_active_edges",
        # Epoch-stamped two-way-search state (see repro.ordering.kernel).
        "vis_b",
        "vis_f",
        "epoch",
    )

    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.out: List[List[Edge]] = [[] for _ in range(n_nodes)]
        self.inc: List[List[Edge]] = [[] for _ in range(n_nodes)]
        #: Pseudo-topological order labels (maintained by the ICD detector)
        #: and their inverse: ``node_at[ord[n]] == n``.
        self.ord: List[int] = list(range(n_nodes))
        self.node_at: List[int] = list(range(n_nodes))
        #: Inactive RF/WS edges indexed by source node, for the unit-edge
        #: scan (Section 5.4: "check if (e_f, e_b) corresponds to an
        #: inactive edge").
        self.inactive_out: List[Dict[int, List[Edge]]] = [
            {} for _ in range(n_nodes)
        ]
        self.n_active_edges = 0
        # Search scratch: visited iff stamp == current epoch.
        self.vis_b: List[int] = [0] * n_nodes
        self.vis_f: List[int] = [0] * n_nodes
        self.epoch = 0

    def new_epoch(self) -> int:
        """Fresh search epoch: invalidates vis_b/vis_f in O(1)."""
        self.epoch += 1
        return self.epoch

    # ------------------------------------------------------------------
    # Inactive edge registry
    # ------------------------------------------------------------------

    def register_inactive(self, edge: Edge) -> None:
        """Pre-create an RF/WS edge in inactive state (Section 5.4)."""
        self.inactive_out[edge.src].setdefault(edge.dst, []).append(edge)

    def inactive_edges_between(self, src: int, dst: int) -> List[Edge]:
        return self.inactive_out[src].get(dst, [])

    # ------------------------------------------------------------------
    # Activation (adjacency maintenance only; cycle checks live in the
    # detectors)
    # ------------------------------------------------------------------

    def activate(self, edge: Edge) -> None:
        assert not edge.active, f"edge already active: {edge!r}"
        edge.active = True
        src = edge.src
        dst = edge.dst
        self.out[src].append(edge)
        self.inc[dst].append(edge)
        if edge.var is not None:
            bucket = self.inactive_out[src].get(dst)
            if bucket and edge in bucket:
                bucket.remove(edge)
        self.n_active_edges += 1

    def deactivate(self, edge: Edge) -> None:
        """LIFO removal: ``edge`` must be the most recently activated edge
        still present in its adjacency lists."""
        assert edge.active, f"edge not active: {edge!r}"
        popped_out = self.out[edge.src].pop()
        popped_in = self.inc[edge.dst].pop()
        assert popped_out is edge and popped_in is edge, (
            "non-LIFO deactivation: trail order violated"
        )
        edge.active = False
        if edge.var is not None:
            self.inactive_out[edge.src].setdefault(edge.dst, []).append(edge)
        self.n_active_edges -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def active_edges(self) -> Iterable[Edge]:
        for edges in self.out:
            yield from edges

    def has_path(self, src: int, dst: int) -> bool:
        """Reachability over active edges (non-incremental; testing aid)."""
        if src == dst:
            return True
        seen = [False] * self.n
        stack = [src]
        seen[src] = True
        while stack:
            u = stack.pop()
            for e in self.out[u]:
                if e.dst == dst:
                    return True
                if not seen[e.dst]:
                    seen[e.dst] = True
                    stack.append(e.dst)
        return False
