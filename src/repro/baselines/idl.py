"""CBMC-style baseline: clock-difference (IDL) ordering (Section 3.2).

The approaches the paper improves on (Alglave et al., CBMC) associate an
integer-valued clock with each event and express orders as differences
between clock variables, solved by an integer-difference-logic procedure.
For the pure ``<`` constraints arising here, IDL consistency is exactly
acyclicity of the difference-constraint graph, so the baseline theory
shares the event-graph substrate but deliberately keeps the *old*
algorithmics the paper criticizes:

* **fresh cycle detection** on every assignment (no incrementality; the
  paper cites [9]'s fresh-detection approach as the inefficient default);
* a **single, non-minimal conflict clause** per inconsistency -- just the
  literals of whichever cycle the search stumbled on, rather than all
  shortest-width critical cycles;
* **no theory propagation** -- neither unit edges nor from-read derivation;
  all FR constraints must be encoded in the formula upfront (the front end
  is run with ``fr_encoding=True``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.encoding.encoder import encode_program
from repro.encoding.ppo import preserved_program_order
from repro.frontend.program import SymbolicProgram
from repro.ordering.event_graph import Edge, EdgeKind, EventGraph
from repro.ordering.kernel import bounded_backward, path_reason
from repro.ordering.solver import OrderingTheory, TheoryStats
from repro.ordering.tarjan import TarjanCycleDetector
from repro.sat.theory import Theory, TheoryResult

__all__ = ["IdlTheory", "encode_program_idl"]


class IdlTheory(Theory):
    """Clock-difference ordering theory with non-incremental checking."""

    def __init__(self, n_events: int, po_edges: List[Tuple[int, int]]) -> None:
        self.graph = EventGraph(n_events)
        self.detector = TarjanCycleDetector(self.graph)
        self.stats = TheoryStats()
        #: Audited (``REPRO_AUDIT=1`` or ``VerifierConfig.audit``, fixed
        #: at construction): :meth:`proof_data` checks the trail's sync.
        from repro.oracle.audit import audit_enabled

        self.audit = audit_enabled()
        self._edge_of_var: Dict[int, Edge] = {}
        self._trail: List[Tuple[Edge, int]] = []
        self._po_edges = list(po_edges)
        for a, b in po_edges:
            result = self.detector.add_edge(Edge(a, b, EdgeKind.PO))
            if result.cycle:
                raise ValueError("program order itself is cyclic")
        self.po_reach = OrderingTheory._compute_po_reachability(n_events, po_edges)

    # -- registration (same interface as OrderingTheory) ---------------

    def add_rf_var(self, var: int, write_eid: int, read_eid: int) -> None:
        self._edge_of_var[var] = Edge(
            write_eid, read_eid, EdgeKind.RF, (var,), var
        )

    def add_ws_var(self, var: int, w1_eid: int, w2_eid: int) -> None:
        self._edge_of_var[var] = Edge(w1_eid, w2_eid, EdgeKind.WS, (var,), var)

    def add_fr_var(self, var: int, read_eid: int, write_eid: int) -> None:
        self._edge_of_var[var] = Edge(read_eid, write_eid, EdgeKind.FR, (var,), var)

    def initial_unit_clauses(self) -> List[List[int]]:
        # The old-style encoding performs no upfront theory propagation;
        # PO-contradicted variables are discovered through conflicts.
        return []

    # -- theory interface ----------------------------------------------

    def relevant(self, var: int) -> bool:
        return var in self._edge_of_var

    def assign(self, lit: int, level: int) -> TheoryResult:
        result = TheoryResult()
        if lit < 0:
            return result
        edge = self._edge_of_var.get(lit)
        if edge is None or edge.active:
            return result
        self.stats.consistency_checks += 1
        added = self.detector.add_edge(edge)
        if added.cycle:
            self.stats.cycles += 1
            # Non-minimal conflict: the literals along whatever path
            # dst ⇝ src the fresh search found, plus the new edge.
            lits = set(edge.reason)
            lits.update(self._back_path_reason(edge.src, edge.dst))
            result.add_conflict([-l for l in sorted(lits)])
            self.stats.conflict_clauses += 1
            return result
        self.stats.edges_activated += 1
        self._trail.append((edge, level))
        return result

    def proof_data(self):
        """The audit's proof data.  Asked for at the end of every audited
        solve, where the trail and the event graph are checked to agree
        (this theory keeps no partner or candidate indices)."""
        if self.audit:
            from repro.oracle.audit import check_trail_sync

            check_trail_sync(self)
        edges = {v: (e.kind, e.src, e.dst) for v, e in self._edge_of_var.items()}
        return edges, self._po_edges

    def backjump(self, level: int) -> None:
        trail = self._trail
        while trail and trail[-1][1] > level:
            edge, _lvl = trail.pop()
            self.detector.remove_edge(edge)

    def _back_path_reason(self, src: int, node: int) -> List[int]:
        """Literals on the path ``node ⇝ src`` that a fresh backward DFS
        from ``src`` finds (the detector's own search, repeated)."""
        g = self.graph
        nodes, pars = bounded_backward(g, src, 0, g.new_epoch())
        return path_reason(node, dict(zip(nodes, pars)), True, {})


def encode_program_idl(sym: SymbolicProgram, config):
    """The ``"idl"`` theory's encoder: full FR encoding, no theory
    propagation, fresh cycle detection."""
    ppo = preserved_program_order(sym, config.memory_model)
    theory = IdlTheory(len(sym.events), ppo)
    return encode_program(sym, fr_encoding=True, theory=theory)
