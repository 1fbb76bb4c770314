"""The `T_ord` theory solver (Section 5).

:class:`OrderingTheory` plugs into the CDCL core via the
:class:`repro.sat.theory.Theory` interface and implements the full loop of
Figure 4:

* **consistency checking** -- every true assignment to an ordering variable
  activates its pre-created edge; the configured cycle detector (ICD or the
  Tarjan-style baseline) checks acyclicity incrementally;
* **conflict clause generation** -- on a cycle, all shortest-width critical
  cycle reasons through the new edge are returned as conflict clauses;
* **unit-edge propagation** -- after a successful insertion of ``(u, v)``,
  every live inactive edge ``(f, b)`` with ``v ⇝ f`` and ``b ⇝ u`` would
  close a cycle, so its ordering variable is propagated false with the
  path's derivation reason, as an explanation over the call's two search
  trees that is built only if the SAT core reads it.  The search is the
  theory's own, independent of the detector: under ICD the
  pseudo-topological order first narrows
  the candidates to edges straddling the insertion window and then bounds
  both DFSs; the Tarjan baseline keeps no order and searches unbounded
  (see :meth:`OrderingTheory._propagate_unit_edges`);
* **from-read propagation** -- activating ``w ≺rf r`` derives ``r ≺fr w'``
  for every active ``w ≺ws w'`` (and symmetrically for WS activations),
  inserting derived FR edges on the fly (Axiom 2); with
  ``fr_propagation=False`` (the Zord⁻ ablation) FR edges are instead
  ordinary variable-controlled edges encoded by the front end.

The theory keeps its own trail of edge activations, synchronized with the
SAT solver's decision levels through :meth:`backjump`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.robustness import checkpoint as _robustness_checkpoint
from repro.sat.theory import Explanation, Theory, TheoryResult
from repro.ordering.conflict import generate_conflicts
from repro.ordering.event_graph import Edge, EdgeKind, EventGraph
from repro.ordering.icd import IncrementalCycleDetector
from repro.ordering.kernel import bounded_backward, bounded_forward, path_reason
from repro.ordering.tarjan import TarjanCycleDetector

__all__ = ["OrderingTheory", "TheoryStats"]

#: What :meth:`OrderingTheory.assign` returns when it has nothing to
#: report (a false literal, an unknown variable or an already active
#: edge): one shared result whose tuples cannot be appended to.
_NOTHING = TheoryResult()
_NOTHING.conflicts = ()
_NOTHING.propagations = ()

_RF = EdgeKind.RF
_WS = EdgeKind.WS


@dataclass
class TheoryStats:
    """Counters for the Section 6.3 ablation studies."""

    consistency_checks: int = 0
    cycles: int = 0
    conflict_clauses: int = 0
    #: Unit-edge propagations offered to the SAT core: one per live
    #: inactive edge that would close a cycle (dead ones are skipped).
    unit_propagations: int = 0
    fr_derived: int = 0
    edges_activated: int = 0
    icd_reorders: int = 0
    #: Insertions ICD accepted on the ``ord[u] < ord[v]`` fast path,
    #: without its two-way search (unit-edge propagation is the same
    #: either way).
    icd_fast_path: int = 0

    def as_dict(self) -> Dict[str, int]:
        return self.__dict__.copy()


class OrderingTheory(Theory):
    """Theory solver for ordering consistency.

    Args:
        n_events: number of event-graph nodes (dense event ids).
        po_edges: static program-order edges (always active).
        detector: ``"icd"`` (incremental, default) or ``"tarjan"``
            (fresh full search per insertion -- the Fig. 10 baseline).
        unit_edge: enable unit-edge propagation (disabled = Zord′).
        fr_propagation: enable on-the-fly FR derivation (disabled = Zord⁻,
            which requires the front end to encode ``rho_fr`` itself).
        max_conflict_clauses: cap on clauses generated per cycle.
    """

    def __init__(
        self,
        n_events: int,
        po_edges: List[Tuple[int, int]],
        detector: str = "icd",
        unit_edge: bool = True,
        fr_propagation: bool = True,
        max_conflict_clauses: int = 8,
    ) -> None:
        self.graph = EventGraph(n_events)
        if detector == "icd":
            self.detector = IncrementalCycleDetector(self.graph)
        elif detector == "tarjan":
            self.detector = TarjanCycleDetector(self.graph)
        else:
            raise ValueError(f"unknown detector {detector!r}")
        self.unit_edge = unit_edge
        self.fr_propagation = fr_propagation
        self.max_conflict_clauses = max_conflict_clauses
        self.stats = TheoryStats()
        #: Optional telemetry sink (``repro.verify.telemetry.TraceWriter``).
        self.telemetry = None
        #: Debug-mode invariant auditing (``REPRO_AUDIT=1`` or
        #: ``VerifierConfig.audit``, fixed at construction): each
        #: assign/backjump checks the trail entries it pushed/popped, and
        #: :meth:`proof_data` the whole state (:mod:`repro.oracle.audit`).
        from repro.oracle.audit import audit_enabled as _audit_enabled

        self.audit = _audit_enabled()
        if self.audit:
            # Shadowed on this instance, so the unaudited callbacks run
            # no audit test at all.
            self.assign = self._audited_assign
            self.backjump = self._audited_backjump
        if hasattr(self.detector, "on_reorder"):
            self.detector.on_reorder = self._note_reorder
        self._edge_of_var: Dict[int, Edge] = {}
        #: The owning solver's assignment array (see :meth:`attach`); until
        #: a solver attaches, every variable reads unassigned.  A
        #: variable-controlled edge is *live* while its variable is not
        #: false: only live edges are worth propagating.
        self._assign = defaultdict(int)
        #: Unit-edge candidates under ICD (see :meth:`_refresh_candidates`):
        #: ``_back`` holds the registered edges pointing backward in
        #: ``ord``, sorted by ``ord[dst]`` (``_back_keys``); ``_cands`` its
        #: live part, keyed for bisection by ``_cand_keys``.  Both are out
        #: of date when ``_cand_stale`` is set: wholly after a
        #: registration (``_back_stale``), for the labels of ``_relabelled``
        #: (a ``[lo, hi]`` range, or None) after reorders, and in their
        #: liveness after a backjump (``_live_stale``).  ``_reg_in`` lists
        #: the registered edges by destination.
        self._ordered = isinstance(self.detector, IncrementalCycleDetector)
        self._reg_in: List[List[Edge]] = [[] for _ in range(n_events)]
        self._back: List[Edge] = []
        self._back_keys: List[int] = []
        self._cands: List[Edge] = []
        self._cand_keys: List[int] = []
        self._cand_stale = self._back_stale = self._live_stale = True
        self._relabelled: Optional[Tuple[int, int]] = None
        #: Memoized FR edges keyed by (read, write, reason): one Edge per
        #: distinct derivation, so its ``active`` flag tells whether the
        #: fact is already on the trail.  A partner pair that re-triggers
        #: without an intervening backtrack then activates nothing twice
        #: (see :meth:`_insert_fr`).
        self._fr_cache: Dict[Tuple[int, int, Tuple[int, ...]], Edge] = {}
        #: Active outgoing RF / WS edges per node, for FR derivation.
        self._out_rf: List[List[Edge]] = [[] for _ in range(n_events)]
        self._out_ws: List[List[Edge]] = [[] for _ in range(n_events)]
        #: Activation trail: (edge, level) pairs, LIFO.
        self._trail: List[Tuple[Edge, int]] = []
        #: The program's own PO edges (reported by :meth:`proof_data`).
        self._po_edges: List[Tuple[int, int]] = list(po_edges)
        for i, (a, b) in enumerate(po_edges):
            # The Tarjan baseline does a full-graph search per insertion,
            # so building a large PO skeleton can dominate the run; keep it
            # under the deadline/memory budget.
            if i & 0xFF == 0:
                _robustness_checkpoint("encode")
            edge = Edge(a, b, EdgeKind.PO)
            result = self.detector.add_edge(edge)
            if result.cycle:
                raise ValueError("program order itself is cyclic")
        #: Static PO reachability bitmasks (public: the encoder prunes
        #: read-from candidates with it).  ``_po_reach``, the skeleton's
        #: reachability, adds the SYMMETRY edges.
        self.po_reach = self._compute_po_reachability(n_events, po_edges)
        self._po_reach = self.po_reach
        #: Verified thread swaps whose edges are in the skeleton (see
        #: :meth:`add_symmetry_edges`).
        self.symmetries: list = []

    def _note_reorder(self, n_back: int, n_fwd: int, lo: int, hi: int) -> None:
        """Detector callback: one pseudo-topological reordering happened,
        moving labels only among ``lo..hi``."""
        self.stats.icd_reorders += 1
        self._cand_stale = True
        span = self._relabelled
        if span is not None:
            lo = min(lo, span[0])
            hi = max(hi, span[1])
        self._relabelled = (lo, hi)
        if self.telemetry is not None:
            self.telemetry.emit("icd_reorder", back=n_back, fwd=n_fwd)

    def add_symmetry_edges(self, swaps: Sequence) -> None:
        """Add each verified swap's edge (a
        :class:`repro.encoding.symmetry.ThreadSwap`) to the skeleton.

        The edges order events that program order leaves unordered, and
        they hold only up to the swap: every model has a twin that obeys
        them.  They act as program order in the graph (no variable, no
        reason literal) and in the skeleton reachability, but :attr:`po_reach`
        and the program order :meth:`proof_data` reports stay the
        program's own; the edges and their swaps are reported apart."""
        for swap in swaps:
            a, b = swap.edge
            if self.detector.add_edge(Edge(a, b, EdgeKind.PO)).cycle:
                raise ValueError(f"symmetry edge {a}->{b} closes a cycle")
            self.symmetries.append(swap)
        if swaps:
            self._po_reach = self._compute_po_reachability(
                self.graph.n, self._po_edges + [s.edge for s in self.symmetries]
            )
            self._cand_stale = self._back_stale = True

    # ------------------------------------------------------------------
    # Construction-time registration
    # ------------------------------------------------------------------

    def add_rf_var(self, var: int, write_eid: int, read_eid: int) -> None:
        """Register a read-from variable: true activates write ≺rf read."""
        self._register(var, Edge(write_eid, read_eid, EdgeKind.RF, (var,), var))

    def add_ws_var(self, var: int, w1_eid: int, w2_eid: int) -> None:
        """Register a write-serialization variable."""
        self._register(var, Edge(w1_eid, w2_eid, EdgeKind.WS, (var,), var))

    def add_fr_var(self, var: int, read_eid: int, write_eid: int) -> None:
        """Register an explicit FR variable (Zord⁻ ablation only)."""
        self._register(var, Edge(read_eid, write_eid, EdgeKind.FR, (var,), var))

    def _register(self, var: int, edge: Edge) -> None:
        if var in self._edge_of_var:
            raise ValueError(f"variable {var} already registered")
        self._edge_of_var[var] = edge
        self.graph.register_inactive(edge)
        self._reg_in[edge.dst].append(edge)
        self._cand_stale = self._back_stale = True

    def ordering_edges(self) -> Dict[int, Tuple[str, int, int]]:
        """``{var: (kind, src, dst)}`` for the registered variables."""
        return {v: (e.kind, e.src, e.dst) for v, e in self._edge_of_var.items()}

    def initial_unit_clauses(self) -> List[List[int]]:
        """Level-0 unit-edge propagation against the PO skeleton.

        Any pre-created edge (u, v) whose reverse direction is already
        enforced by program order can never be activated; its variable is
        fixed false (e.g. ``ws_{5,1}`` in the Section 5.5 walkthrough).
        """
        clauses: List[List[int]] = []
        for var, edge in self._edge_of_var.items():
            if (self._po_reach[edge.dst] >> edge.src) & 1:
                clauses.append([-var])
        return clauses

    # ------------------------------------------------------------------
    # Theory interface
    # ------------------------------------------------------------------

    def attach(self, assign: List[int]) -> None:
        self._assign = assign

    def relevant(self, var: int) -> bool:
        return var in self._edge_of_var

    def assign(self, lit: int, level: int) -> TheoryResult:
        if lit < 0:
            # False ordering literals remove no edges and add no orders.
            return _NOTHING
        edge = self._edge_of_var.get(lit)
        if edge is None or edge.active:
            return _NOTHING
        result = TheoryResult()
        self._activate(edge, level, result)
        return result

    def backjump(self, level: int) -> None:
        self._cand_stale = self._live_stale = True
        trail = self._trail
        remove = self.detector.remove_edge
        while trail and trail[-1][1] > level:
            edge, _lvl = trail.pop()
            remove(edge)
            kind = edge.kind
            if kind == _RF:
                popped = self._out_rf[edge.src].pop()
                assert popped is edge
            elif kind == _WS:
                popped = self._out_ws[edge.src].pop()
                assert popped is edge

    def proof_data(self):
        """The audit's proof data.  Asked for at the end of every audited
        solve, where the whole state is checked once per solve."""
        if self.audit:
            from repro.oracle.audit import check_icd_labels, check_theory_sync

            if self._ordered:
                check_icd_labels(self.graph)
            check_theory_sync(self)
        swaps = [(s.edge, s.events, s.variables) for s in self.symmetries]
        return self.ordering_edges(), self._po_edges, swaps

    def _audited_assign(self, lit: int, level: int) -> TheoryResult:
        """:meth:`assign`, then the audit's check of the trail entries it
        pushed (:func:`repro.oracle.audit.check_theory_push`)."""
        from repro.oracle.audit import check_theory_push

        mark, n_active = len(self._trail), self.graph.n_active_edges
        result = type(self).assign(self, lit, level)
        check_theory_push(self, mark, n_active, level)
        return result

    def _audited_backjump(self, level: int) -> None:
        """:meth:`backjump`, then the audit's check of the trail entries
        it popped (:func:`repro.oracle.audit.check_theory_pop`)."""
        from repro.oracle.audit import check_theory_pop

        trail, n_active = list(self._trail), self.graph.n_active_edges
        type(self).backjump(self, level)
        check_theory_pop(self, trail[len(self._trail):], n_active, level)

    # ------------------------------------------------------------------
    # Core activation
    # ------------------------------------------------------------------

    def _activate(self, edge: Edge, level: int, result: TheoryResult) -> bool:
        """Insert ``edge``; on cycle, fill ``result.conflicts`` and return
        False (leaving the graph unchanged)."""
        stats = self.stats
        stats.consistency_checks += 1
        if stats.consistency_checks & 0xFF == 0:
            _robustness_checkpoint("theory")
        added = self.detector.add_edge(edge)
        if added.cycle:
            stats.cycles += 1
            clauses = generate_conflicts(
                self.graph, self._po_reach, edge, self.max_conflict_clauses
            )
            stats.conflict_clauses += len(clauses)
            result.conflicts.extend(clauses)
            return False
        stats.edges_activated += 1
        if added.fast_path:
            stats.icd_fast_path += 1
        self._trail.append((edge, level))
        kind = edge.kind
        if kind == _RF:
            self._out_rf[edge.src].append(edge)
        elif kind == _WS:
            self._out_ws[edge.src].append(edge)
        if self.unit_edge:
            self._propagate_unit_edges(edge, result)
        if self.fr_propagation and (kind == _RF or kind == _WS):
            return self._derive_from_read(edge, level, result)
        return True

    # ------------------------------------------------------------------
    # Theory propagation (Section 5.4)
    # ------------------------------------------------------------------

    def _propagate_unit_edges(self, new_edge: Edge, result: TheoryResult) -> None:
        """Force false every live inactive edge ``(f, b)`` that would close a
        cycle through the just-inserted ``new_edge = (u, v)``: exactly those
        with ``v ⇝ f`` and ``b ⇝ u``.

        Under ICD ``ord`` is topological for the active edges (``new_edge``
        included), so a unit edge has ``ord[b] <= ord[u] < ord[v] <= ord[f]``.
        The candidate index yields the live edges that satisfy this; with
        none there is no search.  Otherwise the forward DFS from ``v`` is
        bounded above by the candidates' largest ``ord[f]`` and the
        backward DFS from ``u`` below by the smallest ``ord[b]`` of those
        it reached.  A node outside a bound only reaches nodes outside it,
        so the pruning changes neither the discovery order nor the DFS
        parent of any node inside: propagations, their order and their
        reasons are the ones an unbounded search gives.  That is what the
        Tarjan detector (no ``ord``) runs, walking the inactive index of
        every node it reaches.
        """
        g = self.graph
        u = new_edge.src
        v = new_edge.dst
        assign = self._assign
        inactive_out = g.inactive_out
        if self._ordered:
            if self._cand_stale:
                self._refresh_candidates()
            ord_ = g.ord
            k = bisect_right(self._cand_keys, ord_[u])
            if not k:
                return
            f_min = ord_[v]
            sel = [
                e
                for e in self._cands[:k]
                if ord_[e.src] >= f_min and assign[e.var] != -1
            ]
            if not sel:
                return
            f_max = max([ord_[e.src] for e in sel])
            epoch = g.new_epoch()
            fwd_nodes, fwd_par, _ = bounded_forward(g, v, f_max, epoch)
            vis_f = g.vis_f
            sel = [e for e in sel if vis_f[e.src] == epoch]
            if not sel:
                return
            # sel keeps the index's ord[b] order: sel[0] has the least.
            back_nodes, back_par = bounded_backward(g, u, ord_[sel[0].dst], epoch)
            vis_b = g.vis_b
            hit = {(e.src, e.dst) for e in sel if vis_b[e.dst] == epoch}
            # Offer order: f by forward discovery, then b by inactive index.
            pairs = [
                (f, b)
                for f in sorted({f for f, _ in hit}, key=fwd_nodes.index)
                for b in inactive_out[f]
                if (f, b) in hit
            ]
        else:
            epoch = g.new_epoch()
            fwd_nodes, fwd_par, _ = bounded_forward(g, v, g.n, epoch)
            back_nodes, back_par = bounded_backward(g, u, 0, epoch)
            vis_b = g.vis_b
            pairs = [
                (f, b)
                for f in fwd_nodes
                for b, edges in inactive_out[f].items()
                if edges and vis_b[b] == epoch
            ]
        props = result.propagations
        search = None
        n = 0
        for f, b in pairs:
            for e in inactive_out[f][b]:
                var = e.var
                if assign[var] != -1:
                    if search is None:
                        search = _UnitEdgeSearch(
                            back_nodes, back_par, fwd_nodes, fwd_par,
                            new_edge.reason,
                        )
                    props.append((-var, _UnitEdgeReason(search, var, f, b)))
                    n += 1
        self.stats.unit_propagations += n

    def _refresh_candidates(self) -> None:
        """Bring the candidate index for unit-edge propagation up to date
        under ICD.

        Only registered edges pointing backward in ``ord`` can become unit
        (active edges all point forward).  A registration rebuilds
        ``_back``: one pass over the destinations in label order
        (``graph.node_at``) yields it already sorted.  A reorder permutes
        labels only among its window ``lo..hi``, so only edges whose
        ``ord[dst]`` lies there change: an edge keyed below ``lo`` points
        backward whether or not its source moved (its source stays above
        ``lo``), one keyed above ``hi`` forward.  That slice of ``_back``
        is rebuilt from ``node_at[lo..hi]``, and the same slice of
        ``_cands`` refiltered.  After a backjump ``_cands`` is refiltered
        whole: in between, assignments only grow, so it stays a superset
        of the live backward edges.
        """
        g = self.graph
        ord_ = g.ord
        assign = self._assign
        reg_in = self._reg_in
        span = self._relabelled
        if self._back_stale:
            self._back = [
                e for d in g.node_at for e in reg_in[d] if ord_[e.src] > ord_[d]
            ]
            self._back_keys = [ord_[e.dst] for e in self._back]
            self._back_stale = False
            self._live_stale = True
        elif span is not None:
            lo, hi = span
            mid = [
                e
                for d in g.node_at[lo : hi + 1]
                for e in reg_in[d]
                if ord_[e.src] > ord_[d]
            ]
            _splice(self._back, self._back_keys, lo, hi, mid, ord_)
            if not self._live_stale:
                live = [e for e in mid if assign[e.var] != -1]
                _splice(self._cands, self._cand_keys, lo, hi, live, ord_)
        if self._live_stale:
            self._cands = [e for e in self._back if assign[e.var] != -1]
            self._cand_keys = [ord_[e.dst] for e in self._cands]
            self._live_stale = False
        self._relabelled = None
        self._cand_stale = False

    def _derive_from_read(
        self, edge: Edge, level: int, result: TheoryResult
    ) -> bool:
        """Apply Axiom 2 around a newly activated RF or WS edge."""
        # The partner lists do not change meanwhile: the insertions below
        # activate FR edges only, which join neither index.
        if edge.kind == _RF:
            # w ≺rf r combined with each active w ≺ws w' gives r ≺fr w'.
            for ws_edge in self._out_ws[edge.src]:
                if not self._insert_fr(edge, ws_edge, level, result):
                    return False
        else:
            # w ≺ws w' combined with each active w ≺rf r gives r ≺fr w'.
            for rf_edge in self._out_rf[edge.src]:
                if not self._insert_fr(rf_edge, edge, level, result):
                    return False
        return True

    def _insert_fr(
        self, rf_edge: Edge, ws_edge: Edge, level: int, result: TheoryResult
    ) -> bool:
        read_eid = rf_edge.dst
        write_eid = ws_edge.dst
        # The derived edge's reason: its two premises' variables, sorted
        # (an RF or WS edge's reason is its own variable).
        r = rf_edge.var
        w = ws_edge.var
        reason = (r, w) if r < w else (w, r)
        if read_eid == write_eid:
            # Only possible if the same event is used as both a read and a
            # write target (ill-typed input); the derived order e ≺fr e is
            # immediately inconsistent.
            result.add_conflict([-lit for lit in reason])
            self.stats.cycles += 1
            self.stats.conflict_clauses += 1
            return False
        key = (read_eid, write_eid, reason)
        fr = self._fr_cache.get(key)
        if fr is None:
            fr = Edge(read_eid, write_eid, EdgeKind.FR, reason)
            self._fr_cache[key] = fr
        elif fr.active:
            # Already derived and active on the trail (the partner pair
            # re-triggered without an intervening backtrack): nothing new.
            return True
        self.stats.fr_derived += 1
        return self._activate(fr, level, result)

    # ------------------------------------------------------------------
    # Static PO reachability (for PO-chord tests and level-0 propagation)
    # ------------------------------------------------------------------

    @staticmethod
    def _compute_po_reachability(
        n: int, po_edges: List[Tuple[int, int]]
    ) -> List[int]:
        """Bitmask per node of all nodes PO-reachable from it (excl. self)."""
        out: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in po_edges:
            out[a].append(b)
            indeg[b] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        order: List[int] = []
        while queue:
            x = queue.pop()
            order.append(x)
            for y in out[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        assert len(order) == n, "PO skeleton must be acyclic"
        reach = [0] * n
        for x in reversed(order):
            mask = 0
            for y in out[x]:
                mask |= reach[y] | (1 << y)
            reach[x] = mask
        return reach


def _splice(edges, keys, lo, hi, new, ord_) -> None:
    """Replace the entries of ``edges`` keyed ``lo..hi`` (``keys`` is its
    sorted ``ord[dst]`` list) by ``new``, which is sorted the same way."""
    i = bisect_left(keys, lo)
    j = bisect_right(keys, hi)
    edges[i:j] = new
    keys[i:j] = [ord_[e.dst] for e in new]


class _UnitEdgeSearch:
    """The two search trees of one productive unit-edge call, kept for
    the explanations of its propagations.

    The trees are the call's own lists (nothing mutates them afterwards)
    and an edge's reason never changes, so a clause built from them later
    is the one the call would have built.  The parent maps and path memos
    are made on the first read."""

    __slots__ = (
        "back_nodes", "back_par", "fwd_nodes", "fwd_par",
        "new_reason", "bmap", "fmap", "bmemo", "fmemo",
    )

    def __init__(self, back_nodes, back_par, fwd_nodes, fwd_par, new_reason):
        self.back_nodes = back_nodes
        self.back_par = back_par
        self.fwd_nodes = fwd_nodes
        self.fwd_par = fwd_par
        self.new_reason = new_reason
        self.bmap = None

    def clause(self, var: int, f: int, b: int) -> List[int]:
        """``-var`` and the negated literals of the cycle path
        ``b ⇝ u --new--> v ⇝ f`` that the edge ``(f, b)`` would close."""
        if self.bmap is None:
            self.bmap = dict(zip(self.back_nodes, self.back_par))
            self.fmap = dict(zip(self.fwd_nodes, self.fwd_par))
            self.bmemo = {}
            self.fmemo = {}
        path_lits = (
            path_reason(b, self.bmap, True, self.bmemo)
            + list(self.new_reason)
            + path_reason(f, self.fmap, False, self.fmemo)
        )
        return [-var] + sorted({-l for l in path_lits}, reverse=True)


class _UnitEdgeReason(Explanation):
    """The reason ``-var ∨ ¬path`` of one unit-edge propagation."""

    __slots__ = ("search", "var", "f", "b")

    def __init__(self, search: _UnitEdgeSearch, var: int, f: int, b: int) -> None:
        self.search = search
        self.var = var
        self.f = f
        self.b = b

    def lits(self) -> List[int]:
        return self.search.clause(self.var, self.f, self.b)
