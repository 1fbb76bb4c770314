"""Independent proof checker for the DPLL(T_ord) core's answers.

Under ``REPRO_AUDIT=1`` / ``VerifierConfig(audit=True)`` the SAT core
appends every clause it comes to rely on to a proof log, and this module
checks the log after each :meth:`~repro.sat.solver.Solver.solve`.  It is
deliberately naive and imports nothing from ``repro.sat``,
``repro.ordering``, ``repro.encoding`` or ``repro.baselines``: a bug
there cannot hide by being shared with the checker.

A log entry is ``(tag, literals)`` with DIMACS literals:

* ``"input"`` -- a problem clause as given to ``add_clause``: the formula;
* ``"learn"`` -- a learned clause (units included), accepted by reverse
  unit propagation (RUP): assigning every literal false and propagating
  the clauses accepted so far must reach a conflict;
* ``"theory"`` -- a theory conflict clause, pending lemma or propagation
  reason, accepted when every literal negates a registered ordering
  variable and those edges, together with program order and every
  from-read edge Axiom 2 derives from an RF/WS pair among them
  (``rf(w, r)`` and ``ws(w, w')`` give ``fr(r, w')``; ``r = w'`` is a
  self-loop), contain a cycle;
* ``"import"`` -- a clause imported from a portfolio sibling: the one
  trusted premise (it was checked, if at all, by the solver that
  learned it).  The lemmas of a theory that gives no proof data (a
  third-party or test theory; the ordering theories all give it) are
  trusted the same way.

The theory's proof data may also list SYMMETRY edges, each with the
thread swap that justifies it (``repro.encoding.symmetry``).  Before an
edge joins the checker's program order, its swap must be an involution
of the literals and of the events that exchanges the edge's two ends,
map every input clause, every registered ordering edge and the program
order among the edges' endpoints onto themselves, and fix the ends of
every other symmetry edge; the edges must form disjoint chains.  Every
check re-checks every swap against the grown log, and an UNSAT answer
additionally needs each swap to fix the solve's assumptions.  Then any
model can be renamed, one swap at a time, into one that obeys the edges,
so a refutation that uses them refutes the formula.

Deletions are not logged: the checker's clause set only grows, which
keeps every RUP step sound.  An UNSAT answer is certified when its core
is a subset of the assumptions and the negated core (the empty clause
without assumptions) is RUP; a SAT model must satisfy every input
clause, and its true ordering edges plus program order plus Axiom-2
from-reads must be acyclic.  Any failure raises
:class:`~repro.oracle.audit.AuditError`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.oracle.audit import AuditError

__all__ = ["ProofChecker"]

#: ``{var: (kind, src, dst)}`` for the registered ordering variables, the
#: program-order (or preserved-program-order) edge list and, optionally,
#: the symmetry edges with their swaps: ``((a, b), {event: image},
#: {var: image literal})``.
OrderingData = Tuple[Dict[int, Tuple[str, int, int]], List[Tuple[int, int]]]
Swap = Tuple[Tuple[int, int], Dict[int, int], Dict[int, int]]


class ProofChecker:
    """Checks one solver's proof log, incrementally across its solves.

    Counters: ``rup`` learned clauses and ``lemmas`` theory lemmas
    accepted, ``trusted`` imports and unchecked lemmas, ``symmetries``
    symmetry edges admitted, ``certified`` UNSAT answers, ``models`` SAT
    models checked and ``time_s`` spent checking; a verification reports
    them as ``certify_*`` stats (:meth:`as_stats`).
    """

    def __init__(self) -> None:
        self.clauses: List[List[int]] = []
        self.inputs: List[List[int]] = []
        #: literal -> indices of the stored clauses watching it.
        self.watches: Dict[int, List[int]] = {}
        #: Literals implied by unit propagation over the accepted clauses.
        self.true: set = set()
        #: Unit propagation over the accepted clauses reaches a conflict.
        self.refuted = False
        #: The theory's registered ordering edges (None until a theory
        #: gives proof data).
        self.edges: Optional[Dict[int, Tuple[str, int, int]]] = None
        self.po: List[Tuple[int, int]] = []
        #: The admitted symmetry swaps; ``_po_reach`` closes program order
        #: and their edges, ``_program_reach`` program order alone.
        self.swaps: List[Swap] = []
        self._po_reach: Dict[int, int] = {}
        self._program_reach: Dict[int, int] = {}
        #: The input clauses as literal sets (kept once a swap is seen).
        self._input_keys: Optional[set] = None
        self.rup = self.lemmas = self.trusted = self.symmetries = 0
        self.certified = self.models = 0
        self.time_s = 0.0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def check(
        self,
        entries: Sequence[Tuple[str, Sequence[int]]],
        ordering: Optional[OrderingData] = None,
    ) -> None:
        """Check and accept ``entries``, the log appended since the last
        call, in order.  ``ordering`` is the theory's current proof data
        (None: unchanged, or a theory that gives none)."""
        t = time.perf_counter()
        if ordering is not None:
            self.edges, po, *rest = ordering
            swaps = rest[0] if rest else []
            if len(po) != len(self.po) or len(swaps) != len(self.swaps):
                self.po = list(po)
                self._program_reach = _closure(self.po)
                self.swaps = list(swaps)
                self._po_reach = _closure(self.po + [s[0] for s in swaps])
            if self.swaps:
                self._check_swaps([l for tag, l in entries if tag == "input"])
        for tag, lits in entries:
            if tag == "learn":
                if not self._rup(lits):
                    raise AuditError(f"learned clause {lits} is not RUP")
                self.rup += 1
            elif tag == "theory" and self.edges is not None:
                self._check_lemma(lits)
                self.lemmas += 1
            elif tag in ("import", "theory"):
                self.trusted += 1
            elif tag == "input":
                self.inputs.append(lits)
            else:
                raise AuditError(f"unknown proof log tag {tag!r}")
            self._add(lits)
        self.time_s += time.perf_counter() - t

    def certify_unsat(self, core: Sequence[int], assumptions: Sequence[int]) -> None:
        """An UNSAT answer: ``core`` is a subset of ``assumptions`` and
        its negation is RUP."""
        t = time.perf_counter()
        stray = [lit for lit in core if lit not in assumptions]
        if stray:
            raise AuditError(
                f"unsat core literals {stray} are not among the "
                f"assumptions {list(assumptions)}"
            )
        for (a, b), _, variables in self.swaps:
            moved = [lit for lit in assumptions if _image(variables, lit) != lit]
            if moved:
                raise AuditError(
                    f"symmetry edge {a}->{b}: its swap moves the "
                    f"assumptions {moved}"
                )
        if not self._rup([-lit for lit in core]):
            raise AuditError(
                f"UNSAT is not certified: the negated core {list(core)} "
                f"is not RUP"
            )
        self.certified += 1
        self.time_s += time.perf_counter() - t

    def check_model(self, model: Sequence[int]) -> None:
        """A SAT answer: ``model[v]`` is 1 (true) or -1 (false) per
        variable.  Every input clause holds, and the true ordering edges
        with program order and Axiom-2 from-reads are acyclic."""
        t = time.perf_counter()
        true = {v if model[v] > 0 else -v for v in range(1, len(model)) if model[v]}
        for clause in self.inputs:
            if not any(lit in true for lit in clause):
                raise AuditError(f"model violates input clause {clause}")
        if self.edges is not None:
            cycle = self._cycle([var for var in self.edges if var in true])
            if cycle is not None:
                raise AuditError(
                    f"model's ordering edges contain the cycle {cycle}"
                )
        self.models += 1
        self.time_s += time.perf_counter() - t

    def as_stats(self) -> Dict[str, float]:
        """The counters as ``result.stats`` extras."""
        stats = {
            f"certify_{k}": getattr(self, k)
            for k in ("rup", "lemmas", "symmetries", "certified", "models")
        }
        stats["certify_time_s"] = round(self.time_s, 6)
        return stats

    # ------------------------------------------------------------------
    # Clauses and unit propagation
    # ------------------------------------------------------------------

    def _add(self, lits: List[int]) -> None:
        """Accept a clause.  ``true`` stays the unit-propagation fixpoint
        of the accepted clauses; a clause that is satisfied or unit there
        never propagates again and is not stored."""
        if self.refuted:
            return
        true = self.true
        open_lits: List[int] = []
        for lit in lits:
            if lit in true:
                return
            if -lit not in true and lit not in open_lits:
                open_lits.append(lit)
        if len(open_lits) < 2:
            self.refuted = not open_lits or not self._propagate(open_lits, [])
            return
        # Literals false in the fixpoint stay false: store the open ones
        # and watch the first two.
        idx = len(self.clauses)
        self.clauses.append(open_lits)
        for lit in open_lits[:2]:
            self.watches.setdefault(lit, []).append(idx)

    def _propagate(self, queue: List[int], trail: List[int]) -> bool:
        """Make ``queue`` true and unit-propagate (two watched literals per
        clause), recording new literals on ``trail``; False on conflict."""
        true = self.true
        clauses = self.clauses
        watches = self.watches
        i = 0
        while i < len(queue):
            lit = queue[i]
            i += 1
            if lit in true:
                continue
            if -lit in true:
                return False
            true.add(lit)
            trail.append(lit)
            false_lit = -lit
            watching = watches.get(false_lit)
            if not watching:
                continue
            keep = []
            for j, idx in enumerate(watching):
                c = clauses[idx]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                other = c[0]
                if other not in true:
                    for k in range(2, len(c)):
                        q = c[k]
                        if -q not in true:
                            c[1], c[k] = q, false_lit
                            watches.setdefault(q, []).append(idx)
                            break
                    else:
                        if -other in true:
                            watches[false_lit] = keep + watching[j:]
                            return False
                        queue.append(other)
                    if c[1] != false_lit:
                        continue
                keep.append(idx)
            watches[false_lit] = keep
        return True

    def _rup(self, lits: List[int]) -> bool:
        """Whether ``lits`` follows from the accepted clauses by reverse
        unit propagation."""
        if self.refuted:
            return True
        trail: List[int] = []
        refuted = not self._propagate([-lit for lit in lits], trail)
        self.true.difference_update(trail)
        return refuted

    # ------------------------------------------------------------------
    # Symmetry edges
    # ------------------------------------------------------------------

    def _check_swaps(self, new_inputs: List[Sequence[int]]) -> None:
        """Check every swap against the inputs so far plus
        ``new_inputs``, the edges and program order (see the module
        docstring); raises :class:`AuditError` on the first failure."""
        keys = self._input_keys
        if keys is None:
            keys = self._input_keys = {frozenset(c) for c in self.inputs}
        keys.update(map(frozenset, new_inputs))
        ends = {x for (a, b), _, _ in self.swaps for x in (a, b)}
        nodes = set(ends)
        for _, a, b in self.edges.values():
            nodes.update((a, b))
        outs = [a for (a, _), _, _ in self.swaps]
        ins = [b for (_, b), _, _ in self.swaps]
        if len(set(outs)) != len(outs) or len(set(ins)) != len(ins):
            raise AuditError(
                f"symmetry edges {[s[0] for s in self.swaps]} do not form "
                f"disjoint chains"
            )
        chains = _chain_ends(self._program_reach, nodes)
        component = _components(self.edges.values())
        for swap in self.swaps:
            self._check_swap(swap, keys, ends, nodes, chains, component)
        self.symmetries = len(self.swaps)

    def _check_swap(
        self,
        swap: Swap,
        keys: set,
        ends: set,
        nodes: set,
        chains: Tuple[set, set],
        component: Dict[int, int],
    ) -> None:
        (a, b), events, variables = swap
        where = f"symmetry edge {a}->{b}"
        if events.get(a) != b or any(
            events.get(y, y) != x for x, y in events.items()
        ):
            raise AuditError(
                f"{where}: its event swap is not an involution that "
                f"exchanges the two ends"
            )
        stray = [x for x in ends if x not in (a, b) and events.get(x, x) != x]
        if stray:
            raise AuditError(f"{where}: its swap moves the symmetry edge ends {stray}")
        for v, lit in variables.items():
            if v <= 0 or not lit or _image(variables, lit) != v:
                raise AuditError(
                    f"{where}: its literal map is not an involution at {v}"
                )
        for var, (kind, x, y) in self.edges.items():
            image = _image(variables, var)
            if self.edges.get(image) != (kind, events.get(x, x), events.get(y, y)):
                raise AuditError(
                    f"{where}: its swap maps ordering variable {var} "
                    f"({kind} {x}->{y}) to {image}, which is not the "
                    f"swapped edge"
                )
        reach = self._program_reach
        # A pair of initial (or final) nodes that no registered edge path
        # joins may be reordered when the swap keeps both chains
        # (docs/ORACLE.md).
        kept = all(events.get(x, x) in chain for chain in chains for x in chain)
        for x in nodes:
            mask = reach.get(x, 0)
            for y in nodes:
                if (mask >> y & 1) != (
                    reach.get(events.get(x, x), 0) >> events.get(y, y) & 1
                ) and not (
                    kept
                    and component.get(x, x) != component.get(y, y)
                    and any(x in chain and y in chain for chain in chains)
                ):
                    raise AuditError(
                        f"{where}: its swap does not keep program order "
                        f"between events {x} and {y}"
                    )
        for clause in keys:
            if any(abs(lit) in variables for lit in clause):
                image = frozenset(_image(variables, lit) for lit in clause)
                if image not in keys:
                    raise AuditError(
                        f"{where}: its swap maps input clause "
                        f"{sorted(clause)} to {sorted(image)}, which is not "
                        f"an input clause"
                    )

    # ------------------------------------------------------------------
    # Ordering lemmas
    # ------------------------------------------------------------------

    def _check_lemma(self, lits: List[int]) -> None:
        for lit in lits:
            if lit >= 0 or -lit not in self.edges:
                raise AuditError(
                    f"theory lemma {lits}: literal {lit} does not negate a "
                    f"registered ordering variable"
                )
        if self._cycle([-lit for lit in lits]) is None:
            raise AuditError(
                f"theory lemma {lits}: its edges, program order and "
                f"Axiom-2 from-reads contain no cycle"
            )

    def _cycle(self, variables: Sequence[int]) -> Optional[List[int]]:
        """A cycle through the edges of ``variables``, program order and
        the from-reads Axiom 2 derives among them, or None.

        Program order enters as its transitive closure, so the search runs
        over the edges' endpoints only."""
        edges = [self.edges[var] for var in variables]
        arcs = [(a, b) for _, a, b in edges]
        arcs += [
            (r, w2)
            for kind, w, r in edges
            if kind == "rf"
            for kind2, w1, w2 in edges
            if kind2 == "ws" and w1 == w
        ]
        nodes = {x for arc in arcs for x in arc}
        succ: Dict[int, List[int]] = {x: [] for x in nodes}
        for a, b in arcs:
            succ[a].append(b)
        reach = self._po_reach
        for x in nodes:
            mask = reach.get(x, 0)
            if mask:
                succ[x].extend(y for y in nodes if mask >> y & 1)
        # Iterative three-colour DFS.
        colour = dict.fromkeys(nodes, 0)
        for root in nodes:
            if colour[root]:
                continue
            path = [root]
            stack = [iter(succ[root])]
            colour[root] = 1
            while stack:
                nxt = next(stack[-1], None)
                if nxt is None:
                    colour[path.pop()] = 2
                    stack.pop()
                elif colour[nxt] == 1:
                    return path[path.index(nxt):] + [nxt]
                elif colour[nxt] == 0:
                    colour[nxt] = 1
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
        return None


def _image(variables: Dict[int, int], lit: int) -> int:
    """The image of ``lit`` under a swap's literal map."""
    if lit > 0:
        return variables.get(lit, lit)
    return -variables.get(-lit, -lit)


def _chain_ends(reach: Dict[int, int], nodes: set) -> Tuple[set, set]:
    """The initial and the final ``nodes`` under program order ``reach``.
    An initial node is ordered with every node and only initial nodes
    come before it; a final node is the mirror image."""
    after = {x: {y for y in nodes if reach.get(x, 0) >> y & 1} for x in nodes}
    before: Dict[int, set] = {x: set() for x in nodes}
    for x, ys in after.items():
        for y in ys:
            before[y].add(x)
    total = {x for x in nodes if len(after[x]) + len(before[x]) == len(nodes) - 1}
    return (
        {x for x in total if before[x] <= total},
        {x for x in total if after[x] <= total},
    )


def _components(edges) -> Dict[int, int]:
    """Node -> a representative of its connected component under the
    registered ordering edges ``(kind, src, dst)``."""
    parent: Dict[int, int] = {}

    def root(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    for _, a, b in edges:
        parent[root(a)] = root(b)
    return {x: root(x) for x in parent}


def _closure(po: List[Tuple[int, int]]) -> Dict[int, int]:
    """Node -> bitmask of the nodes it reaches by one or more PO edges."""
    succ: Dict[int, List[int]] = {}
    for a, b in po:
        succ.setdefault(a, []).append(b)
    reach: Dict[int, int] = {}

    def visit(root: int) -> None:
        stack = [(root, iter(succ.get(root, ())))]
        on_stack = {root}
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                on_stack.discard(node)
                mask = 0
                for y in succ.get(node, ()):
                    mask |= reach[y] | (1 << y)
                reach[node] = mask
            elif nxt not in reach:
                if nxt in on_stack:
                    raise AuditError(f"program order is cyclic at node {nxt}")
                on_stack.add(nxt)
                stack.append((nxt, iter(succ.get(nxt, ()))))

    for node in list(succ):
        if node not in reach:
            visit(node)
    return reach
