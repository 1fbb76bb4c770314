"""Debug-mode invariant auditor for the DPLL(T) core (the oracle's third
leg, next to differential testing and witness replay).

The soundness of the T_ord integration rests on delicate bookkeeping --
incremental cycle detection labels, the theory trail, the RF/WS indices,
conflict-clause falsification, unsat cores -- and theory/SAT desyncs in
exactly this kind of integration are notoriously silent: the solver keeps
producing *answers*, just not always the right ones.  The auditor turns
those invariants into hard checks:

* **ICD labels** (:func:`check_icd_labels`): the pseudo-topological order
  is a permutation and every active edge ``u -> v`` satisfies
  ``ord[u] < ord[v]``;
* **theory state sync** (:func:`check_theory_sync`): the theory trail,
  the event graph's active adjacency (out and in), the
  ``_out_rf``/``_out_ws`` partner indices and the inactive-edge index all
  describe the same set of edges, in activation order, across arbitrary
  backjumps; a fresh unit-edge candidate index lists every live edge that
  points backward in the ICD order, with current labels;
* **conflict clauses** (:func:`check_conflict_clause`): every theory
  conflict clause handed to the SAT core is actually falsified by the
  current assignment;
* **propagation reasons** (:func:`check_propagation_reason`): a reason
  clause contains its propagated literal and no other non-false literal;
* **unit-edge reasons** (:func:`check_unit_edge_reason`): the reason of a
  unit-edge propagation names active edges that, with the unit edge,
  close a real cycle through the inserted edge -- every from-read edge on
  it justified by its Axiom 2 premises inside the reason;
* **answers** (:mod:`repro.oracle.certify`): the SAT core logs every
  clause its search relies on, and an independent proof checker accepts
  learned clauses by reverse unit propagation and theory lemmas as real
  cycles, certifies every UNSAT by RUP of its negated unsat core, and
  checks every SAT model against the input clauses and the ordering
  axioms.

Auditing is opt-in: set ``REPRO_AUDIT=1`` in the environment (picked up
by every :class:`~repro.sat.solver.Solver` /
:class:`~repro.ordering.solver.OrderingTheory` at construction) or pass
``VerifierConfig(audit=True)``.  A verification builds its engine's
components inside :func:`audit_scope` with its config's resolved
``audit``, so ``VerifierConfig(audit=False)`` runs unaudited under
``REPRO_AUDIT=1``.  A violation raises :class:`AuditError`,
an ``AssertionError`` subclass: under the crash-containment guard it
surfaces as an ``ERROR`` verdict whose diagnostic names the broken
invariant, which the fuzz harness (:mod:`repro.oracle.harness`) counts as
a finding.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence

__all__ = [
    "AuditError",
    "audit_enabled",
    "parse_audit",
    "check_icd_labels",
    "check_theory_sync",
    "check_conflict_clause",
    "check_propagation_reason",
    "check_unit_edge_reason",
    "audit_scope",
]

_TRUTHY = ("1", "true", "on", "yes")


class AuditError(AssertionError):
    """An internal solver invariant does not hold.

    This always indicates a verifier bug (never an input error), hence an
    ``AssertionError``: tests fail loudly, and the crash guard contains it
    into an ``ERROR`` verdict with the invariant in the diagnostic."""


def parse_audit(raw: str) -> bool:
    """The ``REPRO_AUDIT`` parser, shared with
    :func:`repro.verify.config.env_knob`."""
    return raw.strip().lower() in _TRUTHY


_scope = threading.local()


def audit_enabled() -> bool:
    """Whether components built now audit: the innermost
    :func:`audit_scope` of this thread decides, else ``REPRO_AUDIT``
    (read per construction, so tests can flip it with
    ``monkeypatch.setenv``)."""
    on = getattr(_scope, "on", None)
    if on is not None:
        return on
    return parse_audit(os.environ.get("REPRO_AUDIT", ""))


@contextmanager
def audit_scope(on: bool):
    """Build components auditing (or not, with ``on=False``) whatever
    ``REPRO_AUDIT`` says.  Auditing is fixed at construction: the SAT
    core's proof log must hold every input clause."""
    saved = getattr(_scope, "on", None)
    _scope.on = on
    try:
        yield
    finally:
        _scope.on = saved


# ----------------------------------------------------------------------
# ICD label consistency
# ----------------------------------------------------------------------


def check_icd_labels(graph) -> None:
    """The pseudo-topological labels are consistent with all active edges.

    ``graph`` is a :class:`repro.ordering.event_graph.EventGraph` whose
    ``ord`` labels are maintained by the incremental cycle detector.
    """
    ord_ = graph.ord
    n = graph.n
    if sorted(ord_) != list(range(n)):
        raise AuditError(
            f"ICD labels are not a permutation of 0..{n - 1}: {ord_}"
        )
    for edges in graph.out:
        for e in edges:
            if ord_[e.src] >= ord_[e.dst]:
                raise AuditError(
                    f"active edge {e!r} violates the pseudo-topological "
                    f"order: ord[{e.src}]={ord_[e.src]} >= "
                    f"ord[{e.dst}]={ord_[e.dst]}"
                )


# ----------------------------------------------------------------------
# Theory trail / graph / index synchronization
# ----------------------------------------------------------------------


def check_theory_sync(theory) -> None:
    """Trail, active adjacency, RF/WS partner indices and the
    inactive-edge index all agree (``theory`` is an
    :class:`repro.ordering.solver.OrderingTheory`)."""
    graph = theory.graph
    trail = theory._trail

    for (e1, l1), (e2, l2) in zip(trail, trail[1:]):
        if l1 > l2:
            raise AuditError(
                f"theory trail levels not monotone: {e1!r}@{l1} precedes "
                f"{e2!r}@{l2}"
            )

    active: List = [e for edges in graph.out for e in edges]
    active_ids = {id(e) for e in active}
    if len(active_ids) != len(active):
        raise AuditError("an edge appears twice in the active out-adjacency")
    inc = [e for edges in graph.inc for e in edges]
    if len(inc) != len(active) or {id(e) for e in inc} != active_ids:
        raise AuditError(
            f"in/out adjacency desynchronized: {len(inc)} incoming vs "
            f"{len(active)} outgoing active edges"
        )
    if graph.n_active_edges != len(active):
        raise AuditError(
            f"active edge count {graph.n_active_edges} != adjacency size "
            f"{len(active)}"
        )
    for e in active:
        if not e.active:
            raise AuditError(f"edge in adjacency but not flagged active: {e!r}")

    trail_ids = [id(e) for e, _ in trail]
    if len(set(trail_ids)) != len(trail_ids):
        raise AuditError("an edge appears twice on the theory trail")
    non_po_ids = {id(e) for e in active if not e.is_po}
    if set(trail_ids) != non_po_ids:
        missing = [e for e, _ in trail if id(e) not in active_ids]
        stray = [e for e in active if not e.is_po and id(e) not in set(trail_ids)]
        raise AuditError(
            "theory trail and active non-PO edges disagree: "
            f"trail edges not active={missing!r}, "
            f"active edges not on trail={stray!r}"
        )

    # RF/WS partner indices mirror the trail in activation order.
    expect_rf: List[List] = [[] for _ in range(graph.n)]
    expect_ws: List[List] = [[] for _ in range(graph.n)]
    for e, _lvl in trail:
        if e.kind == "rf":
            expect_rf[e.src].append(e)
        elif e.kind == "ws":
            expect_ws[e.src].append(e)
    for src in range(graph.n):
        for label, got, want in (
            ("_out_rf", theory._out_rf[src], expect_rf[src]),
            ("_out_ws", theory._out_ws[src], expect_ws[src]),
        ):
            if len(got) != len(want) or any(
                a is not b for a, b in zip(got, want)
            ):
                raise AuditError(
                    f"{label}[{src}] desynchronized from the trail: "
                    f"index={got!r}, trail={want!r}"
                )

    # Variable-controlled edges sit in exactly one of active / inactive.
    for var, e in theory._edge_of_var.items():
        bucket = graph.inactive_out[e.src].get(e.dst, [])
        in_bucket = any(x is e for x in bucket)
        if e.active:
            if id(e) not in active_ids:
                raise AuditError(
                    f"registered edge flagged active but absent from the "
                    f"adjacency: var {var}, {e!r}"
                )
            if in_bucket:
                raise AuditError(
                    f"active edge still in the inactive index: var {var}, {e!r}"
                )
        elif not in_bucket:
            raise AuditError(
                f"inactive registered edge missing from the inactive "
                f"index: var {var}, {e!r}"
            )

    _check_unit_candidates(theory)


def _check_unit_candidates(theory) -> None:
    """A non-stale unit-edge candidate index agrees with the labels (ICD):
    ``_back`` is exactly the registered edges pointing backward, sorted by
    ``ord[dst]``, and ``_cands`` holds every live one, keyed by its
    current ``ord[dst]``."""
    if not getattr(theory, "_ordered", False) or theory._back_stale:
        return
    ord_ = theory.graph.ord
    want = {
        var
        for var, e in theory._edge_of_var.items()
        if ord_[e.src] > ord_[e.dst]
    }
    got = [e.var for e in theory._back]
    if len(got) != len(set(got)) or set(got) != want:
        raise AuditError(
            f"unit-edge candidate index lists {sorted(got)}, but the edges "
            f"pointing backward in ord are {sorted(want)}"
        )
    keys = [ord_[e.dst] for e in theory._back]
    if keys != sorted(keys):
        raise AuditError(f"unit-edge candidate index is out of order: {keys}")
    if theory._cand_stale:
        return
    if theory._cand_keys != [ord_[e.dst] for e in theory._cands]:
        raise AuditError(
            f"unit-edge candidate keys {theory._cand_keys} are stale"
        )
    listed = {e.var for e in theory._cands}
    assign = theory._assign
    missing = sorted(var for var in want if assign[var] != -1 and var not in listed)
    if missing:
        raise AuditError(
            f"live backward edges missing from the unit-edge candidates: "
            f"vars {missing}"
        )


# ----------------------------------------------------------------------
# SAT-side checks (called by the solver with its own value function)
# ----------------------------------------------------------------------


def check_conflict_clause(
    value_of: Callable[[int], Optional[bool]], clause: Sequence[int]
) -> None:
    """Every literal of a theory conflict clause must be currently false."""
    for lit in clause:
        v = value_of(lit)
        if v is not False:
            state = "unassigned" if v is None else "true"
            raise AuditError(
                f"theory conflict clause {list(clause)} is not falsified: "
                f"literal {lit} is {state}"
            )


def check_propagation_reason(
    value_of: Callable[[int], Optional[bool]],
    lit: int,
    reason: Sequence[int],
) -> None:
    """A propagation reason must contain ``lit`` and no other non-false
    literal, and ``lit`` itself must not already be false."""
    if lit not in reason:
        raise AuditError(
            f"propagation reason {list(reason)} does not contain its "
            f"propagated literal {lit}"
        )
    for other in reason:
        if other == lit:
            continue
        v = value_of(other)
        if v is not False:
            state = "unassigned" if v is None else "true"
            raise AuditError(
                f"propagation reason {list(reason)} for literal {lit} has "
                f"non-false literal {other} ({state})"
            )


# ----------------------------------------------------------------------
# Unit-edge propagation reasons (called by the theory solver)
# ----------------------------------------------------------------------


def check_unit_edge_reason(theory, new_edge, unit, reason: Sequence[int]) -> None:
    """The reason clause of the unit edge ``unit = (f, b)``, propagated
    after inserting ``new_edge = (u, v)``, is a real cycle.

    The reason (less ``-unit.var``) must name only active ordering edges.
    Those edges, the program order and every from-read edge whose Axiom 2
    premises (an RF and a WS edge out of one write) both lie in the reason
    must hold paths ``b ⇝ u`` and ``v ⇝ f``; ``new_edge``'s own derivation
    must be in the reason.  With ``(u, v)`` and ``(f, b)`` they close the
    cycle that makes ``unit`` false.
    """
    if -unit.var not in reason:
        raise AuditError(
            f"unit-edge reason {list(reason)} lacks its literal {-unit.var}"
        )
    lits = {-lit for lit in reason if lit != -unit.var}
    edges = []
    for var in sorted(lits):
        edge = theory._edge_of_var.get(var)
        if edge is None or not edge.active:
            state = "unregistered" if edge is None else "inactive"
            raise AuditError(
                f"unit-edge reason {list(reason)} for {unit!r} names "
                f"{state} ordering variable {var}"
            )
        edges.append(edge)
    missing = set(new_edge.reason) - lits
    if missing:
        raise AuditError(
            f"unit-edge reason {list(reason)} for {unit!r} omits the "
            f"inserted edge {new_edge!r} (variables {sorted(missing)})"
        )
    succ = {}
    for a, b in theory._po_edges:
        succ.setdefault(a, []).append(b)
    for e in edges:
        succ.setdefault(e.src, []).append(e.dst)
    # Axiom 2: w ≺rf r and w ≺ws w' give r ≺fr w'.
    for rf in edges:
        if rf.kind != "rf":
            continue
        for ws in edges:
            if ws.kind == "ws" and ws.src == rf.src and ws.dst != rf.dst:
                succ.setdefault(rf.dst, []).append(ws.dst)

    def reaches(x, y):
        seen, stack = {x}, [x]
        while stack:
            z = stack.pop()
            if z == y:
                return True
            for w in succ.get(z, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    for x, y in ((unit.dst, new_edge.src), (new_edge.dst, unit.src)):
        if not reaches(x, y):
            raise AuditError(
                f"unit-edge reason {list(reason)} for {unit!r} after "
                f"inserting {new_edge!r} has no justified path {x} ⇝ {y}: "
                f"the edges do not close a cycle"
            )
