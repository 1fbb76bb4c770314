"""Debug-mode invariant auditor for the DPLL(T) core (the oracle's third
leg, next to differential testing and witness replay).

The soundness of the T_ord integration rests on delicate bookkeeping --
incremental cycle detection labels, the theory trail, the RF/WS indices,
conflict-clause falsification, unsat cores -- and theory/SAT desyncs in
exactly this kind of integration are notoriously silent: the solver keeps
producing *answers*, just not always the right ones.  The auditor turns
those invariants into hard checks, each run once, by the component that
owns the state it reads:

* **ICD labels** (:func:`check_icd_labels`): ``ord`` is a permutation
  and every active edge ``u -> v`` has ``ord[u] < ord[v]``.  Labels move
  only in a reorder, which the detector checks as a delta
  (:func:`check_icd_reorder`);
* **theory state sync** (:func:`check_theory_sync`): the trail, the
  active adjacency (out and in), the ``_out_rf``/``_out_ws`` partner
  indices and the inactive-edge index describe the same edges, in
  activation order, and the unit-edge candidate index lists every live
  edge pointing backward in ``ord``.  The theory checks what each
  ``assign`` pushed (:func:`check_theory_push`) and each ``backjump``
  popped (:func:`check_theory_pop`);
* **conflict clauses** (:func:`check_conflict_clause`): every theory
  conflict clause handed to the SAT core is falsified;
* **propagation reasons** (:func:`check_propagation_reason`): a reason
  clause contains its propagated literal and no other non-false literal;
* **lemmas and answers** (:mod:`repro.oracle.certify`): the SAT core logs
  every clause its search relies on, and an independent proof checker
  accepts learned clauses by reverse unit propagation and theory lemmas
  (conflict clauses, unit-edge and from-read reasons) as real cycles,
  certifies every UNSAT by RUP of its negated unsat core, and checks
  every SAT model against the input clauses and the ordering axioms.

The two full checks run once per solve, when the SAT core asks the
theory for its proof data at the end of an audited solve.

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
from typing import Callable, Optional, Sequence

__all__ = [
    "AuditError",
    "audit_enabled",
    "parse_audit",
    "check_icd_labels",
    "check_icd_reorder",
    "check_trail_sync",
    "check_theory_sync",
    "check_theory_push",
    "check_theory_pop",
    "check_conflict_clause",
    "check_propagation_reason",
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
    if any(graph.node_at[label] != node for node, label in enumerate(ord_)):
        raise AuditError(
            f"node_at {graph.node_at} is not the inverse of the labels {ord_}"
        )
    for edges in graph.out:
        for e in edges:
            if ord_[e.src] >= ord_[e.dst]:
                raise AuditError(
                    f"active edge {e!r} violates the pseudo-topological "
                    f"order: ord[{e.src}]={ord_[e.src]} >= "
                    f"ord[{e.dst}]={ord_[e.dst]}"
                )


def check_icd_reorder(graph, old, edge, window) -> None:
    """The delta of :func:`check_icd_labels` for one ICD reorder, before
    ``edge`` is activated: ``old`` is ``ord`` before the reorder and
    ``window`` its nodes B ∪ F.  Only window labels moved, among
    themselves, ``node_at`` follows them, and the active edges incident
    to the window and ``edge`` respect the new order: with the invariant
    holding before, it holds after ``edge`` is inserted."""
    ord_ = graph.ord
    nodes = set(window)
    kept = list(ord_)
    for x in nodes:
        kept[x] = old[x]
    if kept != old:
        moved = [x for x in range(graph.n) if kept[x] != old[x]]
        raise AuditError(
            f"ICD reorder inserting {edge!r} moved labels outside its "
            f"window {sorted(nodes)}: nodes {moved}"
        )
    if sorted(ord_[x] for x in nodes) != sorted(old[x] for x in nodes):
        raise AuditError(
            f"ICD reorder inserting {edge!r} did not permute the labels of "
            f"its window {sorted(nodes)}"
        )
    stale = [x for x in nodes if graph.node_at[ord_[x]] != x]
    if stale:
        raise AuditError(
            f"ICD reorder inserting {edge!r} left node_at stale for nodes {stale}"
        )
    for e in [edge] + [e for x in nodes for e in graph.out[x] + graph.inc[x]]:
        if ord_[e.src] >= ord_[e.dst]:
            raise AuditError(
                f"ICD reorder inserting {edge!r} leaves {e!r} against the "
                f"pseudo-topological order: ord[{e.src}]={ord_[e.src]} >= "
                f"ord[{e.dst}]={ord_[e.dst]}"
            )


# ----------------------------------------------------------------------
# Theory trail / graph / index synchronization
# ----------------------------------------------------------------------


def check_trail_sync(theory) -> None:
    """The trail's levels are monotone and its edges are exactly the
    active non-program-order edges of the out/in adjacency (``theory``
    keeps a ``graph`` and a ``_trail`` of ``(edge, level)``: an
    :class:`repro.ordering.solver.OrderingTheory` or the IDL baseline's
    :class:`repro.baselines.idl.IdlTheory`)."""
    graph = theory.graph
    trail = theory._trail
    levels = [lvl for _, lvl in trail]
    if levels != sorted(levels):
        raise AuditError(f"theory trail levels not monotone: {levels}")
    active = [e for edges in graph.out for e in edges]
    inc = [e for edges in graph.inc for e in edges]
    on_trail = {id(e) for e, _ in trail}
    if (
        not len(active) == len({id(e) for e in active}) == graph.n_active_edges
        or sorted(map(id, inc)) != sorted(map(id, active))
        or len(on_trail) != len(trail)
        or on_trail != {id(e) for e in active if not e.is_po}
        or not all(e.active for e in active)
    ):
        raise AuditError(
            f"theory trail ({len(trail)} edges), active out/in adjacency "
            f"({len(active)}/{len(inc)} edges) and active edge count "
            f"{graph.n_active_edges} disagree"
        )


def check_theory_sync(theory) -> None:
    """Trail, active adjacency, RF/WS partner indices and the
    inactive-edge index all agree, and the unit-edge candidate index
    agrees with the labels (``theory`` is an
    :class:`repro.ordering.solver.OrderingTheory`)."""
    check_trail_sync(theory)
    graph = theory.graph
    trail = theory._trail
    # RF/WS partner indices mirror the trail in activation order.
    for kind in ("rf", "ws"):
        want = [[] for _ in range(graph.n)]
        for e, _ in trail:
            if e.kind == kind:
                want[e.src].append(e)
        got = getattr(theory, f"_out_{kind}")
        for src in range(graph.n):
            if got[src] != want[src]:
                raise AuditError(
                    f"_out_{kind}[{src}] desynchronized from the trail: "
                    f"index={got[src]!r}, trail={want[src]!r}"
                )
    # Variable-controlled edges sit in exactly one of active / inactive.
    for e in theory._edge_of_var.values():
        inactive = e in graph.inactive_out[e.src].get(e.dst, ())
        if e.active == inactive or (e.active and e not in graph.out[e.src]):
            raise AuditError(
                f"registered edge {e!r} is not in exactly one of the "
                f"active adjacency and the inactive index"
            )
    _check_unit_candidates(theory)


def check_theory_push(theory, mark: int, n_active: int, level: int) -> None:
    """The delta of :func:`check_theory_sync` for one ``assign`` at
    ``level``: the edges it pushed (``theory._trail[mark:]``; ``n_active``
    edges were active before) sit at ``level`` on the trail, in the
    active adjacency, outside the inactive index and at the tails of
    their partner indices."""
    graph = theory.graph
    trail = theory._trail
    pushed = trail[mark:]
    prev = trail[mark - 1][1] if mark else 0
    if prev > level or any(lvl != level for _, lvl in pushed):
        raise AuditError(
            f"assign at level {level} pushed {pushed!r} after a level-{prev} "
            f"trail entry"
        )
    if graph.n_active_edges != n_active + len(pushed):
        raise AuditError(
            f"assign pushed {len(pushed)} edges but the active edge count "
            f"went from {n_active} to {graph.n_active_edges}"
        )
    tails = {}
    for e, _ in pushed:
        if not e.active or e not in graph.out[e.src] or e not in graph.inc[e.dst]:
            raise AuditError(f"pushed edge missing from the adjacency: {e!r}")
        if e in graph.inactive_out[e.src].get(e.dst, ()):
            raise AuditError(f"pushed edge still in the inactive index: {e!r}")
        if e.kind in ("rf", "ws"):
            tails.setdefault((e.kind, e.src), []).append(e)
    for (kind, src), want in tails.items():
        got = getattr(theory, f"_out_{kind}")[src][-len(want):]
        if got != want:
            raise AuditError(
                f"_out_{kind}[{src}] ends with {got!r}, not with the pushed "
                f"edges {want!r}"
            )


def check_theory_pop(theory, popped, n_active: int, level: int) -> None:
    """The delta of :func:`check_theory_sync` for one ``backjump`` to
    ``level``: the trail holds nothing above ``level``, and every edge it
    popped (``n_active`` edges were active before) left the active
    adjacency and its partner index for the inactive index."""
    graph = theory.graph
    trail = theory._trail
    if trail and trail[-1][1] > level:
        raise AuditError(
            f"backjump to level {level} left {trail[-1]!r} on the trail"
        )
    if graph.n_active_edges != n_active - len(popped):
        raise AuditError(
            f"backjump popped {len(popped)} edges but the active edge count "
            f"went from {n_active} to {graph.n_active_edges}"
        )
    for e, _ in popped:
        index = getattr(theory, f"_out_{e.kind}", None)
        if (
            e.active
            or e in graph.out[e.src]
            or e in graph.inc[e.dst]
            or (index is not None and e in index[e.src])
        ):
            raise AuditError(
                f"backjump to level {level} left the popped edge {e!r} active"
            )
        if e.var is not None and e not in graph.inactive_out[e.src].get(e.dst, ()):
            raise AuditError(
                f"popped edge missing from the inactive index: {e!r}"
            )


def _check_unit_candidates(theory) -> None:
    """A non-stale unit-edge candidate index agrees with the labels (ICD):
    ``_back`` is exactly the registered edges pointing backward, sorted by
    ``ord[dst]``, and ``_cands`` holds every live one, keyed by its
    current ``ord[dst]``."""
    if not theory._ordered or theory._back_stale or theory._relabelled:
        return
    ord_ = theory.graph.ord
    want = [e for e in theory._edge_of_var.values() if ord_[e.src] > ord_[e.dst]]
    keys = [ord_[e.dst] for e in theory._back]
    if (
        sorted(map(id, theory._back)) != sorted(map(id, want))
        or keys != sorted(keys)
        or keys != theory._back_keys
    ):
        raise AuditError(
            f"unit-edge candidate index lists vars "
            f"{[e.var for e in theory._back]} at keys {keys}, but the edges "
            f"pointing backward in ord are vars {sorted(e.var for e in want)}"
        )
    if theory._cand_stale:
        return
    listed = {id(e) for e in theory._cands}
    missing = [e.var for e in want if theory._assign[e.var] != -1 and id(e) not in listed]
    if missing or theory._cand_keys != [ord_[e.dst] for e in theory._cands]:
        raise AuditError(
            f"unit-edge candidates are stale: keys {theory._cand_keys}, "
            f"live backward edges missing: vars {missing}"
        )


# ----------------------------------------------------------------------
# SAT-side checks (called by the solver with its own value function)
# ----------------------------------------------------------------------


def _non_false(value_of, lits) -> Optional[str]:
    """``"<lit> (<state>)"`` for the first literal of ``lits`` that is not
    currently false, else None."""
    for lit in lits:
        v = value_of(lit)
        if v is not False:
            return f"{lit} ({'unassigned' if v is None else 'true'})"
    return None


def check_conflict_clause(
    value_of: Callable[[int], Optional[bool]], clause: Sequence[int]
) -> None:
    """Every literal of a theory conflict clause must be currently false."""
    bad = _non_false(value_of, clause)
    if bad:
        raise AuditError(
            f"theory conflict clause {list(clause)} is not falsified: "
            f"literal {bad}"
        )


def check_propagation_reason(
    value_of: Callable[[int], Optional[bool]],
    lit: int,
    reason: Sequence[int],
) -> None:
    """A propagation reason must contain ``lit`` and no other non-false
    literal."""
    if lit not in reason:
        raise AuditError(
            f"propagation reason {list(reason)} does not contain its "
            f"propagated literal {lit}"
        )
    bad = _non_false(value_of, [other for other in reason if other != lit])
    if bad:
        raise AuditError(
            f"propagation reason {list(reason)} for literal {lit} has "
            f"non-false literal {bad}"
        )
