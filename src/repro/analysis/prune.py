"""Encoding pruner: analysis facts -> RF/WS variables that can be skipped.

The pruner removes only ordering variables that are **false in every
model** of the unpruned formula, so the pruned and unpruned encodings
have exactly the same set of models projected onto the surviving
variables -- verdict equivalence holds by construction.  Four rules:

**DEAD-GUARD** (level >= 1).  An event whose guard literal is false at
level 0 once the program constraints, the error clause and the guards
are blasted (typically the constant-false literal of a loop iteration
past a constant trip count) is disabled in every model.  Every RF/WS
variable touching it implies that guard, so it is false in every model
too, and a Zord⁻ FR variable over such a pair is never forced true.  The
encoder drops dead events from its per-address read and write lists;
every clause it would have built over their variables is satisfied by
those variables being false.

**PO-WS** (level >= 1).  For a program-order-ordered write pair
``w1 ->po w2`` the reverse variable ``ws(w2, w1)`` is already forced
false by the theory's initial unit clauses (a ws edge whose reverse is
PO-enforced would close a cycle).  We skip creating it; WS-Some shrinks
from ``g1 ∧ g2 -> v12 ∨ v21`` to ``g1 ∧ g2 -> v12``, which is the
original clause minus a false disjunct.

**GUARD-SHADOW** (level >= 1).  ``rf(w, r)`` is forced false whenever
some other write ``w2`` to the same address sits PO-between ``w`` and
``r`` and is enabled whenever the pair is (``guard(w) -> guard(w2)`` or
``guard(r) -> guard(w2)``, checked syntactically): in any model with
``rf(w, r)`` true, both guards hold, hence ``g_{w2}`` holds;
``ws(w2, w)`` is PO-false so WS-Some forces ``ws(w, w2)``; the static
from-read lemma ``rf(w, r) ∧ ws(w, w2) -> false`` (w2 is PO-before r)
closes the contradiction.  This generalizes the encoder's baseline
"definitely shadowed" skip (which requires ``guard(w2)`` to be the
constant TRUE) to conditional code.

**LOCK-VAL** (level >= 2).  A lock-acquire read carries the constraint
``guard -> value == 0`` while a lock-acquire write stores 1; an
``rf`` edge between them would force both guards plus value equality,
i.e. ``0 == 1``.  Such variables are pure overhead and are skipped.
Release writes (value 0) and the init write are *not* pruned as sources.

**SYMMETRY** (level >= 2, SC only).  Unlike the four rules above it
does not preserve the set of models, only satisfiability: threads whose
event lists agree position by position (kind, address up to a renaming
of addresses by an involution, whether the guard is constant true) are
listed as candidate groups, and the encoder
orders the first events of interchangeable threads once it has checked
that swapping two of them maps the whole encoding onto itself (see
:mod:`repro.encoding.symmetry`).  Any execution can be renamed into one
that respects the added edges, so a counterexample exists with them iff
one exists without them.

Levels: 0 = off, 1 = dead-guard/PO/guard-shadow rules, 2 = + lock-value
rule and symmetry candidates (default).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.analysis.lockset import compute_locksets, guard_implies
from repro.analysis.mhp import program_reachability
from repro.encoding import formula as F
from repro.frontend.program import Event, EventKind, SymbolicProgram, ThreadEvents
from repro.robustness import checkpoint as _robustness_checkpoint

__all__ = [
    "PrunePlan",
    "build_prune_plan",
    "symmetric_thread_groups",
    "address_swap",
    "MAX_PRUNE_LEVEL",
]

MAX_PRUNE_LEVEL = 2


@dataclass
class PrunePlan:
    """Precomputed pruning facts consumed by the encoder.

    The encoder consults :meth:`dead_events` once its guard literals
    are blasted, :meth:`po_ordered` when creating WS variable pairs and
    :meth:`rf_dead` when creating RF variables; a True answer means
    "this variable is false in every model -- skip it".
    """

    level: int
    po_reach: List[int] = field(default_factory=list)
    acquire_reads: Set[int] = field(default_factory=set)
    acquire_writes: Set[int] = field(default_factory=set)
    #: SYMMETRY candidates: groups of at least two thread names, in
    #: start order, whose event lists agree position by position.
    symmetric_threads: List[List[str]] = field(default_factory=list)
    build_time_s: float = 0.0

    def dead_events(
        self,
        guard_lits: Dict[int, int],
        value: Callable[[int], Optional[bool]],
    ) -> Set[int]:
        """Event ids whose guard literal ``value`` (the solver's level-0
        assignment) reports false: DEAD-GUARD."""
        if self.level < 1:
            return set()
        return {eid for eid, g in guard_lits.items() if value(g) is False}

    def po_ordered(self, a: int, b: int) -> bool:
        """True when event ``a`` is PO-before event ``b``.  Always False
        at level 0, which computes no reachability (and prunes nothing)."""
        return self.level >= 1 and bool((self.po_reach[a] >> b) & 1)

    def rf_dead(self, w: Event, r: Event, writes: Sequence[Event]) -> bool:
        """True when ``rf(w, r)`` is false in every model.

        ``writes`` must be all writes to the pair's address (the
        encoder's per-address write list).
        """
        if (
            self.level >= 2
            and r.eid in self.acquire_reads
            and w.eid in self.acquire_writes
        ):
            return True  # LOCK-VAL: acquire read (==0) vs acquire write (=1)
        for w2 in writes:
            if w2.eid == w.eid or w2.eid == r.eid:
                continue
            if not self.po_ordered(w.eid, w2.eid):
                continue
            if not self.po_ordered(w2.eid, r.eid):
                continue
            if guard_implies(w.guard, w2.guard) or guard_implies(
                r.guard, w2.guard
            ):
                return True  # GUARD-SHADOW
        return False


def build_prune_plan(sym: SymbolicProgram, level: int) -> PrunePlan:
    """Run the analyses backing a :class:`PrunePlan` at ``level``."""
    t0 = time.perf_counter()
    _robustness_checkpoint("analysis", events=len(sym.events))
    plan = PrunePlan(level=min(level, MAX_PRUNE_LEVEL))
    if plan.level <= 0:
        return plan
    plan.po_reach = program_reachability(sym)
    if plan.level >= 2:
        locks = compute_locksets(sym)
        plan.acquire_reads = locks.acquire_reads
        plan.acquire_writes = locks.acquire_writes
        plan.symmetric_threads = symmetric_thread_groups(sym)
    plan.build_time_s = time.perf_counter() - t0
    return plan


def symmetric_thread_groups(sym: SymbolicProgram) -> List[List[str]]:
    """Groups of started threads whose events agree position by position
    in kind, address up to a renaming and whether the guard is constant
    true, and whose first memory event is unconditional.  Adjacent
    members rename addresses by an involution (:func:`address_swap`).  A
    cheap filter: the encoder checks the swap of two group members
    against the whole encoding before it relies on it."""
    classes: Dict[tuple, List[ThreadEvents]] = {}
    for thread in sym.threads[1:]:
        first = next(
            (e for e in thread.events if e.kind != EventKind.ANCHOR), None
        )
        if first is None or first.guard is not F.TRUE:
            continue
        index: Dict[Optional[str], int] = {None: -1}
        shape = tuple(
            (e.kind, index.setdefault(e.addr, len(index)), e.guard is F.TRUE)
            for e in thread.events
        )
        classes.setdefault(shape, []).append(thread)
    groups: List[List[str]] = []
    for members in classes.values():
        run = [members[0]]
        for thread in members[1:]:
            if address_swap(run[-1].events, thread.events) is None:
                if len(run) > 1:
                    groups.append([t.name for t in run])
                run = []
            run.append(thread)
        if len(run) > 1:
            groups.append([t.name for t in run])
    return groups


def address_swap(
    te: Sequence[Event], ue: Sequence[Event]
) -> Optional[Dict[str, str]]:
    """The involution of addresses that maps the events of one thread
    onto the other's, position by position, as ``{address: image}``
    over the moved addresses; None when no involution does."""
    image: Dict[Optional[str], Optional[str]] = {}
    for a, b in zip(te, ue):
        x, y = a.addr, b.addr
        if image.setdefault(x, y) != y or image.setdefault(y, x) != x:
            return None
    return {x: y for x, y in image.items() if x != y}
