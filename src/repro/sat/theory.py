"""DPLL(T) theory interface.

A theory solver participates in the *online* scheme of DPLL(T) (Figure 1 of
the paper): every time the SAT core reaches a Boolean propagation fixpoint it
feeds the newly assigned theory-relevant literals to the theory solver, which
may

* report the partial assignment theory-inconsistent by returning one or more
  *conflict clauses* (clauses falsified under the current assignment), or
* *propagate* values for unassigned literals, each justified by a *reason
  clause* (a clause in which the propagated literal is the only non-false
  literal).  A reason is either the clause's literal list or an
  :class:`Explanation` that builds the list only when it is read: most
  propagation reasons are never looked at by conflict analysis, so a
  theory whose reasons are costly to assemble hands out explanations
  (Nieuwenhuis, Oliveras and Tinelli, JACM 2006).

On backjumps the SAT core notifies the theory so it can restore its internal
state (e.g. deactivate event-graph edges).
"""

from __future__ import annotations

from typing import List, Tuple, Union


class Explanation:
    """A propagation reason clause built on demand.

    The SAT core calls :meth:`lits` at most once per enqueued
    propagation -- when conflict analysis, clause minimization or
    failed-assumption analysis first reads the reason, or at offer time
    when the propagated literal is already false or the solver is
    audited -- and keeps the list it returns.  The list must be the
    clause the theory would have given eagerly: the propagated literal
    plus literals that were all false when it was offered.
    """

    __slots__ = ()

    def lits(self) -> List[int]:
        raise NotImplementedError


#: A propagation reason: the clause's literals, or an explanation of them.
Reason = Union[List[int], Explanation]


def reason_lits(reason: Reason) -> List[int]:
    """The literals of a propagation reason (materialised if lazy)."""
    return reason if type(reason) is list else reason.lits()


class TheoryResult:
    """Outcome of feeding one assigned literal to a theory solver.

    Attributes:
        conflicts: conflict clauses, each a list of DIMACS literals that is
            currently falsified.  Non-empty means the current assignment is
            theory-inconsistent.
        propagations: ``(lit, reason)`` pairs; ``lit`` is entailed by the
            theory under the current assignment and ``reason`` (a literal
            list or an :class:`Explanation`) is a clause containing ``lit``
            whose other literals are all currently false.
    """

    __slots__ = ("conflicts", "propagations")

    def __init__(self) -> None:
        self.conflicts: List[List[int]] = []
        self.propagations: List[Tuple[int, Reason]] = []

    @property
    def is_conflict(self) -> bool:
        return bool(self.conflicts)

    def add_conflict(self, clause: List[int]) -> None:
        self.conflicts.append(clause)

    def add_propagation(self, lit: int, reason: Reason) -> None:
        self.propagations.append((lit, reason))


class Theory:
    """Base class for theory solvers plugged into :class:`repro.sat.Solver`.

    The default implementation is the trivial (empty) theory: nothing is
    relevant, every assignment is consistent.
    """

    def attach(self, assign: List[int]) -> None:
        """Called once by the owning solver with its live assignment array.

        ``assign[var]`` is 1 (true), -1 (false) or 0 (unassigned); the
        solver mutates the list in place and never rebinds it, so a theory
        may keep the reference and read the current assignment from it.
        """

    def relevant(self, var: int) -> bool:
        """Return True if assignments to ``var`` must be reported."""
        return False

    def assign(self, lit: int, level: int) -> TheoryResult:
        """Process the assignment of ``lit`` at decision ``level``.

        Called once per newly assigned relevant literal, in trail order.
        Must be *incremental*: the theory accumulates state across calls and
        unwinds it in :meth:`backjump`.
        """
        return TheoryResult()

    def backjump(self, level: int) -> None:
        """Undo all effects of assignments made at levels > ``level``."""

    def reset(self) -> None:
        """Prepare for a fresh :meth:`Solver.solve` call on the same
        (possibly extended) problem.

        Called by the solver at the start of every re-solve.  Level-0 state
        is *kept*: anything activated at level 0 follows from unit clauses
        and remains valid across queries.  Theories whose per-query state
        is exactly the assignment trail (like the ordering-consistency
        solver) get the right behaviour from this default.
        """
        self.backjump(0)

    def proof_data(self):
        """Plain data for the audit's proof checker
        (:mod:`repro.oracle.certify`): ``({var: (kind, src, dst)}, [(a, b),
        ...])``, the registered ordering variables with their edges and
        the program-order edges, optionally followed by the symmetry
        edges with their swaps.  None for a theory with no ordering
        lemmas, whose solver's proof is then pure RUP."""
        return None

    def final_check(self) -> TheoryResult:
        """Called when the Boolean assignment is total and consistent so far.

        Theories that are exhaustive in :meth:`assign` (like the ordering
        consistency solver) need not override this.
        """
        return TheoryResult()
