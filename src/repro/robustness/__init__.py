"""Resource governance: budgets, crash containment, fallbacks, faults.

The robustness layer makes budget exhaustion, hangs, and engine crashes
*normal outcomes* of :func:`repro.verify.verify` instead of exceptions:

* :mod:`repro.robustness.budget` -- a :class:`Budget` (wall-clock
  deadline, work cap, peak-memory cap, event-count cap) created once per
  run, cooperatively checked at checkpoints in every layer, and the only
  place those limits are enforced;
* :mod:`repro.robustness.guard` -- crash containment turning engine
  exceptions into ``ERROR``-status results with captured diagnostics;
* :mod:`repro.robustness.fallback` -- configurable fallback chains
  (``VerifierConfig.fallbacks``) retrying cheaper engines on crash or
  budget exhaustion;
* :mod:`repro.robustness.faults` -- a deterministic fault-injection
  harness (``REPRO_FAULTS``) the robustness test suite uses to prove
  every degradation path.

:func:`checkpoint` is the single hook the pipeline layers call: it fires
injected faults, then checks the thread's active budget.  With no faults
installed and no active budget it costs two lookups, so throttled
hot-loop use is fine.
"""

from __future__ import annotations

from repro.robustness.budget import (
    Budget,
    BudgetExceeded,
    active_budget,
    get_active,
)
from repro.robustness.faults import FaultInjected, fault_point

__all__ = [
    "Budget",
    "BudgetExceeded",
    "FaultInjected",
    "active_budget",
    "checkpoint",
    "fault_point",
    "get_active",
]


def checkpoint(phase: str, events: int = 0) -> None:
    """Cooperative robustness checkpoint for pipeline phase ``phase``.

    Fires any injected faults registered at ``phase``, then checks the
    active budget's deadline and memory cap, charging ``events`` against
    the event cap when given.  Raises :class:`BudgetExceeded` (or a
    fault's effect) on violation; a no-op when no faults and no budget
    are active.  Units of search work are charged by the engines
    themselves (:meth:`Budget.charge_conflicts`), one per unit.
    """
    fault_point(phase)
    budget = get_active()
    if budget is None:
        return
    budget.check(phase)
    if events:
        budget.charge_events(events, phase)
