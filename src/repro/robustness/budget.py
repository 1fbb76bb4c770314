"""Unified resource budgets for a verification run.

A :class:`Budget` is created once per :func:`repro.verify.verify` call and
is the only place a configured limit is enforced: no engine reads the
config's limits or holds a deadline or cap of its own.  Every layer of the
pipeline checks it cooperatively -- the frontend (parse/unroll/SSA), the
encoder, the T_ord theory solver (ICD and Tarjan detectors), the SAT core,
and the baseline/SMC engines -- and every engine charges its unit of work
to it.  A budget bundles four independent limits:

* **wall-clock deadline** (``time_limit_s``) -- measured from budget
  creation, so fallback attempts share one deadline instead of each
  getting a fresh allowance;
* **work cap** (``max_conflicts``) -- cumulative units of search work:
  CDCL conflicts charged by the SAT core, explored states by the
  explicit-state engine, transitions by the sequentialized and stateless
  engines;
* **peak-memory cap** (``memory_limit_mb``) -- resident-set growth since
  budget creation, sampled from ``/proc/self/statm`` where available and
  falling back to ``resource.getrusage`` high-water marks;
* **event-count cap** (``max_events``) -- size of the event graph the
  frontend produced, checked before the encoder commits to a quadratic
  (or, for the closure baseline, cubic) encoding.

Exceeding any limit raises :class:`BudgetExceeded`, which carries the
pipeline phase, the limit that tripped, and any partial statistics the
raising layer attached; :func:`repro.verify.verify` converts it into a
structured ``UNKNOWN`` result instead of letting it escape.

The budget of the run in progress is exposed through a thread-local
(:func:`set_active` / :func:`get_active`), so deep layers (the SAT core,
the cycle detectors) can consult it without threading a parameter through
every call signature.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

__all__ = [
    "Budget",
    "BudgetExceeded",
    "get_active",
    "set_active",
    "clear_active",
    "active_budget",
]


class BudgetExceeded(Exception):
    """A cooperative budget check failed.

    Attributes:
        limit: which limit tripped: ``"time"``, ``"conflicts"``,
            ``"memory"`` or ``"events"``.
        phase: pipeline phase at the failing checkpoint (``"frontend"``,
            ``"analysis"``, ``"encode"``, ``"theory"``, ``"solve"``,
            ``"engine"``, ...).
        used: the measured value at the check.
        cap: the configured cap.
        partial_stats: counters gathered before exhaustion (layers that
            track statistics attach them while the exception unwinds).
    """

    def __init__(
        self,
        limit: str,
        phase: str,
        used: float,
        cap: float,
        partial_stats: Optional[Dict] = None,
    ) -> None:
        self.limit = limit
        self.phase = phase
        self.used = used
        self.cap = cap
        self.partial_stats: Dict = dict(partial_stats or {})
        super().__init__(
            f"{limit} budget exhausted in phase {phase!r} "
            f"(used {used:g}, cap {cap:g})"
        )


def _rss_mb() -> Optional[float]:
    """Current resident set size in MB (None when unavailable)."""
    try:
        with open("/proc/self/statm", "rb") as f:
            pages = int(f.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") / 1e6)
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KB, macOS reports bytes.
        import sys

        return peak / 1e6 if sys.platform == "darwin" else peak / 1e3
    except (ImportError, ValueError):
        return None


class Budget:
    """Mutable budget state shared by every layer of one verification run."""

    __slots__ = (
        "time_limit_s",
        "max_conflicts",
        "memory_limit_mb",
        "max_events",
        "started_at",
        "deadline",
        "conflicts",
        "events",
        "_rss0_mb",
    )

    def __init__(
        self,
        time_limit_s: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        memory_limit_mb: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.max_conflicts = max_conflicts
        self.memory_limit_mb = memory_limit_mb
        self.max_events = max_events
        self.started_at = time.monotonic()
        #: Absolute ``time.monotonic()`` deadline (None = unbounded).
        self.deadline = (
            None if time_limit_s is None else self.started_at + time_limit_s
        )
        self.conflicts = 0
        self.events = 0
        self._rss0_mb = _rss_mb() if memory_limit_mb is not None else None

    @classmethod
    def from_config(cls, config) -> "Budget":
        """Build the run budget from a :class:`VerifierConfig`."""
        return cls(
            time_limit_s=config.time_limit_s,
            max_conflicts=config.max_conflicts,
            memory_limit_mb=getattr(config, "memory_limit_mb", None),
            max_events=getattr(config, "max_events", None),
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_at

    def memory_used_mb(self) -> Optional[float]:
        """RSS growth (MB) since the budget was created."""
        if self._rss0_mb is None:
            return None
        now = _rss_mb()
        if now is None:
            return None
        return max(0.0, now - self._rss0_mb)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check_deadline(self, phase: str) -> None:
        """Raise :class:`BudgetExceeded` when the deadline has passed."""
        if self.deadline is not None:
            now = time.monotonic()
            if now > self.deadline:
                raise BudgetExceeded(
                    "time", phase, now - self.started_at, self.time_limit_s
                )

    def check(self, phase: str) -> None:
        """Raise :class:`BudgetExceeded` when the deadline or the memory
        cap is exceeded.  Cheap enough for throttled hot-loop use."""
        self.check_deadline(phase)
        if self.memory_limit_mb is not None:
            used = self.memory_used_mb()
            if used is not None and used > self.memory_limit_mb:
                raise BudgetExceeded("memory", phase, used, self.memory_limit_mb)

    def charge_conflicts(self, n: int, phase: str) -> None:
        """Accumulate ``n`` units of work (conflicts, states or
        transitions); raise when over the cumulative cap or past the
        deadline.  Engines call it once per unit, so a cap of N trips on
        unit N+1 and a deadline is noticed after at most one unit."""
        self.conflicts += n
        if self.max_conflicts is not None and self.conflicts > self.max_conflicts:
            raise BudgetExceeded(
                "conflicts", phase, self.conflicts, self.max_conflicts
            )
        if self.deadline is not None:
            self.check_deadline(phase)

    def charge_events(self, n: int, phase: str) -> None:
        """Accumulate ``n`` event-graph nodes; raise when over the cap."""
        self.events += n
        if self.max_events is not None and self.events > self.max_events:
            raise BudgetExceeded("events", phase, self.events, self.max_events)

    def snapshot(self) -> Dict[str, float]:
        """Budget counters for inclusion in result ``stats``."""
        out: Dict[str, float] = {
            "budget_elapsed_s": round(self.elapsed_s(), 6),
            "budget_conflicts": self.conflicts,
            "budget_events": self.events,
        }
        mem = self.memory_used_mb()
        if mem is not None:
            out["budget_memory_mb"] = round(mem, 3)
        return out


# ----------------------------------------------------------------------
# Thread-local active budget
# ----------------------------------------------------------------------

_tls = threading.local()


def set_active(budget: Optional[Budget]) -> None:
    _tls.budget = budget


def get_active() -> Optional[Budget]:
    return getattr(_tls, "budget", None)


def clear_active() -> None:
    _tls.budget = None


class active_budget:
    """Context manager installing ``budget`` as the thread's active budget."""

    def __init__(self, budget: Optional[Budget]) -> None:
        self._budget = budget
        self._prev: Optional[Budget] = None

    def __enter__(self) -> Optional[Budget]:
        self._prev = get_active()
        set_active(self._budget)
        return self._budget

    def __exit__(self, *exc) -> None:
        set_active(self._prev)

