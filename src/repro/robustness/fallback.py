"""Fallback chains: degrade to cheaper engines instead of giving up.

``VerifierConfig.fallbacks=("zord-tarjan", "dartagnan")`` instructs
:func:`repro.verify.verify` to retry with the named presets, in order,
whenever an attempt crashes (``ERROR``) or exhausts its budget
(``UNKNOWN``) -- e.g. an ``smt/ord`` crash retried with the ``tarjan``
detector, then degraded to the ``closure`` baseline.  All attempts share
one :class:`~repro.robustness.budget.Budget` (one wall-clock deadline for
the whole chain), and every attempt is recorded on the final result's
``attempts`` list and in telemetry.

Fallback configs are instantiated from the preset table with the primary
config's generic bounds (unwind, width, rounds, memory model, budget
caps) but none of its engine-specific knobs; a preset that cannot accept
those bounds (e.g. an explicit-state engine under a weak memory model) is
recorded as a skipped attempt rather than aborting the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Attempt", "resolve_chain"]


@dataclass
class Attempt:
    """One link of a fallback chain, as recorded on the final result."""

    config_name: str
    engine: str
    #: ``"conclusive"`` / ``"unknown"`` / ``"error"`` / ``"skipped"``.
    status: str
    verdict: Optional[str] = None
    wall_time_s: float = 0.0
    #: Diagnostic or budget-exhaustion summary for non-conclusive attempts.
    reason: Optional[str] = None

    def as_dict(self) -> Dict:
        return {
            "config_name": self.config_name,
            "engine": self.engine,
            "status": self.status,
            "verdict": self.verdict,
            "wall_time_s": round(self.wall_time_s, 6),
            "reason": self.reason,
        }


def resolve_chain(config) -> List[Tuple[Optional[object], Optional[Attempt]]]:
    """Expand ``config`` into its attempt chain.

    Returns a list of ``(config, None)`` entries for runnable attempts and
    ``(None, Attempt)`` entries for fallbacks whose construction failed
    (recorded as skipped).  The primary config is always first.
    """
    chain: List[Tuple[Optional[object], Optional[Attempt]]] = [(config, None)]
    fallbacks = getattr(config, "fallbacks", ()) or ()
    if not fallbacks:
        return chain
    from repro.verify.config import PRESETS

    bounds = dict(
        unwind=config.unwind,
        width=config.width,
        rounds=config.rounds,
        time_limit_s=config.time_limit_s,
        max_conflicts=config.max_conflicts,
        memory_limit_mb=config.memory_limit_mb,
        max_events=config.max_events,
    )
    # Fallback names are checked against PRESETS when the config is built.
    for name in fallbacks:
        try:
            fb = PRESETS[name](memory_model=config.memory_model, **bounds)
        except ValueError as exc:
            # E.g. a weak-memory primary falling back to an SC-only engine:
            # changing the memory model would change the verified property,
            # so record the preset as skipped instead of silently degrading.
            chain.append(
                (None, Attempt(name, "?", "skipped", reason=str(exc)))
            )
            continue
        chain.append((fb, None))
    return chain
