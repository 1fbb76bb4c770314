"""The differential-testing engine matrix.

A matrix is a list of :class:`EngineSpec` -- named engine configurations
whose verdicts on the same program must agree wherever both are sound.
Every spec pins ``prune_level`` and ``unwind_schedule`` explicitly, so a
fuzzing run is reproducible regardless of the ``REPRO_PRUNE`` /
``REPRO_UNWIND_SCHEDULE`` environment.

Soundness flags encode what a disagreement means:

* ``sound_safe`` -- the engine's SAFE verdict is trustworthy within the
  common unwinding bound.  ``lazy-cseq`` is the one exception: like the
  original tool its SAFE only covers the round-robin round bound, so its
  SAFE never indicts anyone (but its UNSAFE does).
* ``sound_unsafe`` -- the engine's UNSAFE verdict is trustworthy (all of
  them are; every UNSAFE verdict that carries a
  :class:`repro.verify.witness.Trace` is additionally replayed through
  the concrete interpreter by the harness).

Three matrices: ``quick`` (CI smoke), ``smt`` (every DPLL(T) ablation x
prune level x schedule), ``full`` (smt + every baseline engine + serial
and parallel portfolios).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.verify.config import PRESETS, VerifierConfig

__all__ = ["EngineSpec", "MATRICES", "build_matrix"]


@dataclass(frozen=True)
class EngineSpec:
    """One column of the differential matrix."""

    key: str
    preset: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    sound_safe: bool = True
    sound_unsafe: bool = True
    #: Non-empty: race these presets via ``verify_portfolio`` instead of
    #: a single ``verify`` call.
    portfolio: Tuple[str, ...] = ()
    jobs: int = 1

    def make_config(
        self,
        unwind: int = 4,
        width: int = 8,
        time_limit_s: Optional[float] = None,
        audit: bool = False,
    ) -> VerifierConfig:
        kw: Dict[str, object] = {
            "unwind": unwind,
            "width": width,
            "prune_level": 2,
            "unwind_schedule": (),
            "time_limit_s": time_limit_s,
            "audit": audit,
        }
        kw.update(dict(self.overrides))
        return PRESETS[self.preset](**kw)


def _spec(key: str, preset: str, **kw) -> EngineSpec:
    overrides = tuple(sorted(kw.pop("overrides", {}).items()))
    return EngineSpec(key=key, preset=preset, overrides=overrides, **kw)


_QUICK = (
    _spec("zord", "zord"),
    _spec("zord-tarjan", "zord-tarjan"),
    _spec("cbmc", "cbmc"),
)

_SMT = _QUICK + (
    _spec("zord-", "zord-"),
    _spec("zord'", "zord'"),
    _spec("zord/prune0", "zord", overrides={"prune_level": 0}),
    _spec("zord/prune1", "zord", overrides={"prune_level": 1}),
    _spec("zord/sched", "zord", overrides={"unwind_schedule": (1, 2, 4, 8, 16)}),
)

_FULL = _SMT + (
    _spec("dartagnan", "dartagnan"),
    _spec("cpa-seq", "cpa-seq"),
    # Lazy-CSeq's SAFE only covers its round bound (see module docstring).
    _spec("lazy-cseq", "lazy-cseq", sound_safe=False),
    _spec("nidhugg-rfsc", "nidhugg-rfsc"),
    _spec("genmc", "genmc"),
    _spec("portfolio/serial", "zord", portfolio=("zord", "cbmc"), jobs=1),
    _spec(
        "portfolio/parallel",
        "zord",
        portfolio=("zord", "zord-tarjan"),
        jobs=2,
    ),
)

MATRICES: Dict[str, Tuple[EngineSpec, ...]] = {
    "quick": _QUICK,
    "smt": _SMT,
    "full": _FULL,
}


def build_matrix(name: str) -> Tuple[EngineSpec, ...]:
    """Resolve a matrix by name (``quick`` / ``smt`` / ``full``)."""
    try:
        return MATRICES[name]
    except KeyError:
        raise ValueError(
            f"unknown matrix {name!r}; choose from {sorted(MATRICES)}"
        ) from None
