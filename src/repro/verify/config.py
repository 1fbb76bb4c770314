"""Verifier configuration and the named tool presets used in the paper's
evaluation (Section 6)."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.oracle.audit import audit_enabled, parse_audit

__all__ = [
    "VerifierConfig",
    "PRESETS",
    "ENV_VARS",
    "doubling_schedule",
    "env_knob",
    "env_overrides",
]


def doubling_schedule(unwind: int) -> Tuple[int, ...]:
    """The deepening bounds ``1, 2, 4, ...`` below ``unwind``, then
    ``unwind``; empty (one-shot) when no bound lies below ``unwind``."""
    bounds, b = [], 1
    while b < unwind:
        bounds.append(b)
        b *= 2
    return tuple(bounds) + (unwind,) if bounds else ()


def _normalize_schedule(
    schedule: Optional[Tuple[int, ...]], unwind: int, engine: str
) -> Tuple[int, ...]:
    """Sorted unique bounds in ``1..unwind``, always ending at ``unwind``
    (so the deepest solve is exactly the one-shot problem).  Empty means
    one-shot; non-SMT engines are always one-shot."""
    if schedule is None:
        spec = env_knob("REPRO_UNWIND_SCHEDULE")
        schedule = doubling_schedule(unwind) if spec == "doubling" else spec
    if not schedule or engine != "smt":
        return ()
    bounds = sorted({int(b) for b in schedule})
    if bounds[0] < 1:
        raise ValueError(
            f"unwind_schedule bounds must be >= 1, got {bounds[0]}"
        )
    return tuple(b for b in bounds if b < unwind) + (unwind,)


@dataclass(frozen=True)
class VerifierConfig:
    """Configuration of the verification engine.

    Attributes:
        name: display name (filled by the presets).
        engine: ``"smt"`` (partial-order BMC via DPLL(T)), ``"closure"``
            (pure-SAT transitive-closure encoding, the Dartagnan-style
            baseline), ``"explicit"`` (explicit-state search, the
            CPA-Seq-style baseline), ``"lazyseq"`` (bounded round-robin
            sequentialization, the Lazy-CSeq-style baseline), or one of the
            stateless model checkers ``"smc-rfsc"`` / ``"smc-genmc"``.
        theory: for the SMT engine: ``"ord"`` (the paper's T_ord solver) or
            ``"idl"`` (clock-difference encoding, the CBMC-style baseline).
        detector: cycle detection inside T_ord: ``"icd"`` or ``"tarjan"``.
        unit_edge: unit-edge theory propagation (False = Zord′).
        fr_encoding: encode rho_fr in the formula and disable from-read
            propagation (True = Zord⁻; always True for theory="idl").
        unwind: loop unrolling bound.
        width: bit-width of program integers.
        memory_model: ``"sc"`` (the paper's setting), ``"tso"`` or
            ``"pso"`` (the weak-memory extension; SMT engines only).
        rounds: round-robin rounds for the lazyseq engine.
        max_conflict_clauses: cap per theory conflict.
        time_limit_s: wall-clock budget; exceeded -> UNKNOWN.  Like every
            limit below, enforced only by the run's
            :class:`~repro.robustness.budget.Budget` (the deadline covers
            frontend, encoding, theory and solve phases).
        max_conflicts: work budget: cumulative SAT conflicts, explored
            states (explicit engine) or transitions (sequentialized and
            stateless engines); a cap of N trips on unit N+1 -> UNKNOWN.
        memory_limit_mb: cap on resident-set growth during the run;
            exceeded -> UNKNOWN (see :mod:`repro.robustness.budget`).
        max_events: cap on the event-graph size the frontend may produce;
            exceeded -> UNKNOWN before the encoder commits to a
            quadratic/cubic encoding.
        prune_level: static-analysis encoding pruning for the ``ord``
            theory (see :mod:`repro.analysis.prune`): 0 = off, 1 = the
            dead-guard, program-order and guard-shadow rules, 2 = + the
            lock-value rule.  ``None`` (the default) resolves to the
            ``REPRO_PRUNE`` environment variable, falling back to 2.
            Pruning only skips ordering variables that are false in every
            model, so verdicts are identical at every level.
        unwind_schedule: iterative-deepening BMC bound schedule (SMT
            engines only).  ``None`` (the default) resolves to the
            ``REPRO_UNWIND_SCHEDULE`` environment variable: unset/empty/
            ``"0"`` means one-shot solving at ``unwind``; ``"1"``/
            ``"true"`` means a doubling schedule ``1, 2, 4, ..., unwind``;
            a comma-separated list gives explicit bounds.  ``()`` forces
            one-shot regardless of the environment.  A non-empty schedule
            is normalized to sorted unique bounds in ``1..unwind`` and
            always ends at ``unwind``, so the verdict is identical to the
            one-shot run by construction (see ``docs/INCREMENTAL.md``).
        fallbacks: preset names retried, in order, when an attempt crashes
            or exhausts its budget (see :mod:`repro.robustness.fallback`).
            All attempts share one wall-clock deadline.
        trace_jsonl: when set, stream a JSONL telemetry event trace to this
            path while the engine runs (see :mod:`repro.verify.telemetry`).
        audit: debug-mode invariant auditing of the SAT core and the
            T_ord theory solver (see :mod:`repro.oracle.audit`): per-step
            checks of ICD label consistency, theory trail/index sync,
            conflict-clause falsification and unsat-core validity.  An
            invariant violation raises
            :class:`~repro.oracle.audit.AuditError` (contained by the
            crash guard as an ``ERROR`` verdict).  ``None`` (the default)
            resolves to the ``REPRO_AUDIT`` environment variable, falling
            back to off.  Verdicts are unaffected; expect a significant
            slowdown when enabled.

    The engine/theory/detector/memory-model combination is validated at
    construction against the engine table in :mod:`repro.verify.registry`;
    unknown or unsupported combinations raise :class:`ValueError`
    immediately with the known alternatives.
    """

    name: str = "zord"
    engine: str = "smt"
    theory: str = "ord"
    detector: str = "icd"
    unit_edge: bool = True
    fr_encoding: bool = False
    unwind: int = 8
    width: int = 8
    memory_model: str = "sc"
    #: Round-robin rounds for the lazyseq engine.  4 covers the bug depths
    #: of the benchmark suites; like the original tool, SAFE means "no
    #: violation within the round bound".
    rounds: int = 4
    max_conflict_clauses: int = 8
    time_limit_s: Optional[float] = None
    max_conflicts: Optional[int] = None
    memory_limit_mb: Optional[float] = None
    max_events: Optional[int] = None
    prune_level: Optional[int] = None
    unwind_schedule: Optional[Tuple[int, ...]] = None
    fallbacks: Tuple[str, ...] = ()
    trace_jsonl: Optional[str] = None
    audit: Optional[bool] = None

    def __post_init__(self) -> None:
        from repro.verify import registry

        if not isinstance(self.fallbacks, tuple):
            object.__setattr__(self, "fallbacks", tuple(self.fallbacks))
        if self.audit is None:
            object.__setattr__(self, "audit", audit_enabled())
        else:
            object.__setattr__(self, "audit", bool(self.audit))
        if self.prune_level is None:
            level = env_knob("REPRO_PRUNE")
            object.__setattr__(self, "prune_level", 2 if level is None else level)
        if not 0 <= self.prune_level <= 2:
            raise ValueError(
                f"prune_level must be 0..2, got {self.prune_level!r}"
            )
        object.__setattr__(
            self,
            "unwind_schedule",
            _normalize_schedule(self.unwind_schedule, self.unwind, self.engine),
        )
        registry.validate_config(self)

    # ------------------------------------------------------------------
    # Presets (the tools compared in Section 6)
    # ------------------------------------------------------------------

    @staticmethod
    def presets() -> Dict[str, Callable[..., "VerifierConfig"]]:
        """The preset table: display name -> factory.  The CLI derives its
        ``--engine``/``--portfolio`` choices from this single source."""
        return dict(PRESETS)

    @staticmethod
    def zord(**kw) -> "VerifierConfig":
        """The paper's tool: T_ord with ICD, unit-edge and FR propagation."""
        return VerifierConfig(name="zord", **kw)

    @staticmethod
    def zord_minus(**kw) -> "VerifierConfig":
        """Zord⁻: all FR constraints encoded upfront (Fig. 8 ablation)."""
        return VerifierConfig(name="zord-", fr_encoding=True, **kw)

    @staticmethod
    def zord_prime(**kw) -> "VerifierConfig":
        """Zord′: unit-edge propagation disabled (Fig. 9 ablation)."""
        return VerifierConfig(name="zord'", unit_edge=False, **kw)

    @staticmethod
    def zord_tarjan(**kw) -> "VerifierConfig":
        """Zord with fresh non-incremental cycle detection (Fig. 10)."""
        return VerifierConfig(name="zord-tarjan", detector="tarjan", **kw)

    @staticmethod
    def cbmc(**kw) -> "VerifierConfig":
        """CBMC-style baseline: clock-difference (IDL) ordering theory with
        all FR constraints encoded and non-incremental consistency checks."""
        return VerifierConfig(name="cbmc", theory="idl", fr_encoding=True, **kw)

    @staticmethod
    def dartagnan(**kw) -> "VerifierConfig":
        """Dartagnan-style baseline: pure-SAT relational encoding with an
        explicit transitive-closure axiomatization (no theory solver)."""
        return VerifierConfig(name="dartagnan", engine="closure", **kw)

    @staticmethod
    def cpa_seq(**kw) -> "VerifierConfig":
        """CPA-Seq-style baseline: explicit-state reachability."""
        return VerifierConfig(name="cpa-seq", engine="explicit", **kw)

    @staticmethod
    def lazy_cseq(**kw) -> "VerifierConfig":
        """Lazy-CSeq-style baseline: bounded round-robin sequentialization."""
        return VerifierConfig(name="lazy-cseq", engine="lazyseq", **kw)

    @staticmethod
    def nidhugg_rfsc(**kw) -> "VerifierConfig":
        """Nidhugg/rfsc-style stateless model checking (rf equivalence)."""
        return VerifierConfig(name="nidhugg-rfsc", engine="smc-rfsc", **kw)

    @staticmethod
    def genmc(**kw) -> "VerifierConfig":
        """GenMC-style stateless model checking (execution graphs)."""
        return VerifierConfig(name="genmc", engine="smc-genmc", **kw)

    def with_(self, **kw) -> "VerifierConfig":
        return replace(self, **kw)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready field dict; the exact inverse of :meth:`from_dict`.

        Env-resolved knobs (``prune_level``, ``audit``, ``unwind_schedule``)
        are emitted in their *resolved* form, so a config shipped to a
        verification server behaves identically there regardless of the
        server's environment.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerifierConfig":
        """Rebuild a config from :meth:`to_dict` output (JSON lists are
        coerced back to tuples).

        A ``"preset"`` key selects a factory from :data:`PRESETS` with the
        remaining keys as overrides -- the wire form clients use to say
        "zord, but with this unwind".  Unknown keys raise ``ValueError``
        (a typoed knob silently ignored would verify the wrong thing).
        """
        kw = dict(data)
        preset = kw.pop("preset", None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kw) - known)
        if unknown:
            raise ValueError(
                f"unknown VerifierConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        for key in ("fallbacks", "unwind_schedule"):
            if kw.get(key) is not None:
                kw[key] = tuple(kw[key])
        if preset is not None:
            if preset not in PRESETS:
                raise ValueError(
                    f"unknown preset {preset!r}; available: "
                    f"{', '.join(sorted(PRESETS))}"
                )
            kw.pop("name", None)  # the factory owns the display name
            try:
                return PRESETS[preset](**kw)
            except TypeError as exc:
                # e.g. overriding a knob the preset factory pins itself
                raise ValueError(f"preset {preset!r}: {exc}") from None
        return cls(**kw)


# ----------------------------------------------------------------------
# Environment knob inventory
# ----------------------------------------------------------------------

#: Every ``REPRO_*`` environment variable the code base reads, with a
#: one-line contract.  :func:`env_knob` is the one parser per knob;
#: ``tests/service/test_env_overrides.py`` greps the source tree and fails
#: when a knob ships without an inventory row here.
ENV_VARS: Dict[str, str] = {
    "REPRO_PRUNE": (
        "static-analysis encoding pruning level 0..2 "
        "(VerifierConfig.prune_level default; invalid -> 2)"
    ),
    "REPRO_UNWIND_SCHEDULE": (
        "iterative-deepening BMC schedule: 1/true = doubling to the "
        "unwind bound, comma list = explicit bounds, unset/0 = one-shot "
        "(VerifierConfig.unwind_schedule default)"
    ),
    "REPRO_AUDIT": (
        "1/true/yes/on arms the SAT-core/theory invariant auditor "
        "(VerifierConfig.audit default; see repro.oracle.audit)"
    ),
    "REPRO_FAULTS": (
        "deterministic fault injection, comma list of ACTION@CHECKPOINT"
        "[:ARG] specs (see repro.robustness.faults; propagates to forked "
        "workers)"
    ),
    "REPRO_BENCH_JOBS": (
        "worker processes for the benchmark engine grids "
        "(benchmarks/conftest.py; 1 = serial, the default)"
    ),
    "REPRO_SERVER": (
        "address of a running verification service (HOST:PORT); when set, "
        "repro.api.verify routes jobs through it instead of solving "
        "in-process (see docs/SERVICE.md)"
    ),
    "REPRO_CACHE_DIR": (
        "directory for the service's persistent verdict cache and job "
        "checkpoints (repro serve --cache-dir default; unset = in-memory "
        "cache only, see docs/SERVICE.md)"
    ),
}


def _parse_int(default: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            return default

    return parse


def _parse_schedule(raw: str):
    lowered = raw.lower()
    if lowered in ("1", "true"):
        return "doubling"
    if lowered in ("0", "false"):
        return None
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        return None


#: The one parser per knob, applied to the stripped, non-empty raw value.
#: Knobs without an entry are plain strings.
_ENV_PARSERS: Dict[str, Callable[[str], Any]] = {
    "REPRO_PRUNE": _parse_int(2),
    "REPRO_UNWIND_SCHEDULE": _parse_schedule,
    "REPRO_AUDIT": parse_audit,
    "REPRO_FAULTS": lambda raw: tuple(
        p.strip() for p in raw.split(",") if p.strip()
    ),
    "REPRO_BENCH_JOBS": _parse_int(1),
}


def env_knob(name: str, environ: Optional[Mapping[str, str]] = None) -> Any:
    """The parsed value of the ``REPRO_*`` knob ``name`` in ``environ``
    (default: ``os.environ``), or ``None`` when it is unset or blank."""
    value = (os.environ if environ is None else environ).get(name)
    if value is None or not value.strip():
        return None
    return _ENV_PARSERS.get(name, str)(value.strip())


def env_overrides(
    environ: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Read every documented ``REPRO_*`` knob from ``environ`` (default:
    ``os.environ``) into one dict, through :func:`env_knob`, the parsing
    its consumers use.

    Returns a dict with exactly the keys of :data:`ENV_VARS`; unset knobs
    map to ``None``.  Parsed values:

    * ``REPRO_PRUNE`` -> ``int`` (invalid text falls back to 2, matching
      :class:`VerifierConfig`);
    * ``REPRO_UNWIND_SCHEDULE`` -> ``"doubling"``, a bound tuple, or
      ``None`` for off/unset;
    * ``REPRO_AUDIT`` -> ``bool``;
    * ``REPRO_FAULTS`` -> tuple of fault-spec strings;
    * ``REPRO_BENCH_JOBS`` -> ``int``;
    * ``REPRO_SERVER`` -> the address string, stripped;
    * ``REPRO_CACHE_DIR`` -> the directory path, stripped.
    """
    return {name: env_knob(name, environ) for name in ENV_VARS}


#: The named tool presets of the Section 6 evaluation, keyed by display
#: name.  Single source of truth for the CLI and the portfolio runner.
PRESETS: Dict[str, Callable[..., VerifierConfig]] = {
    "zord": VerifierConfig.zord,
    "zord-": VerifierConfig.zord_minus,
    "zord'": VerifierConfig.zord_prime,
    "zord-tarjan": VerifierConfig.zord_tarjan,
    "cbmc": VerifierConfig.cbmc,
    "dartagnan": VerifierConfig.dartagnan,
    "cpa-seq": VerifierConfig.cpa_seq,
    "lazy-cseq": VerifierConfig.lazy_cseq,
    "nidhugg-rfsc": VerifierConfig.nidhugg_rfsc,
    "genmc": VerifierConfig.genmc,
}
