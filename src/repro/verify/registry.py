"""The engine table behind :func:`repro.verify.verify`.

Every verification engine -- the paper's tool, its ablations and the five
baseline engines of the Section 6 evaluation -- is one row of
:data:`ENGINES`: where its runner lives, plus the capability metadata
(SMT theories, cycle detectors, memory models) the engine accepts.
Every runner has the one signature
``runner(program, config, telemetry=None) -> VerificationResult``, and
its module is imported only when a config selects the engine, so
constructing a :class:`~repro.verify.config.VerifierConfig` stays cheap
and the baseline engines never load unless used.

The SMT engine resolves its ordering theory (``"ord"`` / ``"idl"``)
through :data:`THEORIES` the same way; a theory's encoder has the
signature ``encode(sym, config) -> EncodedProgram``.

:func:`validate_config` checks a config against the table at
construction time, so an invalid engine/theory/detector/memory-model
combination fails immediately with the list of known names rather than
deep inside the solve.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, NamedTuple, Tuple

__all__ = [
    "ENGINES",
    "THEORIES",
    "resolve_engine",
    "resolve_theory",
    "validate_config",
]


class Engine(NamedTuple):
    """One row of :data:`ENGINES`.  ``runner`` is ``"module:function"``;
    an empty ``theories`` / ``detectors`` means the engine ignores
    ``config.theory`` / ``config.detector``."""

    runner: str
    theories: Tuple[str, ...] = ()
    detectors: Tuple[str, ...] = ()
    memory_models: Tuple[str, ...] = ("sc",)


ENGINES: Dict[str, Engine] = {
    # Partial-order BMC via DPLL(T): Zord and the CBMC-style IDL baseline.
    "smt": Engine(
        "repro.verify.verifier:run_smt_engine",
        theories=("ord", "idl"),
        detectors=("icd", "tarjan"),
        memory_models=("sc", "tso", "pso"),
    ),
    # Pure-SAT transitive-closure encoding (Dartagnan-style).
    "closure": Engine("repro.baselines.closure:verify_closure"),
    # Explicit-state reachability (CPA-Seq-style).
    "explicit": Engine("repro.baselines.explicit:verify_explicit"),
    # Bounded round-robin sequentialization (Lazy-CSeq-style).
    "lazyseq": Engine("repro.baselines.lazyseq:verify_lazyseq"),
    # Stateless model checking (Nidhugg/rfsc-style and GenMC-style).
    "smc-rfsc": Engine("repro.smc.explore:verify_stateless"),
    "smc-genmc": Engine("repro.smc.explore:verify_stateless"),
}

#: Theory name -> ``"module:function"`` of its encoder.
THEORIES: Dict[str, str] = {
    # The paper's T_ord ordering-consistency theory.
    "ord": "repro.verify.verifier:encode_ord",
    # Clock-difference (IDL) encoding with full FR constraints.
    "idl": "repro.baselines.idl:encode_program_idl",
}


def _unknown(kind: str, name: str, table: Dict) -> ValueError:
    return ValueError(
        f"unknown {kind} {name!r}; known: {', '.join(sorted(table))}"
    )


def _load(location: str) -> Callable:
    module, _, attr = location.partition(":")
    return getattr(import_module(module), attr)


def resolve_engine(name: str) -> Callable:
    """The runner for engine ``name`` (importing its module on first
    use); unknown names raise with the known list."""
    if name not in ENGINES:
        raise _unknown("engine", name, ENGINES)
    return _load(ENGINES[name].runner)


def resolve_theory(name: str) -> Callable:
    """The encoder for theory ``name`` (importing its module on first
    use); unknown names raise with the known list."""
    if name not in THEORIES:
        raise _unknown("theory", name, THEORIES)
    return _load(THEORIES[name])


def validate_config(config) -> None:
    """Check a :class:`VerifierConfig` against the table's capability
    metadata.  Called from ``VerifierConfig.__post_init__`` so invalid
    combinations fail at construction, not mid-solve."""
    engine = ENGINES.get(config.engine)
    if engine is None:
        raise _unknown("engine", config.engine, ENGINES)
    if engine.theories and config.theory not in engine.theories:
        raise ValueError(
            f"engine {config.engine!r} does not support theory "
            f"{config.theory!r}; supported: {', '.join(engine.theories)}"
        )
    if engine.detectors and config.detector not in engine.detectors:
        raise ValueError(
            f"engine {config.engine!r} does not support detector "
            f"{config.detector!r}; supported: {', '.join(engine.detectors)}"
        )
    if config.memory_model not in engine.memory_models:
        raise ValueError(
            f"memory model {config.memory_model!r} is not supported by "
            f"engine {config.engine!r} (supported: "
            f"{', '.join(engine.memory_models)}; the explicit/stateless "
            "engines interpret under SC)"
        )
    fallbacks = getattr(config, "fallbacks", ()) or ()
    if fallbacks:
        from repro.verify.config import PRESETS

        unknown = [name for name in fallbacks if name not in PRESETS]
        if unknown:
            raise ValueError(
                f"unknown fallback preset(s) {', '.join(map(repr, unknown))}; "
                f"available presets: {', '.join(sorted(PRESETS))}"
            )
