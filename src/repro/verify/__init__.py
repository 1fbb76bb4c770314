"""Top-level verification API.

:func:`verify` runs the full pipeline -- parse, unroll/SSA, encode,
DPLL(T) solve, witness extraction -- with a :class:`VerifierConfig`
selecting the engine and ablation flags (Zord, Zord⁻, Zord′, the Tarjan
detector, or one of the baseline engines).

Engines are the rows of the static table in :mod:`repro.verify.registry`,
which also validates every config against their capabilities.  Structured
telemetry (normalized stats plus optional JSONL event traces) lives in
:mod:`repro.verify.telemetry`.
"""

from repro.verify.config import ENV_VARS, PRESETS, VerifierConfig, env_overrides
from repro.verify.result import SCHEMA_VERSION, VerificationResult, Verdict
from repro.verify.telemetry import STAT_KEYS, TraceWriter, normalize_stats
from repro.verify.verifier import verify_one
from repro.verify.witness import Trace, TraceStep
from repro.verify import registry

#: Stable in-process engine entry point.  ``repro.api.verify`` is the
#: public front door (portfolio dispatch + service routing); this alias
#: is what the engine layers themselves call.
verify = verify_one

__all__ = [
    "verify",
    "verify_one",
    "VerifierConfig",
    "VerificationResult",
    "Verdict",
    "Trace",
    "TraceStep",
    "PRESETS",
    "ENV_VARS",
    "env_overrides",
    "SCHEMA_VERSION",
    "registry",
    "STAT_KEYS",
    "TraceWriter",
    "normalize_stats",
]
