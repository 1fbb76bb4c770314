"""Nidhugg/rfsc-style stateless model checking preset.

Nidhugg's reads-from exploration algorithm enumerates one execution per
reads-from equivalence class.  Our analogue runs the sleep-set DPOR engine
(one execution per Mazurkiewicz trace -- a refinement-compatible
equivalence) and reports the reads-from class count alongside; the
*scaling* behaviour (work proportional to the number of equivalence
classes, independent of formula-style complexity) is the property the
Table 3 comparison exercises.
"""

from __future__ import annotations

from repro.lang import ast
from repro.robustness import checkpoint
from repro.smc.compile import compile_program
from repro.smc.explore import Explorer
from repro.verify.result import Verdict, VerificationResult

__all__ = ["verify_rfsc"]


def verify_rfsc(program: ast.Program, config) -> VerificationResult:
    checkpoint("engine")
    compiled = compile_program(program, width=config.width, unwind=config.unwind)
    outcome = Explorer(compiled, mode="dpor").run()
    verdict = {
        "safe": Verdict.SAFE,
        "unsafe": Verdict.UNSAFE,
        "unknown": Verdict.UNKNOWN,
    }[outcome.verdict]
    return VerificationResult(
        verdict,
        config.name,
        schedule=outcome.witness_schedule,
        stats=outcome.as_stats(),
    )
