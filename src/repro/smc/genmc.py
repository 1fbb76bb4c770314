"""GenMC-style stateless model checking preset.

GenMC enumerates execution graphs (reads-from assignments checked for
consistency).  Our analogue shares the sleep-set DPOR engine with the
Nidhugg preset but reports the reads-from equivalence-class count as its
"traces explored" figure -- that count is what Table 3's *Traces* column
measures, and it is the quantity GenMC's exploration is proportional to.
"""

from __future__ import annotations

from repro.lang import ast
from repro.robustness import checkpoint
from repro.smc.compile import compile_program
from repro.smc.explore import Explorer
from repro.verify.result import Verdict, VerificationResult

__all__ = ["verify_genmc"]


def verify_genmc(program: ast.Program, config) -> VerificationResult:
    checkpoint("engine")
    compiled = compile_program(program, width=config.width, unwind=config.unwind)
    outcome = Explorer(compiled, mode="dpor").run()
    verdict = {
        "safe": Verdict.SAFE,
        "unsafe": Verdict.UNSAFE,
        "unknown": Verdict.UNKNOWN,
    }[outcome.verdict]
    stats = outcome.as_stats()
    stats["traces"] = outcome.rf_classes or outcome.traces
    return VerificationResult(
        verdict,
        config.name,
        schedule=outcome.witness_schedule,
        stats=stats,
    )
