"""CPA-Seq-style baseline: explicit-state reachability with state hashing.

Configurable-program-analysis tools ultimately enumerate abstract states;
on these benchmark programs the dominant configuration is close to
explicit-value analysis.  The analogue performs a BFS over interpreter
states, deduplicating semantically equal states (memory, program counters,
locals, loop counters) -- sound and complete within the unwind bound, but
subject to the state-explosion the paper's Table 1/Figure 7 comparison
exhibits.
"""

from __future__ import annotations

from collections import deque
from typing import Set, Tuple

from repro.lang import ast
from repro.robustness import BudgetExceeded, checkpoint, get_active
from repro.smc.compile import compile_program
from repro.smc.interpreter import Interpreter
from repro.verify.result import Verdict, VerificationResult

__all__ = ["verify_explicit"]

#: Default nondet enumeration domain (explicit engines must enumerate).
_NONDET_DOMAIN = (0, 1, 2, 3)


def verify_explicit(
    program: ast.Program, config, telemetry=None
) -> VerificationResult:
    checkpoint("engine")
    compiled = compile_program(program, width=config.width, unwind=config.unwind)
    interp = Interpreter(compiled)
    budget = get_active()

    init = interp.initial_state()
    visited: Set[Tuple] = {init.key()}
    queue = deque([init])
    explored = 0

    def counters():
        return {"states": len(visited), "explored": explored}

    try:
        while queue:
            state = queue.popleft()
            explored += 1
            if budget is not None:
                # One explored state is this engine's unit of work.
                budget.charge_conflicts(1, "engine")
            if explored & 0xFF == 0:
                checkpoint("engine")
            if state.infeasible:
                continue  # failed assume / unwind bound: not a real execution
            ops = interp.enabled_ops(state)
            if not ops:
                if interp.is_complete(state) and state.violated:
                    return VerificationResult(
                        Verdict.UNSAFE, config.name, stats=counters()
                    )
                continue
            for op in ops:
                values = _NONDET_DOMAIN if op.kind == "nondet" else (0,)
                for v in values:
                    child = state.clone()
                    interp.step(child, op.tid, v)
                    key = child.key()
                    if key not in visited:
                        visited.add(key)
                        queue.append(child)
    except BudgetExceeded as exc:
        exc.partial_stats.update(counters())
        raise

    if compiled.uses_nondet and len(_NONDET_DOMAIN) < (1 << compiled.width):
        # Bounded nondet enumeration cannot prove safety.
        verdict = Verdict.UNKNOWN
    else:
        verdict = Verdict.SAFE
    return VerificationResult(verdict, config.name, stats=counters())
