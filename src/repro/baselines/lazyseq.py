"""Lazy-CSeq-style baseline: bounded round-robin sequentialization.

Lazy sequentialization verifies a sequential program that simulates K
round-robin rounds of the threads, with nondeterministic context-switch
points.  The analogue explores exactly that schedule space directly: in
each of ``config.rounds`` rounds the threads take turns in a fixed order,
each executing a nondeterministically chosen number of visible steps.

Like the original, this is an *under-approximation*: a SAFE verdict means
no violation within the round bound.  Executions that do not finish within
the bound are discarded.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang import ast
from repro.robustness import BudgetExceeded, checkpoint, get_active
from repro.smc.compile import compile_program
from repro.smc.interpreter import ExecState, Interpreter
from repro.verify.result import Verdict, VerificationResult

__all__ = ["verify_lazyseq"]

_NONDET_DOMAIN = (0, 1, 2, 3)


class _Node:
    __slots__ = ("state", "pos", "pending", "idx")

    def __init__(self, state: ExecState, pos: int) -> None:
        self.state = state
        self.pos = pos
        self.pending: Optional[List[Tuple[str, int]]] = None
        self.idx = 0


def verify_lazyseq(
    program: ast.Program, config, telemetry=None
) -> VerificationResult:
    checkpoint("engine")
    compiled = compile_program(program, width=config.width, unwind=config.unwind)
    interp = Interpreter(compiled)
    order = ["main"] + sorted(compiled.threads)
    max_pos = config.rounds * len(order)
    budget = get_active()

    stack = [_Node(interp.initial_state(), 0)]
    traces = 0
    discarded = 0
    transitions = 0

    def counters():
        return {"traces": traces, "discarded": discarded, "transitions": transitions}

    try:
        while stack:
            transitions += 1
            if budget is not None:
                # One transition is this engine's unit of work.
                budget.charge_conflicts(1, "engine")
            if transitions & 0xFF == 0:
                checkpoint("engine")
            node = stack[-1]
            if node.pending is None:
                state = node.state
                if state.infeasible:
                    # A thread failed an assume / exceeded the unwind bound:
                    # no completion of this path is a valid execution.
                    discarded += 1
                    stack.pop()
                    continue
                if interp.is_complete(state):
                    traces += 1
                    if state.violated:
                        return VerificationResult(
                            Verdict.UNSAFE, config.name, stats=counters()
                        )
                    stack.pop()
                    continue
                if node.pos >= max_pos:
                    discarded += 1  # ran out of rounds
                    stack.pop()
                    continue
                tid = order[node.pos % len(order)]
                op = interp.front(state, tid)
                pending: List[Tuple[str, int]] = []
                if op is not None and interp._is_enabled(state, op):
                    if op.kind == "nondet":
                        pending.extend(("step", v) for v in _NONDET_DOMAIN)
                    else:
                        pending.append(("step", 0))
                pending.append(("pass", 0))
                node.pending = pending
            if node.idx >= len(node.pending):
                stack.pop()
                continue
            action, value = node.pending[node.idx]
            node.idx += 1
            if action == "pass":
                stack.append(_Node(node.state, node.pos + 1))
            else:
                tid = order[node.pos % len(order)]
                child = node.state.clone()
                interp.step(child, tid, value)
                stack.append(_Node(child, node.pos))
    except BudgetExceeded as exc:
        exc.partial_stats.update(counters())
        raise

    if compiled.uses_nondet and len(_NONDET_DOMAIN) < (1 << compiled.width):
        # Bounded nondet enumeration cannot prove safety.
        verdict = Verdict.UNKNOWN
    else:
        verdict = Verdict.SAFE
    return VerificationResult(verdict, config.name, stats=counters())
