"""Replay a counterexample through the SMC interpreter.

Two witness forms replay here, each checked at every step that the
scheduled thread is parked at the expected operation and that it is
enabled:

* :func:`replay_schedule` re-executes an explorer's schedule of visible
  operations (``"t1: storeg x"``, ``"t0: nondet=3"``) deterministically;
* :func:`replay_witness` drives an SMT engine's trace (below).

The SMT engine's counterexample (:class:`repro.verify.witness.Trace`) is a
linearization of the accepted partial order, annotated with model values.
This module drives the concrete interpreter (:mod:`repro.smc.interpreter`)
through exactly that schedule, feeding the model's ``nondet()`` values,
and checks at every step that the concrete machine observes the same
values the model claims -- ending with a completed execution whose
assertion actually failed.  A successful replay is an end-to-end
soundness check of frontend + encoding + theory + witness extraction.

Granularity differences between the two layers are bridged explicitly:

* the interpreter pre-applies the initial shared-memory values, so the
  frontend's synthesized init-write events are skipped;
* ``lock(m)`` is two events (RMW read + write) in the encoding but one
  interpreter step; the step runs at the acquire read's position.  Sound
  because the RMW constraint forbids conflicting lock-variable accesses
  between the two events in any model (two acquires can never read the
  same source write), so collapsing them cannot change any observed
  value;
* an ``atomic`` block is one interpreter step; it runs at the block's
  first event and consumes the whole region.

Any mismatch -- a disabled lock, a value disagreement, an unfinished
thread -- raises :class:`ReplayError` with the offending step.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Union

from repro.lang import ast
from repro.lang.parser import parse
from repro.smc.compile import CompiledProgram, compile_program
from repro.smc.interpreter import ExecState, Interpreter

__all__ = ["ReplayError", "replay_schedule", "replay_witness"]

_ENTRY = re.compile(
    r"^(?P<tid>[^:]+): (?:(?P<kind>\w+)(?: (?P<addr>\w+))?|nondet=(?P<val>-?\d+))$"
)


class ReplayError(AssertionError):
    """The witness does not replay: some step disagrees with the concrete
    semantics (this indicates a verifier bug, hence an AssertionError)."""


def _parked_at(
    interp, state, tid: str, kind: str, addr: Optional[str], where: str
) -> None:
    """Check that ``tid`` is parked at an enabled ``kind`` op (on ``addr``
    unless that is None); otherwise raise :class:`ReplayError` naming
    ``where``."""
    op = interp.front(state, tid)
    if op is None:
        raise ReplayError(
            f"{where}: thread {tid!r} not schedulable (stuck, finished or blocked)"
        )
    if op.kind != kind or (addr is not None and op.addr != addr):
        raise ReplayError(
            f"{where}: expected {kind} {addr}, thread {tid!r} is at "
            f"{op.kind} {op.addr}"
        )
    if not interp._is_enabled(state, op):
        raise ReplayError(f"{where}: thread {tid!r} is blocked at {op.kind}")


def replay_schedule(
    program: Union[str, ast.Program, CompiledProgram],
    schedule: List[str],
    width: int = 8,
    unwind: int = 8,
) -> ExecState:
    """Execute ``schedule`` step by step; returns the final state.

    Raises :class:`ReplayError` if a scheduled thread is not parked at the
    recorded operation or is disabled at its turn.
    """
    if isinstance(program, str):
        program = parse(program)
    if isinstance(program, ast.Program):
        program = compile_program(program, width=width, unwind=unwind)
    interp = Interpreter(program)
    state = interp.initial_state()

    for i, entry in enumerate(schedule):
        m = _ENTRY.match(entry.strip())
        if not m:
            raise ReplayError(f"unparseable schedule entry {entry!r}")
        tid = m.group("tid")
        if tid not in state.threads:
            raise ReplayError(f"step {i}: unknown thread {tid!r}")
        value = 0
        if m.group("val") is not None:
            _parked_at(interp, state, tid, "nondet", None, f"step {i}")
            value = int(m.group("val"))
        else:
            _parked_at(
                interp, state, tid, m.group("kind"), m.group("addr"), f"step {i}"
            )
        interp.step(state, tid, value)
    return state


def replay_witness(
    program: Union[str, ast.Program],
    trace,
    width: int = 8,
    unwind: int = 8,
) -> bool:
    """Replay ``trace`` on ``program``; return whether an assert failed.

    ``width``/``unwind`` must match the configuration that produced the
    witness (event ids are matched against a fresh frontend run, which is
    deterministic).
    """
    if isinstance(program, str):
        program = parse(program)

    # Rebuild the symbolic program to recover event structure (init
    # writes, lock RMW pairs, atomic regions) keyed by eid.
    from repro.frontend.ssa import build_symbolic_program

    sym = build_symbolic_program(program, unwind=unwind, width=width)
    mask = (1 << width) - 1
    init_eids = {
        ev.eid for ev in sym.threads[0].events[: len(sym.shared_inits)]
    }
    lock_addrs = set(sym.lock_addrs)
    acquire_write_of: Dict[int, int] = {}  # acquire read eid -> write eid
    acquire_writes: Set[int] = set()
    for group in sym.rmw_groups:
        if group.addr in lock_addrs:
            acquire_write_of[group.read_eid] = group.write_eid
            acquire_writes.add(group.write_eid)
    region_of: Dict[int, Set[int]] = {}
    for region in sym.atomic_regions:
        eids = set(region)
        for eid in region:
            region_of[eid] = eids

    nondet_queue: Dict[str, Deque[int]] = {}
    for thread, _ssa_name, value in getattr(trace, "nondet_values", ()):
        nondet_queue.setdefault(thread, deque()).append(value)

    interp = Interpreter(compile_program(program, width=width, unwind=unwind))
    state = interp.initial_state()
    consumed: Set[int] = set()

    def fail(step, why: str) -> None:
        raise ReplayError(f"witness replay failed at {step}: {why}")

    def parked_at(step, kind: str, addr: Optional[str]) -> None:
        _parked_at(
            interp, state, step.thread, kind, addr,
            f"witness replay failed at {step}",
        )

    def flush_nondet(tid: str) -> bool:
        """Feed model nondet values while ``tid`` is parked at nondet."""
        fed = False
        while True:
            op = interp.front(state, tid)
            if op is None or op.kind != "nondet":
                return fed
            queue = nondet_queue.get(tid)
            value = queue.popleft() if queue else 0
            interp.step(state, tid, nondet_value=value)
            fed = True

    def flush_invisible(tid: str) -> bool:
        """Step ``tid`` through ops that are invisible to the *trace*.

        Two kinds of parked ops produce no trace step and may be resolved
        eagerly (they carry no cross-thread ordering in the encoding):
        nondet choices, and ``atomic`` blocks containing no shared access
        (the encoder emits no events for them, so the witness cannot
        schedule them).
        """
        fed = flush_nondet(tid)
        while True:
            op = interp.front(state, tid)
            if (
                op is None
                or op.kind != "abegin"
                or op.addr is not None
                or not interp._is_enabled(state, op)
            ):
                return fed
            interp.step(state, tid)
            fed = flush_nondet(tid) or True

    def flush_nondet_all() -> None:
        """Feed nondet values (and event-free atomic blocks) to *every*
        parked thread, to fixpoint.

        nondet choices are scheduling points in the interpreter but carry
        no cross-thread ordering in the encoding (they touch no shared
        state), so they may be resolved eagerly.  They must be: a thread
        parked at a nondet that precedes its ``start`` of another thread
        (or that a ``join`` waits on) would otherwise block the whole
        schedule even though the witness is fine.  Feeding a value can
        start new threads or release joins, which can park further
        threads at nondets -- hence the fixpoint loop.
        """
        progressed = True
        while progressed:
            progressed = False
            for tid in list(state.threads):
                if flush_invisible(tid):
                    progressed = True

    for step in trace.steps:
        if step.eid in consumed or step.eid in init_eids:
            continue
        tid = step.thread
        flush_nondet_all()

        if step.eid in acquire_write_of:
            # Enabled means the lock is free at the acquire.
            parked_at(step, "lock", step.addr)
            interp.step(state, tid)
            consumed.add(acquire_write_of[step.eid])
        elif step.eid in acquire_writes:
            # The paired read was never seen first: linearization bug.
            fail(step, "lock-acquire write before its read")
        elif step.eid in region_of:
            # Enabled means no assume inside the block fails.
            parked_at(step, "abegin", None)
            interp.step(state, tid)
            consumed.update(region_of[step.eid])
        elif step.addr in lock_addrs:  # release store
            parked_at(step, "unlock", step.addr)
            interp.step(state, tid)
        elif step.kind == "R":
            parked_at(step, "loadg", step.addr)
            got = state.mem[step.addr] & mask
            if got != step.value & mask:
                fail(step, f"read observed {got}, model claims {step.value & mask}")
            interp.step(state, tid)
        else:
            parked_at(step, "storeg", step.addr)
            interp.step(state, tid)
            got = state.mem[step.addr] & mask
            if got != step.value & mask:
                fail(step, f"wrote {got}, model claims {step.value & mask}")
        consumed.add(step.eid)

    # Trailing nondet choices (after each thread's last memory event).
    flush_nondet_all()
    if not interp.is_complete(state):
        unfinished = [
            name
            for name, t in state.threads.items()
            if t.started and not t.finished
        ]
        raise ReplayError(
            f"witness replay did not complete; unfinished threads: {unfinished}"
        )
    return state.violated
