"""Interleaving exploration: naive enumeration and Source-DPOR.

``mode="naive"`` enumerates every interleaving (ground truth for tests).

``mode="dpor"`` implements Source-DPOR (Abdulla, Aronis, Jonsson, Sagonas)
with sleep sets -- the algorithm family behind Nidhugg:

* at each state only threads in the *backtrack set* are explored,
  initialized with a single thread;
* at every reached state, each enabled transition ``e`` of thread ``p`` is
  checked for *races* against executed transitions: address-dependent,
  different threads, and concurrent (the executed index is not in ``e``'s
  happens-before clock).  The happens-before clocks are maintained by the
  interpreter, so program order, reads-from/coherence synchronization and
  thread create/join edges are all captured;
* for each race with an executed event ``d``, the sequence ``v`` of
  post-``d`` events not causally after ``d`` (plus ``e``) is formed, and
  if no *weak initial* of ``v`` is already in the backtrack set of the
  state before ``d``, one is added -- this is the source-set condition
  that keeps sleep sets sound;
* *sleep sets* suppress re-exploring transitions already covered by an
  explored sibling until a dependent transition wakes them.

Completeness is cross-checked by a hypothesis property test: on random
programs DPOR must observe exactly the reads-from classes that naive
enumeration observes.

Complete executions are bucketed by their *reads-from signature*; the
number of distinct signatures is the reads-from equivalence-class count
reported as Table 3's "Traces" column.

:func:`verify_stateless` is the runner of both stateless engines.
Nidhugg's reads-from exploration and GenMC's execution-graph enumeration
each visit one execution per reads-from class; both analogues run the
sleep-set DPOR explorer (one execution per Mazurkiewicz trace, a
refinement of that equivalence) and differ only in the count they report
as ``traces``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.robustness import BudgetExceeded, checkpoint, get_active
from repro.smc.compile import CompiledProgram, compile_program
from repro.smc.interpreter import ExecState, Interpreter, VisibleOp
from repro.verify.result import VerificationResult

__all__ = ["ExploreOutcome", "Explorer", "verify_stateless"]


@dataclass
class ExploreOutcome:
    verdict: str  # "safe" / "unsafe" / "unknown"
    traces: int = 0
    rf_classes: int = 0
    blocked: int = 0
    sleep_blocked: int = 0
    transitions: int = 0
    races: int = 0
    witness_schedule: Optional[List[str]] = None

    def as_stats(self) -> Dict[str, int]:
        return {
            "traces": self.traces,
            "rf_classes": self.rf_classes,
            "blocked": self.blocked,
            "sleep_blocked": self.sleep_blocked,
            "transitions": self.transitions,
            "races": self.races,
        }


def _addr_dependent(a: VisibleOp, b: VisibleOp) -> bool:
    return (
        a.addr is not None
        and a.addr == b.addr
        and (a.is_write or b.is_write)
    )


def _dependent(a: VisibleOp, b: VisibleOp) -> bool:
    if a.tid == b.tid:
        return True
    return _addr_dependent(a, b)


class _Frame:
    __slots__ = (
        "state", "sleep", "enabled", "backtrack", "done", "queue", "last",
        "taken", "taken_cv",
    )

    def __init__(self, state: ExecState, sleep: Dict[str, VisibleOp]) -> None:
        self.state = state
        self.sleep = sleep
        self.enabled: Optional[Dict[str, VisibleOp]] = None
        self.backtrack: Set[str] = set()
        self.done: Dict[str, VisibleOp] = {}
        self.queue: List[Tuple[VisibleOp, Optional[int]]] = []
        self.last: Optional[str] = None
        #: Transition executed FROM this frame most recently, + its clock.
        self.taken: Optional[VisibleOp] = None
        self.taken_cv: Dict[str, int] = {}


class Explorer:
    """DFS interleaving explorer with optional Source-DPOR reduction."""

    def __init__(
        self,
        compiled: CompiledProgram,
        mode: str = "dpor",
        nondet_domain: Sequence[int] = (0, 1),
        max_traces: Optional[int] = None,
        max_transitions: Optional[int] = None,
        stop_at_first_violation: bool = True,
    ) -> None:
        if mode not in ("naive", "dpor"):
            raise ValueError(f"unknown exploration mode {mode!r}")
        self.interp = Interpreter(compiled)
        self.mode = mode
        self.nondet_domain = tuple(nondet_domain)
        self.max_traces = max_traces
        self.max_transitions = max_transitions
        self.stop_at_first_violation = stop_at_first_violation
        #: rf signatures of the complete traces of the last run()
        #: (inspected by the DPOR completeness tests).
        self.last_signatures: Set[Tuple] = set()

    # ------------------------------------------------------------------

    def run(self) -> ExploreOutcome:
        """Explore; an exhausted run budget raises
        :class:`~repro.robustness.budget.BudgetExceeded` carrying the
        outcome's counters so far."""
        out = ExploreOutcome(verdict="safe")
        rf_signatures: Set[Tuple] = set()
        self.last_signatures = rf_signatures
        try:
            return self._run(out, rf_signatures)
        except BudgetExceeded as exc:
            out.rf_classes = len(rf_signatures)
            exc.partial_stats.update(out.as_stats())
            raise

    def _run(self, out: ExploreOutcome, rf_signatures: Set[Tuple]) -> ExploreOutcome:
        budget = get_active()
        init = self.interp.initial_state()
        stack: List[_Frame] = [_Frame(init, {})]
        exhausted = True
        iterations = 0

        while stack:
            iterations += 1
            if iterations & 0xFF == 0:
                checkpoint("explore")
            if self._at_bound(out):
                exhausted = False
                break
            frame = stack[-1]
            if frame.enabled is None:
                status = self._open_frame(frame, stack, out, rf_signatures)
                if status == "violation":
                    if out.witness_schedule is None:
                        out.witness_schedule = [
                            f.last for f in stack if f.last is not None
                        ]
                    if self.stop_at_first_violation:
                        out.verdict = "unsafe"
                        out.rf_classes = len(rf_signatures)
                        return out
                    stack.pop()
                    continue
                if status == "leaf":
                    stack.pop()
                    continue
            if not frame.queue:
                tid = self._select(frame)
                if tid is None:
                    stack.pop()
                    continue
                op = frame.enabled[tid]
                frame.done[tid] = op
                if op.kind == "nondet":
                    frame.queue = [(op, v) for v in self.nondet_domain]
                else:
                    frame.queue = [(op, None)]
            op, val = frame.queue.pop(0)
            frame.last = self._describe(op, val)
            frame.taken = op
            child_state = frame.state.clone()
            self.interp.step(child_state, op.tid, val if val is not None else 0)
            frame.taken_cv = child_state.clocks.get(op.tid, {})
            out.transitions += 1
            if budget is not None:
                # One transition is this engine's unit of work.
                budget.charge_conflicts(1, "explore")
            stack.append(_Frame(child_state, self._child_sleep(frame, op)))

        out.rf_classes = len(rf_signatures)
        if out.witness_schedule is not None:
            out.verdict = "unsafe"
        elif not exhausted:
            out.verdict = "unknown"
        elif self._nondet_incomplete():
            # The enumerated nondet domain does not cover the full value
            # range, so exhausting it proves nothing: stay sound.
            out.verdict = "unknown"
        return out

    # ------------------------------------------------------------------

    def _child_sleep(self, frame: _Frame, op: VisibleOp) -> Dict[str, VisibleOp]:
        if self.mode != "dpor":
            return {}
        child_sleep: Dict[str, VisibleOp] = {}
        for q, q_op in frame.sleep.items():
            if q != op.tid and not _dependent(q_op, op):
                child_sleep[q] = q_op
        for q, q_op in frame.done.items():
            if q != op.tid and not _dependent(q_op, op):
                child_sleep[q] = q_op
        return child_sleep

    def _open_frame(self, frame: _Frame, stack, out, rf_signatures):
        """Classify a fresh frame; returns 'leaf', 'violation' or 'expand'."""
        state = frame.state
        ops = self.interp.enabled_ops(state)
        if not ops:
            if self.interp.is_complete(state):
                out.traces += 1
                rf_signatures.add(state.rf_signature())
                if state.violated:
                    return "violation"
            else:
                out.blocked += 1  # deadlock
            return "leaf"
        frame.enabled = {op.tid: op for op in sorted(ops, key=lambda o: o.tid)}
        if self.mode == "naive":
            frame.backtrack = set(frame.enabled)
            return "expand"
        # Source-DPOR: race detection + backtrack seeding.
        for tid, op in frame.enabled.items():
            self._update_backtracks(stack, frame, op, out)
        candidates = [t for t in frame.enabled if t not in frame.sleep]
        if not candidates:
            out.sleep_blocked += 1
            return "leaf"
        frame.backtrack.add(min(candidates))
        return "expand"

    # ------------------------------------------------------------------
    # Source-DPOR race handling
    # ------------------------------------------------------------------

    def _update_backtracks(self, stack, frame: _Frame, op: VisibleOp, out) -> None:
        """Detect races of the pending ``op`` against executed transitions
        and apply the source-set backtrack insertion at each race."""
        if op.addr is None:
            return
        p_clock = frame.state.clocks.get(op.tid, {})
        for j in range(len(stack) - 2, -1, -1):
            taken = stack[j].taken
            if (
                taken is None
                or taken.tid == op.tid
                or not _addr_dependent(taken, op)
            ):
                continue
            if j + 1 <= p_clock.get(taken.tid, 0):
                continue  # happens-before op's thread: ordered, not a race
            out.races += 1
            self._insert_backtrack(stack, j, frame, op)

    def _insert_backtrack(self, stack, j: int, frame: _Frame, op: VisibleOp) -> None:
        """The source-set condition: ensure some weak initial of
        ``notdep(d, E)·op`` is in backtrack(pre(d))."""
        d = stack[j].taken
        d_tid, d_pos = d.tid, j + 1
        # v: executed events after d that are not causally after d.
        v: List[Tuple[int, str, Dict[str, int], VisibleOp]] = []
        for k in range(j + 1, len(stack) - 1):
            w = stack[k].taken
            w_cv = stack[k].taken_cv
            if w_cv.get(d_tid, 0) >= d_pos:
                continue  # happens-after d
            v.append((k + 1, w.tid, w_cv, w))
        # Weak initials of v·op.
        initials: Set[str] = set()
        seen_threads: Set[str] = set()
        for idx, (_pos, tid, cv, _w) in enumerate(v):
            if tid in seen_threads:
                continue
            seen_threads.add(tid)
            if all(cv.get(u_tid, 0) < u_pos for u_pos, u_tid, _ucv, _u in v[:idx]):
                initials.add(tid)
        if op.tid not in seen_threads:
            e_cv = frame.state.clocks.get(op.tid, {})
            if all(
                e_cv.get(u_tid, 0) < u_pos and not _addr_dependent(u, op)
                for u_pos, u_tid, _ucv, u in v
            ):
                initials.add(op.tid)
        if not initials:
            initials = {op.tid}
        target = stack[j]
        if initials & target.backtrack:
            return  # already covered
        q = op.tid if op.tid in initials else min(initials)
        if q in target.enabled:
            target.backtrack.add(q)
        else:
            # The chosen initial is not schedulable at pre(d) (e.g. it was
            # lock-blocked): fall back to all enabled threads (FG-style).
            target.backtrack.update(target.enabled)

    def _select(self, frame: _Frame) -> Optional[str]:
        for tid in sorted(frame.backtrack):
            if tid in frame.done or tid not in frame.enabled:
                continue
            if self.mode == "dpor" and tid in frame.sleep:
                continue  # covered by an equivalent explored sibling
            return tid
        return None

    # ------------------------------------------------------------------

    def _at_bound(self, out: ExploreOutcome) -> bool:
        """The enumeration bounds (``max_traces`` / ``max_transitions``)
        reached: the outcome is ``"unknown"``."""
        if self.max_traces is not None and out.traces >= self.max_traces:
            return True
        return (
            self.max_transitions is not None
            and out.transitions >= self.max_transitions
        )

    def _nondet_incomplete(self) -> bool:
        prog = self.interp.prog
        return prog.uses_nondet and len(set(self.nondet_domain)) < (1 << prog.width)

    @staticmethod
    def _describe(op: VisibleOp, val: Optional[int]) -> str:
        if op.kind == "nondet":
            return f"{op.tid}: nondet={val}"
        if op.addr is not None:
            return f"{op.tid}: {op.kind} {op.addr}"
        return f"{op.tid}: {op.kind}"


def verify_stateless(program, config, telemetry=None) -> VerificationResult:
    """The ``smc-rfsc`` / ``smc-genmc`` runner.  ``traces`` is the DPOR
    trace count for ``smc-rfsc`` and the reads-from class count -- what
    GenMC's exploration is proportional to -- for ``smc-genmc``."""
    checkpoint("engine")
    compiled = compile_program(program, width=config.width, unwind=config.unwind)
    outcome = Explorer(compiled, mode="dpor").run()
    stats = outcome.as_stats()
    if config.engine == "smc-genmc":
        stats["traces"] = outcome.rf_classes or outcome.traces
    return VerificationResult(
        outcome.verdict,
        config.name,
        schedule=outcome.witness_schedule,
        stats=stats,
    )
