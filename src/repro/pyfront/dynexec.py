"""Concrete execution of the original Python file under a controlled
cooperative scheduler -- differential confirmation of UNSAFE verdicts.

The translated model (:mod:`repro.pyfront.translate`) is what the
symbolic engines verify; this module closes the loop by running the
*real* program text under the *real* interpreter and searching for the
assertion failure concretely, in the stateless-model-checking tradition:

* the file is ``exec``-ed with shimmed ``threading``/``random`` modules
  (injected through ``__import__``; ``sys.modules`` is never touched);
* every user thread -- including the ``__main__`` block, which runs in
  its own worker so it schedules uniformly -- is a real OS thread, but a
  token-passing scheduler enforces that exactly one runs at a time;
* ``sys.settrace`` (per-thread) with **opcode-level** events inside the
  user file yields control at every bytecode of a shared-access line
  (the translator's ``shared_lines``), so even single-line races like
  ``counter += 1`` -- one ``LOAD``, one ``STORE`` -- are interleavable;
  at each yield point a seeded coin picks the next thread, and blocking
  operations (``join``, lock ``acquire``) hand the token over with
  deadlock detection;
* the witness-guided trial replays a symbolic witness access by access
  (:func:`repro.pyfront.witness.witness_guide`): its decision points are
  the instructions that load or store a shared global, recognised from
  ``f_lasti`` through a per-code-object ``dis`` table, and lock
  acquire/release.  A thread performs a witnessed access only when it is
  the guide's head; in between, threads run freely up to their next
  access, and ``random.randint`` returns the model's values.  When the
  run stops matching the guide, the divergence is noted and the trial
  goes on under the seeded coin.

Trials are deterministic in ``(seed, trial)``.  A trial "confirms" when
an ``AssertionError`` escapes user code; the failing schedule (thread
name per scheduling decision) is reported so the run can be replayed.
"""

from __future__ import annotations

import builtins as _builtins_mod
import dis
import random as _random_mod
import sys
import threading as _real_threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.pyfront.translate import Translation
from repro.pyfront.witness import GuideStep, witness_guide
from repro.verify.witness import Trace

__all__ = ["TrialOutcome", "ConfirmResult", "run_trial", "confirm"]

#: Bytecode-yield budget per trial: generous for bounded corpus-sized
#: programs, a hard stop for livelocked spin loops.
_DEFAULT_MAX_STEPS = 50_000
_DEFAULT_SWITCH_PROB = 0.35

#: Instructions that read or write a name, by access kind.
_ACCESS_KIND = {
    "LOAD_GLOBAL": "R", "LOAD_NAME": "R",
    "STORE_GLOBAL": "W", "STORE_NAME": "W",
}
#: One shared access an instruction performs: (R/W, global name).
_Access = Tuple[str, str]


class _TrialAbort(BaseException):
    """Raised inside user threads to tear a trial down (BaseException so
    user-level ``except Exception`` cannot swallow it -- not that the
    subset admits ``try``)."""


@dataclass
class TrialOutcome:
    """One concrete execution attempt."""

    failed: bool = False  # an AssertionError escaped user code
    error: str = ""  # assertion message / engine-level trial problem
    line: Optional[int] = None  # Python line of the failing assert
    deadlocked: bool = False
    exhausted: bool = False  # step budget ran out (livelock guard)
    schedule: Tuple[str, ...] = ()  # thread chosen at each decision
    #: Guided trial: "diverged at step k of n: why" once the run stopped
    #: matching the witness ("" while it matched).
    divergence: str = ""
    #: Guided trial: the witness accesses replayed, as (thread, R/W, name).
    replayed: Tuple[Tuple[str, str, str], ...] = ()


@dataclass
class ConfirmResult:
    """Outcome of a :func:`confirm` search across trials."""

    confirmed: bool
    trials_run: int = 0
    failing_trial: Optional[int] = None  # -1 = the witness-guided trial
    outcome: Optional[TrialOutcome] = None
    problems: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.confirmed


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


class _Scheduler:
    """Token-passing cooperative scheduler over real threads.

    Exactly one registered thread holds the token (``self.current``).
    Threads yield at trace-hook pause points, at blocking operations
    and, in a guided trial, at shared accesses; the scheduler picks the
    successor -- by the witness guide while the run matches it,
    seeded-random otherwise.
    """

    def __init__(
        self,
        rng: _random_mod.Random,
        switch_prob: float,
        max_steps: int,
        deadline: float,
        guide: Sequence[GuideStep] = (),
    ) -> None:
        self.cond = _real_threading.Condition()
        self.rng = rng
        self.switch_prob = switch_prob
        self.max_steps = max_steps
        self.deadline = deadline
        self.current: Optional[str] = None
        self.registered: List[str] = []
        self.started: set = set()
        self.finished: set = set()
        self.blocked: Dict[str, Callable[[], bool]] = {}
        self.abort = False
        self.outcome = TrialOutcome()
        self.steps = 0
        self.schedule: List[str] = []
        #: Witness guidance: the accesses still to replay, in order.
        self.guide: List[GuideStep] = list(guide)
        self.guide_total = len(self.guide)
        #: True while the run matches a non-empty guide.
        self.guided = bool(self.guide)
        #: Threads waiting at a witnessed access for their turn.
        self.parked: set = set()
        self.replayed: List[Tuple[str, str, str]] = []

    # Callers hold ``self.cond``.

    def _runnable(self, exclude: Optional[str] = None) -> List[str]:
        out = []
        for tid in self.registered:
            if tid == exclude or tid in self.finished or tid not in self.started:
                continue
            pred = self.blocked.get(tid)
            if pred is not None and not pred():
                continue
            out.append(tid)
        return out

    def _choose(self, tid: str, at_yield_point: bool) -> str:
        """The next token holder, given that ``tid`` is yielding."""
        runnable = self._runnable()
        if tid in self.blocked and not self.blocked[tid]():
            runnable = [t for t in runnable if t != tid]
            if not runnable:
                self.outcome.deadlocked = True
                self._do_abort()
                raise _TrialAbort()
        if not runnable:  # tid itself is the only choice
            return tid
        if self.guided:
            nxt = self._guided_choice(tid, runnable)
            if nxt is not None:
                return nxt
        if tid in runnable and (
            not at_yield_point or self.rng.random() >= self.switch_prob
        ):
            return tid
        return self.rng.choice(runnable)

    def _guided_choice(
        self, tid: Optional[str], runnable: List[str]
    ) -> Optional[str]:
        """The thread that moves the guide on: its head's thread if it
        can run, else a thread that is not parked (it runs up to its
        next access); None once the guide cannot be followed."""
        head = self.guide[0].thread
        if head in runnable:
            return head
        if head in self.finished:
            return self._diverge(f"{head} has finished")
        free = [t for t in runnable if t not in self.parked]
        if tid in free:
            return tid
        if free:
            return free[0]
        state = "is blocked" if head in self.started else "has not started"
        return self._diverge(
            f"no thread can reach its next access ({head} {state})"
        )

    def _diverge(self, why: str) -> None:
        """The run no longer matches the guide: note where, drop it."""
        step = self.guide_total - len(self.guide) + 1
        self.outcome.divergence = (
            f"diverged at step {step} of {self.guide_total}: {why}"
        )
        self.guide.clear()
        self.guided = False
        return None

    def _match(
        self, tid: str, kind: str, loc: str, line: Optional[int]
    ) -> Optional[int]:
        """Index in the guide of the entry ``tid``'s access replays.

        The model evaluates both sides of ``and``/``or`` and reads the
        middle of a chained comparison twice, so witnessed reads the
        thread did not perform are dropped on the way to the match.
        """
        skipped: List[int] = []
        for i, step in enumerate(self.guide):
            if step.thread != tid:
                continue
            if step.kind == kind and step.loc == loc and (
                line is None or step.line == line
            ):
                for j in reversed(skipped):
                    del self.guide[j]
                return i - len(skipped)
            if step.kind != "R":
                break
            skipped.append(i)
        where = "" if line is None else f" at line {line}"
        return self._diverge(
            f"{tid} {kind} {loc}{where} is not its next witnessed access"
        )

    def _switch_to(self, nxt: str, tid: str) -> None:
        if nxt != self.current:
            self.current = nxt
            self.schedule.append(nxt)
            self.cond.notify_all()
        while self.current != tid and not self.abort:
            self.cond.wait(0.5)
            self._check_deadline()
        if self.abort:
            raise _TrialAbort()

    def _check_deadline(self) -> None:
        if time.monotonic() > self.deadline:
            self.outcome.exhausted = True
            self._do_abort()
            raise _TrialAbort()

    def _count_step(self) -> None:
        if self.abort:
            raise _TrialAbort()
        self.steps += 1
        if self.steps > self.max_steps:
            self.outcome.exhausted = True
            self._do_abort()
            raise _TrialAbort()
        self._check_deadline()

    def _do_abort(self) -> None:
        self.abort = True
        self.cond.notify_all()

    # -- entry points (acquire the lock themselves) ---------------------

    def register(self, tid: str) -> None:
        with self.cond:
            self.registered.append(tid)

    def mark_started(self, tid: str) -> None:
        with self.cond:
            self.started.add(tid)

    def wait_for_token(self, tid: str) -> None:
        """A freshly-started thread parks until it is scheduled."""
        with self.cond:
            while self.current != tid and not self.abort:
                self.cond.wait(0.5)
                self._check_deadline()
            if self.abort:
                raise _TrialAbort()

    def pause(self, tid: str) -> None:
        """A preemption point: maybe hand the token to another thread."""
        with self.cond:
            self._count_step()
            nxt = self._choose(tid, at_yield_point=True)
            self._switch_to(nxt, tid)

    def access(
        self,
        tid: str,
        kind: str,
        loc: str,
        line: Optional[int],
        peek: Optional[Callable[[], int]] = None,
    ) -> None:
        """``tid`` is about to read or write ``loc``; ``peek`` gives the
        value a read would see now.

        In a guided trial the access waits until its witness step heads
        the guide and then consumes it; ``line`` None matches any line
        (lock operations).  Outside guidance this is a no-op.
        """
        with self.cond:
            if not self.guided:
                return
            self._count_step()
            while self.guided:
                i = self._match(tid, kind, loc, line)
                if i is None:
                    return
                if i == 0:
                    step = self.guide[0]
                    value = None if peek is None else peek()
                    if value is not None and value != step.value:
                        self._diverge(
                            f"{tid} read {loc} = {value}, the witness "
                            f"read {step.value}"
                        )
                        return
                    self.guide.pop(0)
                    self.replayed.append((tid, kind, loc))
                    self.guided = bool(self.guide)
                    return
                self.parked.add(tid)
                try:
                    nxt = self._choose(tid, at_yield_point=False)
                    if nxt == tid and self.guided:
                        self._diverge("no thread can reach its next access")
                    self._switch_to(nxt, tid)
                finally:
                    self.parked.discard(tid)

    def block_until(self, tid: str, pred: Callable[[], bool]) -> None:
        """Yield the token until ``pred`` holds (join / lock acquire)."""
        with self.cond:
            while not pred():
                if self.abort:
                    raise _TrialAbort()
                self.blocked[tid] = pred
                try:
                    nxt = self._choose(tid, at_yield_point=False)
                    self._switch_to(nxt, tid)
                finally:
                    self.blocked.pop(tid, None)

    def finish(self, tid: str) -> None:
        """Thread ``tid`` is done; pass the token on."""
        with self.cond:
            self.finished.add(tid)
            if self.abort:
                return
            if self.guided and all(
                s.kind == "R" for s in self.guide if s.thread == tid
            ):  # witnessed reads the thread skipped (see ``_match``)
                self.guide = [s for s in self.guide if s.thread != tid]
                self.guided = bool(self.guide)
            runnable = self._runnable(exclude=tid)
            if runnable:
                nxt = None
                if self.guided:
                    nxt = self._guided_choice(None, runnable)
                if nxt is None:
                    nxt = self.rng.choice(runnable)
                self.current = nxt
                self.schedule.append(nxt)
            self.cond.notify_all()

    def record_failure(self, message: str, line: Optional[int]) -> None:
        with self.cond:
            if not self.outcome.failed and not self.outcome.error:
                self.outcome.failed = True
                self.outcome.error = message
                self.outcome.line = line
            self._do_abort()

    def record_error(self, message: str) -> None:
        with self.cond:
            if not self.outcome.failed and not self.outcome.error:
                self.outcome.error = message
            self._do_abort()


# ----------------------------------------------------------------------
# Shim modules
# ----------------------------------------------------------------------


class _ShimLock:
    """A scheduler-aware threading.Lock/RLock stand-in.

    The model's lock is a shared cell: acquiring reads 0 and writes 1,
    releasing writes 0 (re-entry into an RLock is invisible to it), so
    those are the lock's witnessed accesses.
    """

    def __init__(self, runner: "_Runner", reentrant: bool) -> None:
        self._runner = runner
        self._sched = runner.sched
        self._reentrant = reentrant
        self._holder: Optional[str] = None
        self._count = 0

    def acquire(self) -> bool:
        tid = _current_tid()
        if self._reentrant and self._holder == tid:
            self._count += 1
            return True
        if self._sched.guided:
            name = self._runner.global_name(self)
            self._sched.access(
                tid, "R", name, None, lambda: int(self._holder is not None)
            )
            self._sched.access(tid, "W", name, None)
        self._sched.block_until(tid, lambda: self._holder is None)
        self._holder = tid
        self._count = 1
        return True

    def release(self) -> None:
        tid = _current_tid()
        if self._holder != tid:
            raise RuntimeError("release of un-acquired lock")
        if self._count == 1 and self._sched.guided:
            name = self._runner.global_name(self)
            self._sched.access(tid, "W", name, None)
        self._count -= 1
        if self._count == 0:
            self._holder = None

    def __enter__(self) -> "_ShimLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


_tls = _real_threading.local()


def _current_tid() -> str:
    return getattr(_tls, "tid", "main")


class _ShimThread:
    """threading.Thread stand-in running the target under the scheduler."""

    def __init__(self, runner: "_Runner", target: Callable[[], None]) -> None:
        self._runner = runner
        self.tid = runner.next_thread_name()
        self._target = target
        self._finished = False
        runner.sched.register(self.tid)
        self._real = _real_threading.Thread(
            target=self._run, name=f"dynexec:{self.tid}", daemon=True
        )

    def _run(self) -> None:
        _tls.tid = self.tid
        sched = self._runner.sched
        sys.settrace(self._runner.trace_fn)
        try:
            sched.wait_for_token(self.tid)
            self._target()
        except _TrialAbort:
            pass
        except AssertionError as exc:
            sched.record_failure(
                f"AssertionError: {exc}" if str(exc) else "AssertionError",
                _user_line(self._runner.path),
            )
        except BaseException as exc:  # translator bugs, shim misuse
            sched.record_error(f"{type(exc).__name__}: {exc}")
        finally:
            sys.settrace(None)
            self._finished = True
            sched.finish(self.tid)

    def start(self) -> None:
        sched = self._runner.sched
        sched.mark_started(self.tid)
        self._real.start()
        self._runner.real_threads.append(self._real)
        # Starting is itself a decision point: the child may run first.
        sched.pause(_current_tid())

    def join(self) -> None:
        sched = self._runner.sched
        sched.block_until(_current_tid(), lambda: self._finished)
        self._real.join(timeout=5.0)

    def is_alive(self) -> bool:
        return self._real.is_alive()


def _user_line(path: str) -> Optional[int]:
    """The innermost traceback line inside the user file."""
    tb = sys.exc_info()[2]
    line = None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == path:
            line = tb.tb_lineno
        tb = tb.tb_next
    return line


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


class _Runner:
    def __init__(
        self,
        translation: Translation,
        sched: _Scheduler,
        nondet_hints: Dict[str, List[int]],
    ) -> None:
        self.translation = translation
        self.path = translation.path
        self.sched = sched
        self.nondet_hints = nondet_hints
        self._thread_counter = 0
        self.shared_lines = translation.shared_lines
        self.shared_globals = frozenset(translation.shared_globals)
        #: Real OS threads started by shim Threads, for end-of-trial
        #: cleanup (stragglers are aborted, never leaked across trials).
        self.real_threads: List[_real_threading.Thread] = []
        #: The exec'ed module's globals (set by :func:`run_trial`).
        self.globals: Dict[str, object] = {}
        #: code object -> {instruction offset: (R/W, shared global)}.
        self._access_tables: Dict[types.CodeType, Dict[int, _Access]] = {}

    def next_thread_name(self) -> str:
        order = self.translation.thread_order
        idx = self._thread_counter
        self._thread_counter += 1
        if idx < len(order):
            return order[idx].name
        return f"thread{idx}"

    def global_name(self, obj: object) -> str:
        """The module global bound to ``obj`` (a lock's Python name)."""
        for name in self.translation.locks:
            if self.globals.get(name) is obj:
                return name
        return "?"

    def _accesses(self, code: types.CodeType) -> Dict[int, _Access]:
        table = self._access_tables.get(code)
        if table is None:
            table = {
                ins.offset: (_ACCESS_KIND[ins.opname], ins.argval)
                for ins in dis.get_instructions(code)
                if ins.opname in _ACCESS_KIND
                and ins.argval in self.shared_globals
            }
            self._access_tables[code] = table
        return table

    # -- the per-thread trace function ---------------------------------

    def trace_fn(self, frame, event, arg):
        if frame.f_code.co_filename != self.path:
            return None  # never trace into shims or library code
        frame.f_trace_opcodes = True
        if event == "opcode" or event == "line":
            if frame.f_lineno in self.shared_lines:
                if not self.sched.guided:
                    self.sched.pause(_current_tid())
                elif event == "opcode":
                    self._guided_access(frame)
        return self.trace_fn

    def _guided_access(self, frame) -> None:
        """Hand the shared load or store about to run to the guide."""
        access = self._accesses(frame.f_code).get(frame.f_lasti)
        if access is None:
            return
        kind, name = access
        glb = frame.f_globals
        peek = (lambda: glb.get(name)) if kind == "R" else None
        self.sched.access(_current_tid(), kind, name, frame.f_lineno, peek)

    # -- shim module construction --------------------------------------

    def make_modules(self) -> Dict[str, types.ModuleType]:
        runner = self

        threading_mod = types.ModuleType("threading")

        def _Thread(target=None, args=(), kwargs=None, **extra):
            if target is None:
                raise TypeError("Thread requires target=")
            return _ShimThread(runner, target)

        threading_mod.Thread = _Thread
        threading_mod.Lock = lambda: _ShimLock(runner, reentrant=False)
        threading_mod.RLock = lambda: _ShimLock(runner, reentrant=True)

        random_mod = types.ModuleType("random")

        def _randint(lo: int, hi: int) -> int:
            hints = runner.nondet_hints.get(_current_tid())
            if hints:
                return max(lo, min(hi, hints.pop(0)))
            return runner.sched.rng.randint(lo, hi)

        random_mod.randint = _randint
        return {"threading": threading_mod, "random": random_mod}


def _hints_from_witness(trace: Trace) -> Dict[str, List[int]]:
    """Per-thread randint values, in static program order (matching the
    translator's one-``randint``-per-``nondet`` discipline)."""
    hints: Dict[str, List[int]] = {}
    for thread, _ssa, value in trace.nondet_values:
        hints.setdefault(thread, []).append(value)
    return hints


def run_trial(
    translation: Translation,
    seed: int = 0,
    witness: Optional[Trace] = None,
    switch_prob: float = _DEFAULT_SWITCH_PROB,
    max_steps: int = _DEFAULT_MAX_STEPS,
    deadline_s: float = 10.0,
) -> TrialOutcome:
    """One concrete execution of the program under the scheduler.

    With ``witness``, the run replays the witness's shared accesses in
    order and ``random.randint`` returns the model's nondet values; where
    the run stops matching, ``divergence`` says so and scheduling goes
    on seeded-random.  Deterministic in all arguments.
    """
    rng = _random_mod.Random(seed)
    guide = witness_guide(translation, witness) if witness is not None else ()
    sched = _Scheduler(
        rng, switch_prob, max_steps, time.monotonic() + deadline_s, guide
    )
    hints = _hints_from_witness(witness) if witness is not None else {}
    runner = _Runner(translation, sched, hints)

    modules = runner.make_modules()
    real_import = __import__

    def _import(name, globals=None, locals=None, fromlist=(), level=0):
        if name in modules:
            return modules[name]
        return real_import(name, globals, locals, fromlist, level)

    builtins_dict = dict(vars(_builtins_mod))
    builtins_dict["__import__"] = _import
    # The model treats print as a no-op; keep trials quiet to match.
    builtins_dict["print"] = lambda *a, **k: None
    glb = {
        "__name__": "__main__",
        "__file__": translation.path,
        "__builtins__": builtins_dict,
    }
    runner.globals = glb
    code = compile(translation.source, translation.path, "exec")

    sched.register("main")
    sched.mark_started("main")
    sched.current = "main"

    def _main() -> None:
        _tls.tid = "main"
        sys.settrace(runner.trace_fn)
        try:
            exec(code, glb)
        except _TrialAbort:
            pass
        except AssertionError as exc:
            sched.record_failure(
                f"AssertionError: {exc}" if str(exc) else "AssertionError",
                _user_line(translation.path),
            )
        except BaseException as exc:
            sched.record_error(f"{type(exc).__name__}: {exc}")
        finally:
            sys.settrace(None)
            sched.finish("main")

    main_thread = _real_threading.Thread(
        target=_main, name="dynexec:main", daemon=True
    )
    main_thread.start()
    main_thread.join(timeout=deadline_s + 5.0)
    if main_thread.is_alive():
        # Wedged beyond the in-band deadline: abort and report.
        with sched.cond:
            sched.outcome.exhausted = True
            sched._do_abort()
        main_thread.join(timeout=5.0)
        if not sched.outcome.error:
            sched.outcome.error = "trial wall deadline exceeded"
    # Release any stragglers (threads started but never joined, or
    # parked waiting for a token that will never come).
    with sched.cond:
        sched._do_abort()
    for t in runner.real_threads:
        t.join(timeout=2.0)
    sched.outcome.schedule = tuple(sched.schedule)
    sched.outcome.replayed = tuple(sched.replayed)
    return sched.outcome


def confirm(
    translation: Translation,
    witness: Optional[Trace] = None,
    trials: int = 50,
    seed: int = 0,
    switch_prob: float = _DEFAULT_SWITCH_PROB,
    max_steps: int = _DEFAULT_MAX_STEPS,
    deadline_s: float = 10.0,
) -> ConfirmResult:
    """Search for a concrete assertion failure.

    Trial -1 (when a witness is given) replays the witness access by
    access, and its divergence, if any, is noted in ``problems``; the
    remaining ``trials`` executions explore randomized schedules, each
    deterministic in ``(seed, trial index)``.  Stops at the first
    failing execution.
    """
    problems: List[str] = []
    run = 0
    if witness is not None:
        outcome = run_trial(
            translation, seed=seed, witness=witness,
            switch_prob=switch_prob, max_steps=max_steps,
            deadline_s=deadline_s,
        )
        run += 1
        if outcome.divergence:
            problems.append(f"guided trial {outcome.divergence}")
        if outcome.failed:
            return ConfirmResult(True, run, -1, outcome, problems)
        if outcome.error:
            problems.append(f"guided trial: {outcome.error}")
    for i in range(trials):
        outcome = run_trial(
            translation, seed=seed * 1_000_003 + i + 1,
            switch_prob=switch_prob, max_steps=max_steps,
            deadline_s=deadline_s,
        )
        run += 1
        if outcome.failed:
            return ConfirmResult(True, run, i, outcome, problems)
        if outcome.deadlocked and "deadlock" not in " ".join(problems):
            problems.append(f"trial {i}: deadlocked")
        elif outcome.error and len(problems) < 5:
            problems.append(f"trial {i}: {outcome.error}")
    return ConfirmResult(False, run, None, None, problems)
