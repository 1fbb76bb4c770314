"""One supervised pool of worker processes for every multi-process caller.

Verification is CPU-bound pure Python, so parallelism comes from worker
*processes*.  Three callers run them: the verification service
(:mod:`repro.service.workers`), the portfolio race
(:func:`repro.portfolio.verify_portfolio`) and the batch grid
(:func:`repro.portfolio.verify_batch`).  They all run on this pool, so a
supervision fix lands once.  The pool owns:

* **spawn and warm-up** -- workers are forked where ``fork`` exists, so
  they inherit the parent's imports and whatever the job function
  carries; each worker then pre-imports the whole solver stack, so the
  first job on a fresh worker is as fast as the hundredth;
* **the job claim** -- a worker writes the job id into a shared-memory
  slot *before* it reports START (the slot write survives SIGKILL), and
  reports DONE with the payload; both go over the worker's own pipe, so
  a worker killed mid-write can corrupt nothing but its own channel;
* **drain-then-reap** -- a dead worker's pipe is drained before its jobs
  are failed, so a job that reported DONE just before its worker exited
  keeps its real payload;
* **heartbeats and hang detection** -- a worker thread posts heartbeats
  while a job runs; a busy worker silent for ``hang_timeout_s`` (deadlock,
  SIGSTOP, runaway C loop) is declared hung, its job fails, and the
  worker is killed and replaced;
* **kill escalation** -- :func:`terminate` (SIGTERM, ``term_grace_s``,
  SIGKILL) is the one way the pool stops a process: hang kills,
  cancellation, retirement and shutdown;
* **recycling** -- a worker retires after ``recycle_after`` jobs, after a
  job that raised, or when its job function asks (a ``"retire"`` entry in
  the payload), and a replacement is spawned.

The job function is fixed when the pool is built.  It must be picklable
(a :func:`functools.partial` can carry fork-inherited resources such as
queues) and returns a payload dict.  :meth:`WorkerPool.submit` returns a
:class:`concurrent.futures.Future` that resolves to that payload plus
``queue_wait_s``; a job that raised, or whose worker died or hung,
resolves to ``{"error": diagnostic}`` instead.  Only :meth:`shutdown`
fails futures with an exception.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, Optional

__all__ = ["CONTEXT", "WorkerPool", "post", "terminate"]

#: Fork where the platform has it: workers inherit imports and the job
#: function's resources instead of re-importing and unpickling them.
CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)

#: Defaults shared by every caller.
HANG_TIMEOUT_S = 30.0
HEARTBEAT_S = 0.2
TERM_GRACE_S = 5.0

#: Longest the collector sleeps between hang checks.
_TICK_S = 0.2

# ``concurrent.futures`` and ``multiprocessing.connection`` are imported
# where they are used: ``import repro`` loads this module, and in-process
# callers never build a pool.

#: Message kinds on a worker's pipe: ``(job_id, kind, payload, wall_ts)``.
_START = "start"
_BEAT = "beat"
_POST = "post"
_DONE = "done"


def terminate(procs: Iterable, grace_s: float = TERM_GRACE_S) -> None:
    """Stop processes: SIGTERM every live one, give them ``grace_s`` to
    exit together, SIGKILL the rest.  A stopped (SIGSTOPped) process keeps
    its SIGTERM pending, so it always reaches the SIGKILL."""
    live = [p for p in procs if p.is_alive()]
    for proc in live:
        proc.terminate()
    deadline = time.monotonic() + grace_s
    for proc in live:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in live:
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)


def _wait_ready(objects, timeout):
    """:func:`multiprocessing.connection.wait` (the collector's read)."""
    from multiprocessing.connection import wait

    return wait(objects, timeout)


def _warm_imports() -> None:
    """Import every module a verification job touches: the pipeline, then
    every engine runner and theory encoder of the engine table.

    Ordered roughly by import cost; the point is that the *first* job on
    a fresh worker is as fast as the hundredth.
    """
    import repro.lang.parser  # noqa: F401
    import repro.lang.sema  # noqa: F401
    import repro.frontend.ssa  # noqa: F401
    import repro.analysis.prune  # noqa: F401
    import repro.encoding.encoder  # noqa: F401
    import repro.encoding.bitblast  # noqa: F401
    import repro.sat.solver  # noqa: F401
    import repro.ordering.solver  # noqa: F401
    import repro.ordering.icd  # noqa: F401
    import repro.ordering.tarjan  # noqa: F401
    from repro.verify import registry

    for engine in registry.ENGINES:
        registry.resolve_engine(engine)
    for theory in registry.THEORIES:
        registry.resolve_theory(theory)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: In a worker process: sends one message on the worker's pipe.
_send: Optional[Callable[[tuple], None]] = None


def post(payload: Any) -> None:
    """From inside a job function: hand ``payload`` to the pool's
    ``on_post`` callback in the parent (the portfolio relays learned
    clauses this way)."""
    _send((0, _POST, payload, time.time()))


def _beat(send, busy: threading.Event, heartbeat_s: float, parent: int) -> None:
    """Heartbeat thread: beat every ``heartbeat_s`` while a job runs, and
    end the worker once it is orphaned (the parent was SIGKILLed)."""
    while os.getppid() == parent:
        if busy.wait(timeout=1.0):
            try:
                send((0, _BEAT, None, time.time()))
            except (OSError, ValueError):
                break  # pipe torn down: the parent is gone
            time.sleep(heartbeat_s)
    os._exit(1)


def _detach_signals() -> None:
    """Undo the parent's signal setup in a forked worker.

    A worker forked after the service installed its asyncio signal
    handlers inherits the loop's wakeup fd and its no-op SIGTERM handler
    (Python before 3.12 resets neither at fork): a SIGTERM to the worker
    would be ignored and would write into the *parent's* loop, which reads
    it as a drain signal.  Workers die on SIGTERM and wake no loop.
    """
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # not the main thread (no fork: nothing inherited)
        pass


def _worker_main(
    job_fn, job_q, conn, slot, recycle_after, heartbeat_s, parent
) -> None:
    """Worker process entry point: warm up, then run jobs until retired."""
    global _send
    _detach_signals()
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:  # the heartbeat thread shares the pipe
            conn.send(message)

    _send = send
    busy = threading.Event()
    threading.Thread(
        target=_beat, args=(send, busy, heartbeat_s, parent), daemon=True
    ).start()
    _warm_imports()
    jobs_done = 0
    while True:
        item = job_q.get()
        if item is None:
            return
        job_id, args = item
        # Claim the job in shared memory before reporting START: a worker
        # killed in between still tells the parent which job died with it.
        slot.value = job_id
        send((job_id, _START, None, time.time()))
        busy.set()
        try:
            payload = job_fn(*args)
        except BaseException as exc:  # noqa: BLE001 - report, then retire
            payload = {"error": f"{type(exc).__name__}: {exc}", "retire": "crash"}
        busy.clear()
        jobs_done += 1
        if jobs_done >= recycle_after and not payload.get("retire"):
            payload["retire"] = "jobs"
        send((job_id, _DONE, payload, time.time()))
        # Release the claim only after DONE is written: dying in between
        # leaves the slot set, and drain-then-reap resolves the job from
        # the DONE already in the pipe.
        slot.value = 0
        if payload.get("retire"):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class _Job:
    """Parent-side record of one unresolved job."""

    __slots__ = ("future", "submitted", "queue_wait", "wid")

    def __init__(self, future, submitted: float) -> None:
        self.future = future
        self.submitted = submitted
        self.queue_wait = 0.0
        self.wid: Optional[int] = None


class WorkerPool:
    """A fixed-size pool of supervised worker processes running
    ``job_fn`` (see the module docstring for what it supervises)."""

    def __init__(
        self,
        job_fn: Callable[..., Dict],
        size: int,
        recycle_after: int = 64,
        hang_timeout_s: Optional[float] = HANG_TIMEOUT_S,
        heartbeat_s: float = HEARTBEAT_S,
        term_grace_s: float = TERM_GRACE_S,
        on_post: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if recycle_after < 1:
            raise ValueError(f"recycle_after must be >= 1, got {recycle_after}")
        self.size = size
        self.recycle_after = recycle_after
        self.hang_timeout_s = hang_timeout_s
        self.heartbeat_s = heartbeat_s
        self.term_grace_s = term_grace_s
        self._job_fn = job_fn
        self._on_post = on_post
        self._job_q = CONTEXT.Queue()
        self._lock = threading.Lock()  # guards _jobs (submit vs collector)
        self._jobs: Dict[int, _Job] = {}
        # Per worker: process, result pipe, shared claim slot (the job it
        # holds, 0 = idle) and, while busy, the last sign of life.
        self._procs: Dict[int, Any] = {}
        self._conns: Dict[int, Any] = {}
        self._slots: Dict[int, Any] = {}
        self._beats: Dict[int, float] = {}
        self._job_ids = itertools.count(1)
        self._wids = itertools.count(1)
        #: Workers replaced so far (retirement, death or hang).
        self.recycles = 0
        self.jobs_done = 0
        self._closed = False
        self._sealed = False
        self._wake_r, self._wake_w = CONTEXT.Pipe(duplex=False)
        for _ in range(size):
            self._spawn()
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, *args: Any):
        """Queue ``job_fn(*args)``; returns ``(job_id, future,
        submitted_at)`` with ``submitted_at`` in wall-clock seconds."""
        from concurrent.futures import Future

        fut = Future()
        submitted = time.time()
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            job_id = next(self._job_ids)
            self._jobs[job_id] = _Job(fut, submitted)
        self._job_q.put((job_id, args))
        return job_id, fut, submitted

    def seal(self) -> None:
        """Declare that no more jobs will be submitted: from now on a
        worker that leaves is replaced only while a job waits with no idle
        worker to take it, so a finite job set forks no worker it never
        uses."""
        self._sealed = True

    def alive(self) -> int:
        """Workers currently alive (health/readiness probes)."""
        return sum(1 for p in list(self._procs.values()) if p.is_alive())

    def pending(self) -> int:
        """Jobs submitted but not yet resolved (queued + in flight)."""
        return len(self._jobs)

    def shutdown(self, wait_s: float = 2.0) -> None:
        """Stop the pool.  Idle workers get a sentinel and ``wait_s`` to
        exit; the rest are terminated (``wait_s=0`` cancels running jobs
        at once).  Unresolved futures fail with :class:`RuntimeError`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake_w.send_bytes(b"")
        self._collector.join()
        procs = list(self._procs.values())
        for _ in procs:
            self._job_q.put(None)
        deadline = time.monotonic() + wait_s
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        terminate(procs, self.term_grace_s)
        with self._lock:
            jobs = list(self._jobs.values())
            self._jobs.clear()
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(RuntimeError("worker pool shut down"))
        for conn in list(self._conns.values()) + [self._wake_r, self._wake_w]:
            conn.close()
        self._job_q.close()
        self._job_q.cancel_join_thread()

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------

    def _spawn(self) -> None:
        if self._closed:
            return
        wid = next(self._wids)
        slot = CONTEXT.Value("q", 0, lock=False)
        reader, writer = CONTEXT.Pipe(duplex=False)
        proc = CONTEXT.Process(
            target=_worker_main,
            args=(
                self._job_fn, self._job_q, writer, slot,
                self.recycle_after, self.heartbeat_s, os.getpid(),
            ),
            daemon=True,
            name=f"pool-worker-{wid}",
        )
        proc.start()
        writer.close()  # the worker holds the only write end
        self._procs[wid] = proc
        self._conns[wid] = reader
        self._slots[wid] = slot

    def _collect(self) -> None:
        """Resolve jobs, relay posts, recycle retired workers, reap the
        dead and kill the hung, until :meth:`shutdown`."""
        while not self._closed:
            by_conn = {conn: wid for wid, conn in self._conns.items()}
            sentinels = [p.sentinel for p in self._procs.values()]
            ready = _wait_ready(
                list(by_conn) + sentinels + [self._wake_r], timeout=_TICK_S
            )
            if self._closed:
                return
            for obj in ready:
                wid = by_conn.get(obj)
                if wid is not None and wid in self._conns:
                    self._read(wid)
            self._reap_dead()
            self._kill_hung()

    def _read(self, wid: int) -> None:
        """Handle one message from worker ``wid``'s pipe."""
        try:
            message = self._conns[wid].recv()
        except (EOFError, OSError):
            # The worker exited; the reaper fails whatever it held.
            self._conns.pop(wid).close()
            return
        self._handle_message(wid, *message)

    def _handle_message(self, wid, job_id, kind, payload, wall_ts) -> None:
        if kind == _BEAT:
            if wid in self._beats:
                self._beats[wid] = time.monotonic()
            return
        if kind == _POST:
            if self._on_post is not None:
                self._on_post(payload)
            return
        if kind == _START:
            self._beats[wid] = time.monotonic()
            job = self._jobs.get(job_id)
            if job is not None:
                # Wall-clock queue wait, measured across processes (same
                # machine, same clock).
                job.wid = wid
                job.queue_wait = max(0.0, wall_ts - job.submitted)
            return
        self._beats.pop(wid, None)
        # A retiring worker's replacement is registered before the result
        # is released, so whoever reads it never sees the pool short of a
        # worker; the old process then gets ``term_grace_s`` to exit.
        retired = self._replace(wid) if payload.pop("retire", None) else None
        self._resolve(job_id, payload, completed=True)
        if retired is not None:
            retired.join(timeout=self.term_grace_s)
            terminate([retired], self.term_grace_s)

    def _resolve(self, job_id: int, payload: Dict, completed=False) -> None:
        with self._lock:
            job = self._jobs.pop(job_id, None)
        if job is None or job.future.done():
            return
        payload["queue_wait_s"] = round(job.queue_wait, 6)
        if completed:
            self.jobs_done += 1
        job.future.set_result(payload)

    def _replace(self, wid: int):
        """Drop worker ``wid``, spawn a replacement, and return the dropped
        process (None if it was already gone)."""
        proc = self._procs.pop(wid, None)
        conn = self._conns.pop(wid, None)
        self._slots.pop(wid, None)
        self._beats.pop(wid, None)
        if conn is not None:
            conn.close()
        self.recycles += 1
        if not self._sealed or self._short_of_workers():
            self._spawn()
        return proc

    def _short_of_workers(self) -> bool:
        """Whether more jobs wait (queued, or claimed with START not yet
        read) than there are idle workers to take them."""
        with self._lock:
            waiting = sum(1 for job in self._jobs.values() if job.wid is None)
        idle = sum(
            1 for wid, slot in self._slots.items()
            if wid not in self._beats and slot.value == 0
        )
        return waiting > idle

    def _fail_worker(self, wid: int, error: str) -> None:
        """Fail every job worker ``wid`` holds with ``error``."""
        held = self._slots[wid].value
        with self._lock:
            lost = [
                j for j, job in self._jobs.items() if job.wid == wid or j == held
            ]
        for job_id in lost:
            self._resolve(job_id, {"error": error})

    def _reap_dead(self) -> None:
        """Fail the jobs of workers that died without retiring."""
        dead = [w for w, p in self._procs.items() if not p.is_alive()]
        for wid in dead:
            # A retiring worker exits right after writing DONE, so "dead"
            # can be observed before the message is read.  Drain the pipe
            # first: a completed job keeps its real payload, and its
            # retirement replaces the worker.
            conn = self._conns.get(wid)
            while wid in self._conns and conn.poll():
                self._read(wid)
            if wid not in self._procs:
                continue  # retired via its drained DONE
            proc = self._procs[wid]
            proc.join(timeout=0.5)
            self._fail_worker(
                wid,
                "worker died mid-job without reporting a result "
                f"(exitcode {proc.exitcode})",
            )
            self._replace(wid)

    def _kill_hung(self) -> None:
        """Fail and kill busy workers silent for ``hang_timeout_s``."""
        if self.hang_timeout_s is None:
            return
        now = time.monotonic()
        hung = []
        for wid, slot in self._slots.items():
            # Busy: START seen, or a claimed job whose START never came.
            if wid not in self._beats and slot.value not in self._jobs:
                continue
            silent = now - self._beats.setdefault(wid, now)
            if silent > self.hang_timeout_s:
                hung.append((wid, silent))
        if not hung:
            return
        for wid, silent in hung:
            self._fail_worker(wid, f"worker hung: no heartbeat for {silent:.1f}s")
        terminate([self._procs[wid] for wid, _ in hung], self.term_grace_s)
        for wid, _ in hung:
            self._replace(wid)
