"""Supervision tests for the shared worker pool behind the service.

The end-to-end pool behavior (recycling, death recovery) is exercised in
``test_service_e2e.py``.  The drain-vs-reap cases here pin down the
*race* between a retiring worker's final DONE message and the reaper
observing its process dead -- the completed job's real payload must win
over the death diagnosis.  The hang case runs the service job function on
a real pool whose worker is SIGSTOPped mid-job.
"""

import functools
import multiprocessing
import threading
import time
from concurrent.futures import Future

import pytest

from repro.robustness.pool import CONTEXT, WorkerPool, _Job
from repro.service.workers import run_job
from tests.verify.programs import LOST_UPDATE_UNSAFE


class _DeadProc:
    """Stands in for a worker process that has already exited."""

    exitcode = 0

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


def _bare_pool() -> WorkerPool:
    """A WorkerPool shell with no real processes or collector thread --
    just the state ``_reap_dead`` / ``_handle_message`` operate on."""
    pool = WorkerPool.__new__(WorkerPool)
    pool._lock = threading.Lock()
    pool._jobs = {}
    pool._procs = {}
    pool._conns = {}
    pool._slots = {}
    pool._beats = {}
    pool.recycles = 0
    pool.jobs_done = 0
    pool.term_grace_s = 0.1
    pool._closed = False
    pool._sealed = False
    pool._spawn = lambda: None  # no real replacements in this test
    return pool


def _dead_worker(pool, wid, messages=(), claimed=0):
    """Register an exited worker whose pipe still holds ``messages``."""
    reader, writer = CONTEXT.Pipe(duplex=False)
    for message in messages:
        writer.send(message)
    writer.close()
    pool._procs[wid] = _DeadProc()
    pool._conns[wid] = reader
    pool._slots[wid] = CONTEXT.Value("q", claimed, lock=False)


def _job(pool, job_id, wid=None):
    fut = Future()
    job = pool._jobs[job_id] = _Job(fut, time.time())
    job.wid = wid
    return fut


class TestReapDead:
    def test_queued_done_message_wins_over_death_diagnosis(self):
        """A retiring worker exits right after writing its DONE; if the
        reaper runs before the collector read that message, the job must
        still resolve with its real result, not 'worker died mid-job'."""
        pool = _bare_pool()
        fut = _job(pool, 7, wid=1)
        payload = {"result": {"verdict": "safe"}, "retire": "jobs"}
        _dead_worker(pool, 1, [(7, "done", payload, 0.0)])

        pool._reap_dead()

        assert fut.done()
        assert fut.result()["result"]["verdict"] == "safe"
        assert "error" not in fut.result()
        # The retirement was honored exactly once (via the DONE message,
        # not a second time via the death path).
        assert pool.recycles == 1
        assert pool.jobs_done == 1
        assert pool._jobs == {} and pool._procs == {}

    def test_truly_dead_worker_still_fails_its_job(self):
        """With nothing in its pipe, a dead worker's in-flight job
        resolves to the died-mid-job error."""
        pool = _bare_pool()
        fut = _job(pool, 9, wid=2)
        _dead_worker(pool, 2)

        pool._reap_dead()

        assert fut.done()
        assert "worker died mid-job" in fut.result()["error"]
        assert "without reporting" in fut.result()["error"]
        assert pool.recycles == 1

    def test_claim_slot_attributes_a_job_whose_start_never_came(self):
        """A worker killed between claiming a job and reporting START is
        found through its shared-memory slot."""
        pool = _bare_pool()
        fut = _job(pool, 11)  # no START seen: not assigned to any worker
        _dead_worker(pool, 3, claimed=11)

        pool._reap_dead()

        assert "worker died mid-job" in fut.result()["error"]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault env propagation requires fork",
)
@pytest.mark.timeout(120)
class TestHangDetection:
    def test_sigstopped_service_job_fails_as_hung_and_is_replaced(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "sigstop@service_worker")
        pool = WorkerPool(
            functools.partial(run_job, None),
            size=1,
            hang_timeout_s=1.0,
            heartbeat_s=0.1,
            term_grace_s=0.5,
        )
        try:
            monkeypatch.delenv("REPRO_FAULTS")  # replacements fork clean
            stopped = list(pool._procs.values())
            _, fut, _ = pool.submit(LOST_UPDATE_UNSAFE, None, None)
            assert "hung" in fut.result(timeout=60)["error"]
            # The job fails first; the kill and the replacement follow.
            deadline = time.monotonic() + 30.0
            while pool.recycles < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.recycles == 1
            assert not stopped[0].is_alive()
            # The replacement serves the next job.
            _, fut, _ = pool.submit(LOST_UPDATE_UNSAFE, None, None)
            assert fut.result(timeout=60)["result"]["verdict"] == "unsafe"
            assert pool.alive() == 1
        finally:
            pool.shutdown()


def _echo(x):
    return {"x": x}


class TestSeal:
    def test_sealed_pool_replaces_only_while_jobs_wait(self):
        """A finite job set on single-use workers: the worker that takes
        the last job leaves no replacement behind."""
        pool = WorkerPool(_echo, size=2, recycle_after=1)
        try:
            futures = [pool.submit(i)[1] for i in range(3)]
            pool.seal()
            assert [f.result(timeout=60)["x"] for f in futures] == [0, 1, 2]
            deadline = time.monotonic() + 30.0
            while pool.recycles < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.recycles == 3
            # One replacement was forked, for the third job, and none
            # outlives the job set.
            assert len(pool._procs) == 0
            assert next(pool._wids) == 4
        finally:
            pool.shutdown()
