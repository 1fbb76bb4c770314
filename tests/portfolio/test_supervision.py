"""Regression tests for the portfolio race and the batch grid running on
the shared supervised pool: a verdict posted before the parent first looks
is kept, and a dead batch worker becomes an ERROR cell instead of a hang.

Faults are injected through ``REPRO_FAULTS``, which forked workers see."""

import multiprocessing
import time

import pytest

from repro.bench import svcomp_suite
from repro.portfolio import verify_batch, verify_portfolio
from repro.robustness.faults import ENV_VAR
from repro.verify import Verdict
from tests.verify.programs import LOST_UPDATE_UNSAFE

pytestmark = [
    pytest.mark.timeout(60),
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fault env propagation requires fork",
    ),
]


def test_verdicts_posted_before_the_first_read_are_kept(monkeypatch):
    """Hold the parent's first result read until every worker has posted
    its verdict and exited, then report nothing ready (a read that timed
    out).  The reaper must drain the dead workers' pipes first, so the
    race still returns the conclusive verdict."""
    from repro.robustness import pool as pool_mod

    real_wait = pool_mod._wait_ready
    held = []

    def late_first_read(objects, timeout=None):
        if held:
            return real_wait(objects, timeout)
        held.append(True)
        sentinels = [o for o in objects if isinstance(o, int)]
        deadline = time.monotonic() + 30.0
        while sentinels and time.monotonic() < deadline:
            exited = real_wait(sentinels, timeout=1.0)
            sentinels = [s for s in sentinels if s not in exited]
        return []

    monkeypatch.setattr(pool_mod, "_wait_ready", late_first_read)
    outcome = verify_portfolio(LOST_UPDATE_UNSAFE, ["zord", "zord'"], jobs=2)
    assert held
    assert outcome.verdict == Verdict.UNSAFE
    assert outcome.winner is not None
    assert all(run.status != "error" for run in outcome.runs)


def test_dead_batch_worker_becomes_error_cell(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "kill@encode")
    tasks = svcomp_suite()[:2]
    with pytest.warns(RuntimeWarning, match="worker died mid-job") as caught:
        results = verify_batch(tasks, ["zord"], jobs=2)
    assert len(caught) == len(tasks)
    cells = results["zord"]
    assert [cell.task for cell in cells] == [task.name for task in tasks]
    for cell in cells:
        assert cell.verdict == Verdict.ERROR
        assert cell.correct is None
