"""Concrete confirmation: the cooperative randomized scheduler and the
witness-guided trial."""

import textwrap

import pytest

from repro import api
from repro.pyfront import translate_file, translate_source
from repro.pyfront.dynexec import confirm, run_trial

from tests.pyfront.corpus import example


def test_racy_counter_is_confirmed():
    translation = translate_file(example("counter_unsafe.py"))
    result = confirm(translation, trials=60, seed=0)
    assert result.confirmed, result.problems
    assert result.outcome is not None
    assert result.outcome.failed


def test_single_line_augassign_race_is_confirmed():
    # `counter += 1` is one Python line; only opcode-level preemption
    # can interleave its LOAD/STORE halves.
    translation = translate_file(example("augassign_unsafe.py"))
    result = confirm(translation, trials=80, seed=0)
    assert result.confirmed, result.problems


def test_locked_counter_is_not_confirmed():
    translation = translate_file(example("counter_lock_safe.py"))
    result = confirm(translation, trials=40, seed=0)
    assert not result.confirmed
    assert result.trials_run == 40


def test_failure_reports_python_line():
    translation = translate_file(example("counter_unsafe.py"))
    result = confirm(translation, trials=60, seed=0)
    assert result.confirmed
    assert result.outcome.line is not None
    # The failing assert lives inside the file.
    assert 1 <= result.outcome.line <= len(translation.source.splitlines())


def test_trials_are_deterministic_in_seed():
    translation = translate_file(example("counter_unsafe.py"))
    a = run_trial(translation, seed=41)
    b = run_trial(translation, seed=41)
    assert a.failed == b.failed
    assert a.schedule == b.schedule


def test_deadlock_is_detected_not_hung():
    src = textwrap.dedent(
        """\
        import threading

        x = 0
        m = threading.Lock()

        def worker():
            global x
            m.acquire()
            x = 1

        if __name__ == "__main__":
            m.acquire()
            t1 = threading.Thread(target=worker)
            t1.start()
            t1.join()
            assert x == 1
        """
    )
    translation = translate_source(src, filename="deadlock.py")
    outcome = run_trial(translation, seed=0)
    assert outcome.deadlocked
    assert not outcome.failed


def test_trial_ending_before_a_thread_starts_returns_its_outcome():
    # The assert fails while t1 exists but was never started; cleanup
    # must not join a thread that never ran.
    src = textwrap.dedent(
        """\
        import threading

        x = 0

        def worker():
            global x
            x = 1

        if __name__ == "__main__":
            t1 = threading.Thread(target=worker)
            assert x == 1
            t1.start()
        """
    )
    translation = translate_source(src, filename="unstarted.py")
    outcome = run_trial(translation, seed=0)
    assert outcome.failed
    assert outcome.line == 11


def test_guided_trial_replays_the_witness_access_order():
    result, translation = api.verify_python(path=example("counter_unsafe.py"))
    outcome = run_trial(translation, witness=result.witness)
    assert outcome.failed
    assert not outcome.divergence
    assert outcome.replayed == (
        ("t1", "R", "counter"),
        ("t2", "R", "counter"),
        ("t1", "W", "counter"),
        ("t2", "W", "counter"),
        ("main", "R", "counter"),
    )


def test_guided_trial_names_locks_by_their_python_name():
    # The translator renames the mutex `lock` (a mini keyword) to
    # `lock_`; the guide maps it back through the translation.
    result, translation = api.verify_python(path=example("dcl_unsafe.py"))
    assert translation.mini_names["lock"] == "lock_"
    outcome = run_trial(translation, witness=result.witness)
    assert outcome.failed and not outcome.divergence
    assert ("t1", "R", "lock") in outcome.replayed
    assert ("t1", "W", "lock") in outcome.replayed


_SHORT_CIRCUIT_MID = """\
import threading

a = 0
b = 0

def writer():
    global a, b
    a = 1
    b = 2

def reader():
    if a == 1 or b == 5:
        assert 0 < b < 2

if __name__ == "__main__":
    t1 = threading.Thread(target=writer)
    t2 = threading.Thread(target=reader)
    t1.start()
    t2.start()
    t1.join()
    t2.join()
"""

_SHORT_CIRCUIT_LAST = """\
import threading

a = 0
b = 0
c = 0

def writer():
    global a, b
    a = 1
    b = 2

def reader():
    global c
    c = 1
    if a == 1 or b == 5:
        pass

if __name__ == "__main__":
    t1 = threading.Thread(target=writer)
    t2 = threading.Thread(target=reader)
    t1.start()
    t1.join()
    t2.start()
    t2.join()
    assert c == 0
"""


@pytest.mark.parametrize(
    "src, line",
    [(_SHORT_CIRCUIT_MID, 13), (_SHORT_CIRCUIT_LAST, 25)],
    ids=["mid-thread", "thread-end"],
)
def test_guided_trial_skips_reads_python_short_circuits(src, line):
    # The model reads `b` in `a == 1 or b == 5` and twice in
    # `0 < b < 2`; Python reads it once in the assert, and not at all
    # in the `or` once `a == 1` -- also as a thread's last access.
    result, translation = api.verify_python(src, filename="short.py")
    assert result.verdict == "unsafe"
    outcome = run_trial(translation, witness=result.witness)
    assert outcome.failed and not outcome.divergence
    assert outcome.line == line


def test_guide_never_creates_a_failure():
    result, _ = api.verify_python(path=example("counter_unsafe.py"))
    translation = translate_file(example("counter_lock_safe.py"))
    outcome = confirm(translation, witness=result.witness, trials=10, seed=0)
    assert not outcome.confirmed
    assert outcome.trials_run == 11
    assert any(
        p.startswith("guided trial diverged at step ") for p in outcome.problems
    ), outcome.problems
