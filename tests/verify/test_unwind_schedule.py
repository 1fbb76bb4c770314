"""Iterative-deepening BMC (``unwind_schedule``): verdict equivalence with
one-shot solving, per-bound telemetry, and the shallow-bug fast path."""

import pytest

from repro.verify import Verdict, VerifierConfig, verify

from tests.verify.programs import ALL_PROGRAMS

#: A nondet-bounded loop whose assertion already fails when the loop runs
#: twice: the schedule must report SAT at bound 2, not pay the full bound.
SHALLOW_BUG = """
int counter = 0;
thread worker {
    int n; int i; int t;
    n = nondet();
    assume(n <= 8);
    i = 0;
    while (i < n) { t = counter; counter = t + 1; i = i + 1; }
}
main {
    start worker;
    join worker;
    assert(counter < 2);
}
"""

#: Deterministic loop to full depth: every bound below the maximum is
#: UNSAT, so the sweep must run to the deepest bound before deciding.
DEEP_LOOP_SAFE = """
int x = 0;
thread t {
    int i;
    i = 0;
    while (i < 5) { int tmp; tmp = x; x = tmp + 1; i = i + 1; }
}
main { start t; join t; assert(x == 5); }
"""


def _cfg(schedule, **kw):
    return VerifierConfig.zord(unwind_schedule=schedule, **kw)


@pytest.mark.parametrize(
    "name,source,is_safe",
    ALL_PROGRAMS,
    ids=[name for name, _, _ in ALL_PROGRAMS],
)
def test_schedule_matches_oneshot_verdict(name, source, is_safe):
    expected = Verdict.SAFE if is_safe else Verdict.UNSAFE
    oneshot = verify(source, _cfg(()))
    sched = verify(source, _cfg((1, 2, 4, 8)))
    assert oneshot.verdict == expected
    assert sched.verdict == expected


def test_shallow_bug_found_at_shallow_bound():
    result = verify(SHALLOW_BUG, _cfg((1, 2, 4, 8)))
    assert result.verdict == Verdict.UNSAFE
    bounds = result.stats["bounds"]
    assert [b["bound"] for b in bounds] == [1, 2]
    assert bounds[0]["answer"] == "unsat"
    assert bounds[1]["answer"] == "sat"
    assert result.witness is not None

    # One-shot finds the same bug, paying the full-depth search.
    oneshot = verify(SHALLOW_BUG, _cfg(()))
    assert oneshot.verdict == Verdict.UNSAFE


def test_deep_safe_loop_sweeps_every_useful_bound():
    result = verify(DEEP_LOOP_SAFE, _cfg((1, 2, 4, 8)))
    assert result.verdict == Verdict.SAFE
    bounds = result.stats["bounds"]
    assert all(b["answer"] == "unsat" for b in bounds)
    # Solver state is retained between bounds from the second solve on.
    if len(bounds) > 1:
        assert bounds[-1]["clauses_retained"] >= 0
        assert result.stats["incremental_calls"] == len(bounds)


def test_loop_free_program_solves_only_deepest_bound():
    src = dict((n, (s, ok)) for n, s, ok in ALL_PROGRAMS)["lost_update_unsafe"][0]
    result = verify(src, _cfg((1, 2, 4, 8)))
    assert result.verdict == Verdict.UNSAFE
    # No loop frontier: bounds 1/2/4 impose nothing and are skipped.
    assert [b["bound"] for b in result.stats["bounds"]] == [8]


def test_schedule_normalization():
    cfg = VerifierConfig.zord(unwind=8, unwind_schedule=(4, 1, 4, 20))
    # Sorted, deduplicated, clamped below the unwind bound, ending at it.
    assert cfg.unwind_schedule == (1, 4, 8)
    assert VerifierConfig.zord(unwind_schedule=()).unwind_schedule == ()
    with pytest.raises(ValueError):
        VerifierConfig.zord(unwind_schedule=(0, 2))


def test_env_var_enables_schedule(monkeypatch):
    monkeypatch.setenv("REPRO_UNWIND_SCHEDULE", "1")
    assert VerifierConfig.zord(unwind=8).unwind_schedule == (1, 2, 4, 8)
    monkeypatch.setenv("REPRO_UNWIND_SCHEDULE", "2,4")
    assert VerifierConfig.zord(unwind=8).unwind_schedule == (2, 4, 8)
    monkeypatch.setenv("REPRO_UNWIND_SCHEDULE", "0")
    assert VerifierConfig.zord(unwind=8).unwind_schedule == ()
    monkeypatch.delenv("REPRO_UNWIND_SCHEDULE")
    # Explicit () beats the environment.
    monkeypatch.setenv("REPRO_UNWIND_SCHEDULE", "1")
    assert VerifierConfig.zord(unwind_schedule=()).unwind_schedule == ()


def test_non_smt_engine_ignores_schedule():
    cfg = VerifierConfig.cpa_seq(unwind_schedule=(1, 2))
    assert cfg.unwind_schedule == ()


def test_schedule_with_conflict_budget_returns_unknown():
    # The cap is the run budget's, cumulative over the bounds: SHALLOW_BUG
    # needs conflicts (DEEP_LOOP_SAFE is refuted without one, so no cap
    # can stop it).
    result = verify(SHALLOW_BUG, _cfg((1, 2, 4, 8), max_conflicts=0))
    assert result.verdict == Verdict.UNKNOWN
    assert result.stats["budget_limit"] == "conflicts"
