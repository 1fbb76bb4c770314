"""DEAD-GUARD: events whose guard is false at level 0 get no ordering
variables, and no verdict, witness or certificate changes with it.

Code under a guard the term constructors fold to false (loop iterations
past a constant trip count, ``if (0)`` branches) is not even emitted by
the frontend; DEAD-GUARD sees the guards that only the encoding's
level-0 propagation makes false."""

import pytest

from repro import api
from repro.analysis.prune import PrunePlan, build_prune_plan
from repro.bench.svcomp import svcomp_suite
from repro.encoding import formula as F
from repro.encoding.encoder import encode_program
from repro.frontend import build_symbolic_program
from repro.lang import parse
from repro.pyfront.dynexec import confirm
from repro.smc.witness_replay import replay_witness
from repro.verify import Verdict, VerifierConfig, verify
from tests.pyfront.corpus import EXPECTED, example

#: Two threads each run a loop of constant trip count 2; at unwind 6,
#: iterations 3-6 of both loops are dead and never emitted.
TWO_TRIP_LOOPS = """
int x = 0;
thread a { int i; int t; i = 0; while (i < 2) { t = x; x = t + 1; i = i + 1; } }
thread b { int i; int t; i = 0; while (i < 2) { t = x; x = t + 1; i = i + 1; } }
main { start a; start b; join a; join b; assert(x %s); }
"""
SAFE_LOOPS = TWO_TRIP_LOOPS % "<= 4"
UNSAFE_LOOPS = TWO_TRIP_LOOPS % "== 4"  # updates can be lost
UNWIND = 6


#: The write ``x = 1`` sits under ``c == 1`` with ``c == 0`` assumed:
#: its guard is no constant, but level-0 propagation of the assumption
#: makes it false.
ASSUMED_DEAD = """
int x = 0;
thread a { int c; c = nondet(); assume(c == 0); if (c == 1) { x = 1; } x = 2; }
thread b { int t; t = x; assert(t != 5); }
main { start a; start b; join a; join b; }
"""


def _encode(source, level, unwind=UNWIND):
    sym = build_symbolic_program(parse(source), unwind=unwind, width=8)
    plan = build_prune_plan(sym, level) if level else None
    return sym, encode_program(sym, prune_plan=plan)


def _loop_accesses(sym):
    """Each looping thread's accesses to ``x``: one read and one write per
    iteration the frontend emitted."""
    return {
        thread.name: [e for e in thread.events if e.addr == "x"]
        for thread in sym.threads
        if thread.name in ("a", "b")
    }


def _named_events(enc):
    named = set()
    for pairs in (enc.rf_vars.values(), enc.ws_vars.values()):
        for a, b in pairs:
            named.update((a.eid, b.eid))
    return named


@pytest.mark.parametrize("level", [1, 2])
def test_dead_iterations_get_no_ordering_variables(level):
    """Iterations past the trip count are not emitted, at any unwind: only
    the two live iterations' accesses exist, and every one of them is
    named by an ordering variable at level 0."""
    sym, enc = _encode(SAFE_LOOPS, level)
    short, _ = _encode(SAFE_LOOPS, level, unwind=2)
    assert len(sym.events) == len(short.events)
    assert not any(e.guard is F.FALSE for e in sym.events)
    accesses = _loop_accesses(sym)
    assert all(len(evs) == 2 * 2 for evs in accesses.values())
    live = {e.eid for evs in accesses.values() for e in evs}
    _, base = _encode(SAFE_LOOPS, 0)
    assert live <= _named_events(base)
    # Every skipped candidate is counted as pruned; the total does not
    # depend on the level.
    assert enc.stats.analysis_pairs_total == base.stats.analysis_pairs_total
    dropped = (base.stats.rf_vars + base.stats.ws_vars) - (
        enc.stats.rf_vars + enc.stats.ws_vars
    )
    assert enc.stats.analysis_pairs_pruned >= dropped > 0


@pytest.mark.parametrize("level", [1, 2])
def test_guard_false_at_level_0_gets_no_ordering_variables(level, monkeypatch):
    """DEAD-GUARD on a guard no term constructor folds: ``c == 1`` under
    ``assume(c == 0)``."""
    dead_sets = []
    dead_events = PrunePlan.dead_events

    def spy(self, guard_lits, value):
        dead_sets.append(dead_events(self, guard_lits, value))
        return dead_sets[-1]

    monkeypatch.setattr(PrunePlan, "dead_events", spy)
    sym, enc = _encode(ASSUMED_DEAD, level)
    (write,) = [e for e in sym.events if e.is_write and e.guard is not F.TRUE]
    assert write.guard is not F.FALSE
    assert dead_sets == [{write.eid}]
    assert write.eid not in _named_events(enc)
    _, base = _encode(ASSUMED_DEAD, 0)
    assert write.eid in _named_events(base)
    assert enc.stats.rf_vars + enc.stats.ws_vars < base.stats.rf_vars + base.stats.ws_vars
    for lvl in (0, level):
        result = verify(ASSUMED_DEAD, VerifierConfig.zord(unwind=2, prune_level=lvl))
        assert result.verdict == Verdict.SAFE, lvl


@pytest.mark.parametrize(
    "source,verdict",
    [(SAFE_LOOPS, Verdict.SAFE), (UNSAFE_LOOPS, Verdict.UNSAFE)],
    ids=["safe", "unsafe"],
)
def test_loop_verdicts_equal_across_levels(source, verdict):
    for level in (0, 1, 2):
        result = verify(
            source, VerifierConfig.zord(unwind=UNWIND, prune_level=level)
        )
        assert result.verdict == verdict, level
        if verdict == Verdict.UNSAFE:
            assert replay_witness(
                parse(source), result.witness, width=8, unwind=UNWIND
            ), level


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_python_corpus_equal_across_levels(name):
    for level in (0, 2):
        result, translation = api.verify_python(
            path=example(name), config=VerifierConfig(prune_level=level)
        )
        assert result.verdict == EXPECTED[name], level
        if result.verdict == Verdict.UNSAFE:
            assert replay_witness(
                translation.program, result.witness, width=8, unwind=8
            ), level
            outcome = confirm(
                translation, witness=result.witness, trials=120, seed=0
            )
            assert (outcome.failing_trial, outcome.trials_run) == (-1, 1), (
                level,
                outcome.problems,
            )


def test_python_corpus_ordering_variables_shrink():
    """The corpus's RF + WS variables at prune levels 0 and 2.  Unrolled
    iterations past a constant trip count are not emitted at all (level 0
    had 2,838 while the frontend still emitted them); the prune rules
    remove a quarter of the rest."""
    size = {0: 0, 2: 0}
    for name in EXPECTED:
        for level in size:
            result, _ = api.verify_python(
                path=example(name),
                config=VerifierConfig(prune_level=level, unwind_schedule=()),
            )
            size[level] += result.stats["rf_vars"] + result.stats["ws_vars"]
    assert size == {0: 647, 2: 489}


def test_audited_producer_consumer_certifies():
    result, _ = api.verify_python(
        path=example("producer_consumer_lock.py"),
        config=VerifierConfig(audit=True, prune_level=2),
    )
    assert result.verdict == Verdict.SAFE, result.diagnostic
    # One certificate per solve (an unwind schedule solves per bound).
    assert result.stats["certify_certified"] >= 1


def test_svcomp_verdicts_and_witnesses_equal_across_levels():
    """The SV-COMP-style suite on both sides of the prune rules: every
    task keeps its expected verdict, and every UNSAFE witness replays."""
    for task in svcomp_suite(scale=1):
        for level in (0, 2):
            result = verify(
                task.source,
                VerifierConfig.zord(unwind=task.unwind, prune_level=level),
            )
            assert result.is_safe == task.expected_safe, (task.name, level)
            if result.is_unsafe:
                assert replay_witness(
                    task.source, result.witness, width=8, unwind=task.unwind
                ), (task.name, level)
