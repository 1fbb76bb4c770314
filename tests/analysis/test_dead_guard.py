"""DEAD-GUARD: events whose guard is false at level 0 get no ordering
variables, and no verdict, witness or certificate changes with it."""

import pytest

from repro import api
from repro.analysis.prune import build_prune_plan
from repro.bench.svcomp import svcomp_suite
from repro.encoding.encoder import encode_program
from repro.frontend import build_symbolic_program
from repro.lang import parse
from repro.pyfront.dynexec import confirm
from repro.smc.witness_replay import replay_witness
from repro.verify import Verdict, VerifierConfig, verify
from tests.pyfront.corpus import EXPECTED, example

#: Two threads each run a loop of constant trip count 2; at unwind 6,
#: iterations 3-6 of both loops are dead.
TWO_TRIP_LOOPS = """
int x = 0;
thread a { int i; int t; i = 0; while (i < 2) { t = x; x = t + 1; i = i + 1; } }
thread b { int i; int t; i = 0; while (i < 2) { t = x; x = t + 1; i = i + 1; } }
main { start a; start b; join a; join b; assert(x %s); }
"""
SAFE_LOOPS = TWO_TRIP_LOOPS % "<= 4"
UNSAFE_LOOPS = TWO_TRIP_LOOPS % "== 4"  # updates can be lost
UNWIND = 6


def _encode(source, level):
    sym = build_symbolic_program(parse(source), unwind=UNWIND, width=8)
    plan = build_prune_plan(sym, level) if level else None
    return sym, encode_program(sym, prune_plan=plan)


def _late_iteration_events(sym):
    """Event ids of loop iterations 3..6: each iteration reads and writes
    ``x`` once, so they are every thread's events past its fourth."""
    late = set()
    for thread in sym.threads:
        if thread.name in ("a", "b"):
            accesses = [e for e in thread.events if e.addr == "x"]
            assert len(accesses) == 2 * UNWIND
            late.update(e.eid for e in accesses[4:])
    return late


def _named_events(enc):
    named = set()
    for pairs in (enc.rf_vars.values(), enc.ws_vars.values()):
        for a, b in pairs:
            named.update((a.eid, b.eid))
    return named


@pytest.mark.parametrize("level", [1, 2])
def test_dead_iterations_get_no_ordering_variables(level):
    sym, enc = _encode(SAFE_LOOPS, level)
    late = _late_iteration_events(sym)
    assert not late & _named_events(enc)
    _, base = _encode(SAFE_LOOPS, 0)
    assert late <= _named_events(base)
    # Every skipped candidate is counted as pruned; the total does not
    # depend on the level.
    assert enc.stats.analysis_pairs_total == base.stats.analysis_pairs_total
    dropped = (base.stats.rf_vars + base.stats.ws_vars) - (
        enc.stats.rf_vars + enc.stats.ws_vars
    )
    assert enc.stats.analysis_pairs_pruned >= dropped > 0


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
    """Unrolled iterations past a constant trip count dominate the
    corpus's ordering variables; the default level keeps at most 40%."""
    size = {0: 0, 2: 0}
    for name in EXPECTED:
        for level in size:
            result, _ = api.verify_python(
                path=example(name), config=VerifierConfig(prune_level=level)
            )
            size[level] += result.stats["rf_vars"] + result.stats["ws_vars"]
    assert size[2] <= 0.4 * size[0]


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
