"""Witness soundness (end to end): every UNSAFE verdict from the zord
preset must come with a witness whose value order, replayed through the
concrete SMC interpreter, actually drives the program into a failed
assertion."""

import os

import pytest

from repro.smc.witness_replay import ReplayError, replay_witness
from repro.verify import VerifierConfig, verify
from tests.verify.programs import ALL_PROGRAMS

UNSAFE_PROGRAMS = [
    (name, source) for name, source, is_safe in ALL_PROGRAMS if not is_safe
]

LOCKED_UNSAFE = """
int c = 0; lock m;
thread t1 { int v; lock(m); v = c; c = v + 1; unlock(m); }
thread t2 { int v; lock(m); v = c; c = v + 1; unlock(m); }
main { start t1; start t2; join t1; join t2; assert(c == 3); }
"""

ATOMIC_UNSAFE = """
int c = 0;
thread t1 { atomic { c = c + 1; } }
thread t2 { atomic { c = c + 1; } }
main { start t1; start t2; join t1; join t2; assert(c == 3); }
"""

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "programs"
)

NONDET_LOOP_UNSAFE = """
int x = 0;
thread t { int i; i = 0; while (i < 2) { x = x + nondet(); i = i + 1; } }
main { start t; join t; assert(x < 9); }
"""


@pytest.mark.parametrize(
    "name,source", UNSAFE_PROGRAMS, ids=[n for n, _ in UNSAFE_PROGRAMS]
)
def test_tier1_unsafe_witnesses_replay(name, source):
    result = verify(source, VerifierConfig.zord())
    assert result.is_unsafe
    assert result.witness is not None
    assert replay_witness(source, result.witness)


@pytest.mark.parametrize(
    "name,source",
    [
        ("locked_unsafe", LOCKED_UNSAFE),
        ("atomic_unsafe", ATOMIC_UNSAFE),
        ("nondet_loop_unsafe", NONDET_LOOP_UNSAFE),
    ],
)
def test_sync_heavy_witnesses_replay(name, source):
    result = verify(source, VerifierConfig.zord())
    assert result.is_unsafe
    assert replay_witness(source, result.witness)


def test_replay_works_with_pruning_disabled():
    _, source = UNSAFE_PROGRAMS[0]
    result = verify(source, VerifierConfig.zord(prune_level=0))
    assert result.is_unsafe
    assert replay_witness(source, result.witness)


def test_corrupted_witness_is_rejected():
    name, source = UNSAFE_PROGRAMS[0]
    result = verify(source, VerifierConfig.zord())
    trace = result.witness
    # Flip a read's claimed value: the replay must notice the mismatch
    # (or, if the corrupted step is unconsumed, fail to complete).
    reads = [s for s in trace.steps if s.kind == "R"]
    assert reads
    reads[0].value ^= 1
    with pytest.raises(ReplayError):
        if not replay_witness(source, trace):
            raise ReplayError("replay completed without violation")


@pytest.mark.parametrize("name", ["counter_racy.c", "nondet_loop_racy.c"])
@pytest.mark.parametrize("unwind", [4, 8])
def test_dartagnan_witnesses_replay(name, unwind):
    """The closure baseline builds its trace with the SMT engine's
    extractor, so its steps carry event ids, lock and atomic groups stay
    adjacent and nondet values are recorded: the witness replays."""
    with open(os.path.join(EXAMPLES, name)) as fh:
        source = fh.read()
    config = VerifierConfig.dartagnan(unwind=unwind)
    result = verify(source, config)
    assert result.is_unsafe
    assert replay_witness(
        source, result.witness, width=config.width, unwind=config.unwind
    )
