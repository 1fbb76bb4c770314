"""The examples/python corpus: expected verdicts, doubly-confirmed races.

This is the PR's acceptance test.  Every program under
``examples/python/`` must verify to its manifest verdict through the
public :func:`repro.api.verify_python` entry point, and every UNSAFE
verdict must be confirmed **two independent ways**:

1. *symbolic replay* -- the witness schedule replays step-by-step on the
   translated mini program and ends in a failed assert
   (:func:`repro.smc.witness_replay.replay_witness`);
2. *concrete execution* -- the ORIGINAL Python file, run under the
   cooperative scheduler replaying the witness one shared access at a
   time, concretely raises the AssertionError on that first, guided
   trial (:func:`repro.pyfront.dynexec`).

A verdict the engine produces that neither oracle can reproduce would be
a translation or encoding bug, so both checks are hard assertions.
"""

import os

import pytest

from repro import api
from repro.pyfront import translate_file
from repro.pyfront.dynexec import confirm
from repro.smc.witness_replay import replay_witness

from tests.pyfront.corpus import CORPUS_DIR, EXPECTED, example


def test_manifest_matches_directory():
    on_disk = sorted(
        f for f in os.listdir(CORPUS_DIR) if f.endswith(".py")
    )
    assert on_disk == sorted(EXPECTED), (
        "examples/python/ and tests/pyfront/corpus.py disagree; "
        "every example needs a manifest row"
    )


def test_corpus_has_required_size_and_mix():
    assert len(EXPECTED) >= 10
    assert sum(1 for v in EXPECTED.values() if v == "unsafe") >= 4
    assert sum(1 for v in EXPECTED.values() if v == "safe") >= 4


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_verdict(name):
    result, translation = api.verify_python(path=example(name))
    expected = EXPECTED[name]
    assert result.verdict == expected, (
        f"{name}: expected {expected}, got {result.verdict} "
        f"({result.diagnostic})"
    )
    if expected == "unsafe":
        assert result.witness is not None, f"{name}: UNSAFE but no witness"
        # Confirmation 1: the symbolic witness replays to a failed assert.
        assert replay_witness(
            translation.program, result.witness, width=8, unwind=8
        ), f"{name}: witness does not replay"
        # Confirmation 2: the real Python program concretely fails when
        # it replays the witness access by access (the guided trial).
        outcome = confirm(
            translation, witness=result.witness, trials=120, seed=0
        )
        assert outcome.confirmed, (
            f"{name}: not reproduced concretely in "
            f"{outcome.trials_run} trials: {outcome.problems}"
        )
        assert (outcome.failing_trial, outcome.trials_run) == (-1, 1), (
            f"{name}: the witness-guided trial did not confirm: "
            f"{outcome.problems}"
        )
