"""Encoding checks its budget often enough.

A deadline that expires in ``encode`` is only noticed at the encoder's
next checkpoint, so the overshoot is bounded by the work between two of
them.  This counts that work deterministically -- clauses handed to the
solver between consecutive encode checkpoints -- over every task of the
two suites, instead of timing it.
"""

import pytest

from repro.bench.nidhugg import nidhugg_suite
from repro.bench.svcomp import svcomp_suite
from repro.encoding import encoder
from repro.frontend.ssa import build_symbolic_program
from repro.lang import parse
from repro.sat.solver import Solver
from repro.verify import registry
from repro.verify.config import VerifierConfig

#: Most clauses allowed between two consecutive encode checkpoints (the
#: largest stretch on the suites is well below this).
MAX_CLAUSES_BETWEEN_CHECKPOINTS = 2048


@pytest.mark.parametrize(
    "suite",
    [lambda: svcomp_suite(scale=1), nidhugg_suite],
    ids=["svcomp", "nidhugg"],
)
def test_clauses_between_encode_checkpoints_are_bounded(monkeypatch, suite):
    since_checkpoint = [0]
    widest = []
    checkpoint = encoder._robustness_checkpoint
    add_clause = Solver.add_clause

    def counting_checkpoint(phase, events=0):
        widest.append((since_checkpoint[0], task_name))
        since_checkpoint[0] = 0
        checkpoint(phase, events)

    def counting_add_clause(self, lits):
        since_checkpoint[0] += 1
        return add_clause(self, lits)

    monkeypatch.setattr(encoder, "_robustness_checkpoint", counting_checkpoint)
    monkeypatch.setattr(Solver, "add_clause", counting_add_clause)
    for task in suite():
        task_name = task.name
        config = VerifierConfig.zord(unwind=task.unwind)
        sym = build_symbolic_program(
            parse(task.source), unwind=config.unwind, width=config.width
        )
        since_checkpoint[0] = 0
        registry.resolve_theory(config.theory)(sym, config)
        # The stretch after the last checkpoint counts too.
        widest.append((since_checkpoint[0], task_name))
    assert widest
    worst = max(widest)
    assert worst[0] <= MAX_CLAUSES_BETWEEN_CHECKPOINTS, worst
