"""Constants are folded where clauses are built.

``CnfBuilder`` owns the true literal ``t``; no clause it or the encoder
hands to the solver mentions ``t`` or ``¬t`` (beyond the unit that fixes
``t``), and the folding leaves every stored clause as it was.
"""

import glob
import os

import pytest

from repro.encoding.cnf import CnfBuilder
from repro.encoding.encoder import encode_program
from repro.frontend import build_symbolic_program
from repro.lang import parse
from repro.sat import Solver

_EXAMPLES = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "..", "..", "examples", "programs", "*.c")
    )
)

#: (sat_vars, sat_clauses) per example at unwind 4 without pruning, as
#: recorded before constants were folded in the builder (later examples:
#: as recorded when they were added).
_PINNED = {
    "counter_racy.c": (66, 199),
    "counter_safe.c": (92, 225),
    "nondet_loop_racy.c": (281, 889),
    "sb_dead_fence.c": (50, 93),
}


def test_every_example_is_pinned():
    assert sorted(os.path.basename(p) for p in _EXAMPLES) == sorted(_PINNED)


@pytest.mark.parametrize("path", _EXAMPLES, ids=os.path.basename)
def test_no_constant_reaches_the_solver(path, monkeypatch):
    calls = []
    original = Solver.add_clause

    def recording(self, lits):
        calls.append(list(lits))
        return original(self, lits)

    monkeypatch.setattr(Solver, "add_clause", recording)
    with open(path) as f:
        sym = build_symbolic_program(parse(f.read()), unwind=4)
    enc = encode_program(sym)
    t = enc.blaster.builder.true_lit
    assert calls[0] == [t]
    offending = [c for c in calls[1:] if t in c or -t in c]
    assert offending == []
    stats = (enc.stats.sat_vars, enc.stats.sat_clauses)
    assert stats == _PINNED[os.path.basename(path)]


class TestBuilderFolding:
    def setup_method(self):
        self.solver = Solver()
        self.b = CnfBuilder(self.solver)
        self.t = self.b.true_lit
        self.x = self.b.new_lit()
        self.y = self.b.new_lit()
        self.calls = []
        add = self.solver.add_clause

        def recording(lits):
            self.calls.append(list(lits))
            return add(lits)

        self.solver.add_clause = recording

    def stored(self):
        assert not any(self.t in c or -self.t in c for c in self.calls)
        arena = self.solver.kernel.arena
        return [arena.lits(c) for c in self.solver._clause_refs]

    def test_add_clause_drops_false_and_skips_true(self):
        self.b.add_clause([self.x, -self.t, self.y])
        self.b.add_clause([self.x, self.t])
        assert self.calls == [[self.x, self.y]]
        assert self.stored() == [[self.x, self.y]]

    def test_imply_folds_each_constant_side(self):
        t, x, y = self.t, self.x, self.y
        self.b.imply(-t, x)  # vacuous
        self.b.imply(x, t)  # trivially true
        self.b.imply(x, y)
        assert self.stored() == [[-x, y]]
        self.b.imply(t, y)  # y is now a fact
        self.b.imply(x, -t)  # so is ¬x
        assert self.solver.kernel.value(y) == 1
        assert self.solver.kernel.value(x) == -1

    def test_imply_or_and_false_premise(self):
        t, x, y = self.t, self.x, self.y
        self.b.imply_or(x, [y, -t, t])
        self.b.imply_or(x, [y, -t])
        assert self.stored() == [[-x, y]]

    def test_constant_ite_branch_emits_the_folded_clauses(self):
        t, x, y = self.t, self.x, self.y
        out = self.b.ite_gate(x, t, y)
        assert self.stored() == [[-out, x, y], [out, -x], [out, x, -y], [-y, out]]
