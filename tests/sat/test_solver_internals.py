"""Stress tests exercising the solver's restart / DB-reduction machinery
and the theory final_check hook."""

import random

import pytest

from repro.oracle.audit import audit_scope
from repro.robustness.budget import Budget, BudgetExceeded, active_budget
from repro.sat import Explanation, SolveResult, Solver, Theory, TheoryResult
from repro.sat.kernel import NO_REASON
from repro.sat.solver import luby


def random_hard_instance(seed, nvars=60, ratio=4.3):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(nvars * ratio)):
        clause = []
        while len(clause) < 3:
            v = rng.randint(1, nvars)
            if v not in map(abs, clause):
                clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return clauses


class TestSearchMachinery:
    @pytest.mark.parametrize("seed", range(6))
    def test_near_threshold_instances_complete(self, seed):
        s = Solver()
        nvars = 60
        for _ in range(nvars):
            s.new_var()
        for c in random_hard_instance(seed, nvars):
            s.add_clause(c)
        result = s.solve()
        assert result in (SolveResult.SAT, SolveResult.UNSAT)
        if result == SolveResult.SAT:
            for c in random_hard_instance(seed, nvars):
                assert any(s.model_lit(l) for l in c)

    def test_restarts_occur_on_hard_instances(self):
        # PHP(7,6): needs well over one restart period of conflicts.
        s = Solver()
        n, m = 7, 6
        p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
        for i in range(n):
            s.add_clause([p[(i, j)] for j in range(m)])
        for j in range(m):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        assert s.solve() == SolveResult.UNSAT
        assert s.stats.restarts >= 1
        assert s.stats.learned > 100

    def test_learned_clause_growth_bounded_by_reduction(self):
        # Run a conflict-heavy instance and check the DB was reduced
        # (learned count >> live clauses kept).
        s = Solver()
        n, m = 8, 7
        p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
        for i in range(n):
            s.add_clause([p[(i, j)] for j in range(m)])
        for j in range(m):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        try:
            with active_budget(Budget(max_conflicts=30000)):
                assert s.solve() == SolveResult.UNSAT
        except BudgetExceeded:
            pass  # stopped mid-search: the counters still moved
        assert s.stats.conflicts > 0


class TestLubyProperties:
    def test_block_boundaries_are_powers_of_two(self):
        # luby(2^k - 1) == 2^(k-1): the last element of each block is the
        # next power of two.
        for k in range(1, 12):
            assert luby(2 ** k - 1) == 2 ** (k - 1)

    def test_sequence_is_self_similar(self):
        # Dropping the trailing power of two of a block replays the
        # sequence prefix: luby(2^k - 1 + i) == luby(i).
        for k in range(2, 9):
            base = 2 ** k - 1
            for i in range(1, base):
                assert luby(base + i) == luby(i)

    def test_values_are_powers_of_two(self):
        for i in range(1, 300):
            v = luby(i)
            assert v & (v - 1) == 0 and v >= 1


def _php_clauses(s, n, m):
    p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
    for i in range(n):
        s.add_clause([p[(i, j)] for j in range(m)])
    for j in range(m):
        for i1 in range(n):
            for i2 in range(i1 + 1, n):
                s.add_clause([-p[(i1, j)], -p[(i2, j)]])


class TestReduceDB:
    """Learned-DB reduction, read at the arena level: clauses by stable
    cid, watcher tags (``cref + 1``, negated for binary clauses) and
    integer reason refs."""

    def _learned_solver(self):
        """A solver stopped mid-search with a sizeable learned DB."""
        s = Solver()
        _php_clauses(s, 8, 7)
        with active_budget(Budget(max_conflicts=400)):
            with pytest.raises(BudgetExceeded):
                s.solve()
        assert len(s._learned_refs) > 10
        return s

    @staticmethod
    def _learned_cids(s):
        return {s.kernel.arena.cid(c) for c in s._learned_refs}

    def test_reduction_detaches_removed_clauses(self):
        s = self._learned_solver()
        s._backjump(0)
        before = self._learned_cids(s)
        s._reduce_db()
        removed = before - self._learned_cids(s)
        assert removed  # something was actually dropped
        arena = s.kernel.arena
        assert all(arena.cid2ref[cid] == -1 for cid in removed)
        # Every watcher tag still resolves to a live clause.
        live = set(s._clause_refs) | set(s._learned_refs)
        for watch_list in s.kernel.watch:
            for tag in watch_list[0::2]:
                assert (tag - 1 if tag > 0 else -tag - 1) in live

    def test_reduction_keeps_kept_clauses_watched(self):
        s = self._learned_solver()
        s._backjump(0)
        s._reduce_db()
        kernel = s.kernel
        for cref in s._learned_refs:
            lits = kernel.arena.lits(cref)
            tag = -(cref + 1) if len(lits) == 2 else cref + 1
            # Both watched literals still index the clause exactly once.
            for lit in lits[:2]:
                assert kernel.watch[kernel.widx(lit)][0::2].count(tag) == 1

    def test_reduction_keeps_reason_and_binary_clauses(self):
        s = self._learned_solver()
        arena = s.kernel.arena
        learned = self._learned_cids(s)
        locked = {
            arena.cid(r) for r in s.kernel.reason[1 : s.nvars + 1] if r >= 0
        } & learned
        binary = {arena.cid(c) for c in s._learned_refs if arena.size(c) == 2}
        s._reduce_db()
        kept = self._learned_cids(s)
        assert locked <= kept
        assert binary <= kept

    def test_solving_continues_correctly_after_reduction(self):
        s = self._learned_solver()
        s._backjump(0)
        s._reduce_db()
        assert s.solve() == SolveResult.UNSAT


class _FinalCheckTheory(Theory):
    """A theory that only objects at the full assignment: it rejects any
    model assigning its watched variable true (the conflict clause [-var]
    is falsified exactly then)."""

    def __init__(self):
        self.var = None
        self.solver = None
        self.checks = 0

    def relevant(self, var):
        return False  # only acts at final check

    def final_check(self):
        self.checks += 1
        result = TheoryResult()
        if self.solver.value(self.var) is True:
            result.add_conflict([-self.var])
        return result


class TestFinalCheck:
    def test_final_check_rejection_flips_model(self):
        theory = _FinalCheckTheory()
        s = Solver(theory)
        theory.solver = s
        a = s.new_var()
        b = s.new_var()
        theory.var = a
        s.add_clause([a, b])
        # Force the first candidate model to assign a true.
        s.add_clause([a, -b])
        result = s.solve()
        # a true is theory-rejected; a false requires b true via [a, b],
        # but [a, -b] then fails -> UNSAT overall.
        assert result == SolveResult.UNSAT
        assert theory.checks >= 1

    def test_final_check_passes_clean_model(self):
        theory = _FinalCheckTheory()
        s = Solver(theory)
        theory.solver = s
        a = s.new_var()
        b = s.new_var()
        theory.var = a
        s.add_clause([a, b])
        result = s.solve()
        assert result == SolveResult.SAT
        assert theory.checks >= 1
        assert s.model_value(a) is False  # the accepted model avoids a

    def test_final_check_conflict_at_level_zero_is_unsat(self):
        theory = _FinalCheckTheory()
        s = Solver(theory)
        theory.solver = s
        v = s.new_var()
        theory.var = v
        s.add_clause([v])  # v fixed true at level 0: rejection is terminal
        assert s.solve() == SolveResult.UNSAT


class _Probe(Explanation):
    """A lazy reason that counts how often it is materialised."""

    def __init__(self, lits):
        self.clause = lits
        self.reads = 0

    def lits(self):
        self.reads += 1
        return list(self.clause)


def _at_level_one(nvars=3, audit=False):
    """A solver with ``nvars`` variables and variable 1 decided true."""
    with audit_scope(audit):
        s = Solver()
    for _ in range(nvars):
        s.new_var()
    s._trail_lim.append(len(s._trail))
    s.kernel.enqueue(1, NO_REASON)
    return s


class _OfferTheory(Theory):
    """Offers ``2`` with a probe reason ``[2, -1]`` when 1 becomes true."""

    def __init__(self):
        self.probes = []

    def relevant(self, var):
        return var == 1

    def assign(self, lit, level):
        result = TheoryResult()
        if lit == 1:
            self.probes.append(_Probe([2, -1]))
            result.add_propagation(2, self.probes[-1])
        return result


class TestLazyReasons:
    """An explanation is materialised only when something reads it, once,
    and the pool keeps the literals it gave."""

    def test_offer_of_a_true_literal_is_never_materialised(self):
        s = _at_level_one()
        s.kernel.enqueue(2, NO_REASON)
        probe = _Probe([2, -1])
        assert s._apply_theory_propagations([(2, probe)]) is None
        assert probe.reads == 0 and s.stats.theory_propagations == 0

    def test_backjumped_offer_is_never_materialised(self):
        s = _at_level_one()
        probe = _Probe([2, -1])
        assert s._apply_theory_propagations([(2, probe)]) is None
        assert s.value(2) is True and s.stats.theory_propagations == 1
        s._backjump(0)
        assert s.value(2) is None
        assert probe.reads == 0
        assert all(slot is None for slot in s.kernel.treason)

    def test_offer_of_a_false_literal_is_the_conflict(self):
        s = _at_level_one()
        s.kernel.enqueue(-2, NO_REASON)
        probe = _Probe([2, -1])
        assert s._apply_theory_propagations([(2, probe)]) == [2, -1]
        assert probe.reads == 1

    def test_first_read_materialises_once_and_is_kept(self):
        # Level 1: 1 decided, 2 offered by the theory.  Level 2: 4 decided;
        # the two clauses on 5 conflict and learn (-4, -2), whose
        # minimization reads 2's reason.
        theory = _OfferTheory()
        with audit_scope(False):
            s = Solver(theory)
        for _ in range(5):
            s.new_var(relevant=False)
        s.mark_relevant(1)
        s.add_clause([-4, -2, 5])
        s.add_clause([-4, -2, -5])
        assert s.solve([1, 4]) == SolveResult.UNSAT
        (probe,) = theory.probes
        assert probe.reads == 1
        ref = s.kernel.reason[2]
        assert s.kernel.treason[-2 - ref] == [2, -1]
        assert s.kernel.reason_lits(ref) == [2, -1]
        assert probe.reads == 1

    def test_audit_materialises_at_offer(self):
        s = _at_level_one(audit=True)
        probe = _Probe([2, -1])
        assert s._apply_theory_propagations([(2, probe)]) is None
        assert probe.reads == 1
        assert s.proof[-1] == ("theory", [2, -1])
        assert s.kernel.reason_lits(s.kernel.reason[2]) == [2, -1]
