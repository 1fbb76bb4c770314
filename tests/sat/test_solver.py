"""Unit and property tests for the CDCL SAT core."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robustness.budget import Budget, BudgetExceeded, active_budget
from repro.sat import SolveResult, Solver
from repro.sat.solver import luby


def brute_force_sat(nvars, clauses):
    """Reference satisfiability check by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any((bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1]) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


def solve_clauses(nvars, clauses, **kw):
    s = Solver()
    for _ in range(nvars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s, s.solve(**kw)


class TestBasics:
    def test_empty_formula_is_sat(self):
        s = Solver()
        assert s.solve() == SolveResult.SAT

    def test_single_unit(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([v])
        assert s.solve() == SolveResult.SAT
        assert s.model_value(v) is True

    def test_unit_conflict(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([v])
        assert s.add_clause([-v]) is False
        assert s.solve() == SolveResult.UNSAT

    def test_empty_clause_is_unsat(self):
        s = Solver()
        s.new_var()
        assert s.add_clause([]) is False
        assert s.solve() == SolveResult.UNSAT

    def test_tautology_ignored(self):
        s = Solver()
        v = s.new_var()
        assert s.add_clause([v, -v]) is True
        assert s.solve() == SolveResult.SAT

    def test_duplicate_literals_collapse(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([v, v, v])
        assert s.solve() == SolveResult.SAT
        assert s.model_value(v) is True

    def test_simple_implication_chain(self):
        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        s.add_clause([a])
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        assert s.solve() == SolveResult.SAT
        assert s.model_value(c) is True

    def test_model_lit(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([-a])
        assert s.solve() == SolveResult.SAT
        assert s.model_lit(-a) is True
        assert s.model_lit(a) is False

    def test_unsat_xor_chain(self):
        # x1 xor x2, x2 xor x3, x1 xor x3 with odd parity forced -> UNSAT.
        s = Solver()
        x1, x2, x3 = (s.new_var() for _ in range(3))
        for a, b in [(x1, x2), (x2, x3)]:
            s.add_clause([a, b])
            s.add_clause([-a, -b])
        # Chain implies x1 == x3; force x1 != x3 -> UNSAT.
        s.add_clause([x1, x3])
        s.add_clause([-x1, -x3])
        assert s.solve() == SolveResult.UNSAT

    def test_pigeonhole_3_into_2(self):
        # PHP(3,2): classic small UNSAT instance exercising learning.
        s = Solver()
        p = {(i, j): s.new_var() for i in range(3) for j in range(2)}
        for i in range(3):
            s.add_clause([p[(i, 0)], p[(i, 1)]])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        assert s.solve() == SolveResult.UNSAT

    def test_pigeonhole_5_into_4(self):
        s = Solver()
        n, m = 5, 4
        p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
        for i in range(n):
            s.add_clause([p[(i, j)] for j in range(m)])
        for j in range(m):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        assert s.solve() == SolveResult.UNSAT

    def test_conflict_budget_returns_unknown(self):
        # PHP(6,5) cannot be refuted within 1 conflict: the run budget
        # stops the search, the solver has no cap of its own.
        s = Solver()
        n, m = 6, 5
        p = {(i, j): s.new_var() for i in range(n) for j in range(m)}
        for i in range(n):
            s.add_clause([p[(i, j)] for j in range(m)])
        for j in range(m):
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    s.add_clause([-p[(i1, j)], -p[(i2, j)]])
        with active_budget(Budget(max_conflicts=1)):
            with pytest.raises(BudgetExceeded) as ei:
                s.solve()
        assert ei.value.limit == "conflicts"
        assert ei.value.partial_stats["conflicts"] == 2

    def test_stats_counters_move(self):
        s, res = solve_clauses(4, [[1, 2], [-1, 3], [-3, -2, 4], [-4, 1]])
        assert res == SolveResult.SAT
        assert s.stats.propagations > 0


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


def clause_strategy(nvars):
    lit = st.integers(min_value=1, max_value=nvars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(lit, min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    nvars=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_random_cnf_matches_brute_force(nvars, data):
    clauses = data.draw(st.lists(clause_strategy(nvars), min_size=0, max_size=25))
    s, res = solve_clauses(nvars, clauses)
    expected = brute_force_sat(nvars, clauses)
    assert res == (SolveResult.SAT if expected else SolveResult.UNSAT)
    if res == SolveResult.SAT:
        # The returned model must satisfy every clause.
        for clause in clauses:
            assert any(s.model_lit(l) for l in clause)


@settings(max_examples=60, deadline=None)
@given(
    nvars=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_random_3cnf_models_are_valid(nvars, data):
    clauses = data.draw(st.lists(clause_strategy(nvars), min_size=0, max_size=50))
    s, res = solve_clauses(nvars, clauses)
    if res == SolveResult.SAT:
        for clause in clauses:
            assert any(s.model_lit(l) for l in clause)


@pytest.mark.parametrize("seed", range(5))
def test_larger_random_instances_complete(seed):
    import random

    rng = random.Random(seed)
    nvars = 40
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, nvars) for _ in range(3)]
        for _ in range(160)
    ]
    _, res = solve_clauses(nvars, clauses)
    assert res in (SolveResult.SAT, SolveResult.UNSAT)


#: First 64 Luby values (i = 1..64), pinned so the memoized rewrite can
#: never drift from the derivation it replaced.
LUBY_64 = [
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1,
    1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 16, 1,
    1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1, 1,
    2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 16, 32, 1,
]


class TestLubyMemo:
    def test_first_64_values_pinned(self):
        assert [luby(i) for i in range(1, 65)] == LUBY_64

    def test_memo_is_consistent_across_orders(self):
        # Querying out of order must not corrupt the cache.
        assert luby(64) == 1
        assert luby(15) == 8
        assert [luby(i) for i in range(1, 65)] == LUBY_64
