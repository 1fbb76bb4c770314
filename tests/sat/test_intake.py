"""Clause intake: what ``Solver.add_clause`` stores, and how it is watched.

The solver simplifies a problem clause against the level-0 assignment
before storing it.  These tests pin the exact result, literal order
included, since the search's decisions depend on it.
"""

import random

import pytest

from repro.sat import Solver


def _expected(clause, fixed):
    """Reference simplification: (status, stored literals)."""
    out = []
    for lit in clause:
        if -lit in out or fixed.get(lit) is True:
            return "satisfied", []
        if lit in out or fixed.get(lit) is False:
            continue
        out.append(lit)
    return ("empty" if not out else "kept"), out


def _random_case(rng, nvars):
    fixed = {}
    for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars // 2)):
        val = rng.random() < 0.5
        fixed[v], fixed[-v] = val, not val
    pool = list(range(1, nvars + 1))
    clause = []
    for _ in range(rng.randint(1, 14)):
        r = rng.random()
        if clause and r < 0.2:
            clause.append(rng.choice(clause))  # duplicate
        elif clause and r < 0.25:
            clause.append(-rng.choice(clause))  # complementary pair
        else:
            clause.append(rng.choice(pool) * rng.choice((1, -1)))
    return fixed, clause


@pytest.mark.parametrize("seed", range(4))
def test_add_clause_stores_first_unassigned_occurrences(seed):
    rng = random.Random(seed)
    for _ in range(500):
        nvars = rng.randint(2, 12)
        fixed, clause = _random_case(rng, nvars)
        s = Solver()
        for _ in range(nvars):
            s.new_var()
        for v in range(1, nvars + 1):
            if v in fixed:
                assert s.add_clause([v if fixed[v] else -v])
        status, out = _expected(clause, fixed)
        ok = s.add_clause(list(clause))
        assert ok is (status != "empty"), (fixed, clause)
        stored = [s.kernel.arena.lits(c) for c in s._clause_refs]
        if status == "kept" and len(out) >= 2:
            assert stored == [out], (fixed, clause)
        else:
            assert stored == [], (fixed, clause)
        if status == "kept" and len(out) == 1:
            assert s.kernel.value(out[0]) == 1  # a unit is assigned


def test_watches_carry_the_other_literal_as_blocker():
    s = Solver()
    for _ in range(6):
        s.new_var()
    s.add_clause([1, -2])
    s.add_clause([-3, 4, 5, 6])
    for lits, binary in (([1, -2], True), ([-3, 4, 5, 6], False)):
        cref = next(c for c in s._clause_refs if s.kernel.arena.lits(c) == lits)
        tag = -(cref + 1) if binary else cref + 1
        l0, l1 = lits[0], lits[1]
        assert s.kernel.watch[s.kernel.widx(l0)][-2:] == [tag, l1]
        assert s.kernel.watch[s.kernel.widx(l1)][-2:] == [tag, l0]
    # Only the first two literals are watched.
    assert all(not s.kernel.watch[s.kernel.widx(lit)] for lit in (5, 6))


def test_new_var_appends_to_the_heap_and_counts_the_insert():
    s = Solver()
    for i in range(1, 6):
        assert s.new_var() == i
    heap = s.kernel.heap
    assert heap.heap == [1, 2, 3, 4, 5]
    assert heap.pos[1:] == [0, 1, 2, 3, 4]
    assert heap.n_ops == 5
    heap.check()
