"""Incremental re-solve protocol of the ordering theory: reset between
queries (backjump to level 0) and state restoration under alternating
assumptions."""

from repro.ordering import OrderingTheory
from repro.sat import SolveResult, Solver


def make(n_events, po_edges, **kw):
    theory = OrderingTheory(n_events, po_edges, **kw)
    solver = Solver(theory)
    return solver, theory


def new_ws(solver, theory, w1, w2):
    v = solver.new_var(relevant=True)
    theory.add_ws_var(v, w1, w2)
    return v


class TestResetBetweenSolves:
    def test_alternating_assumptions_see_fresh_graph(self):
        # a activates 0->1, b activates 1->0.  Each alone is consistent;
        # together they cycle.  A stale edge surviving a reset would make
        # the later single-assumption queries wrongly UNSAT.
        solver, theory = make(2, [])
        a = new_ws(solver, theory, 0, 1)
        b = new_ws(solver, theory, 1, 0)
        assert solver.solve(assumptions=[a]) == SolveResult.SAT
        assert solver.solve(assumptions=[b]) == SolveResult.SAT
        assert solver.solve(assumptions=[a, b]) == SolveResult.UNSAT
        assert set(solver.unsat_core) <= {a, b}
        assert solver.solve(assumptions=[a]) == SolveResult.SAT
        assert solver.solve(assumptions=[b]) == SolveResult.SAT

    def test_reset_deactivates_non_root_edges(self):
        solver, theory = make(3, [(0, 1)])
        a = new_ws(solver, theory, 1, 2)
        # Assumption-activated: the edge enters at decision level 1.
        assert solver.solve(assumptions=[a]) == SolveResult.SAT
        # Post-SAT the search edge is still active (witness extraction
        # reads the live graph); only the PO edge is permanent.
        assert theory.graph.n_active_edges == 2
        theory.reset()
        assert theory.graph.n_active_edges == 1

    def test_root_level_edges_survive_reset(self):
        solver, theory = make(2, [])
        a = new_ws(solver, theory, 0, 1)
        solver.add_clause([a])  # unit: activated at level 0
        assert solver.solve() == SolveResult.SAT
        theory.reset()
        assert theory.graph.n_active_edges == 1

