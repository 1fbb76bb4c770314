"""Integration tests: OrderingTheory plugged into the CDCL core.

The key property test compares DPLL(T_ord) against a brute-force oracle
that enumerates all ordering-variable assignments and checks the theory
axioms (acyclicity after from-read closure) directly.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle.audit import AuditError, audit_scope
from repro.ordering import OrderingTheory
from repro.sat import SolveResult, Solver


def make(n_events, po_edges, detector="icd", unit_edge=True, fr_propagation=True):
    theory = OrderingTheory(
        n_events, po_edges, detector=detector, unit_edge=unit_edge,
        fr_propagation=fr_propagation,
    )
    solver = Solver(theory)
    return solver, theory


def new_rf(solver, theory, w, r):
    v = solver.new_var(relevant=True)
    theory.add_rf_var(v, w, r)
    return v


def new_ws(solver, theory, w1, w2):
    v = solver.new_var(relevant=True)
    theory.add_ws_var(v, w1, w2)
    return v


class TestDirectCycles:
    def test_two_vars_cycle_unsat(self):
        solver, theory = make(2, [])
        a = new_rf(solver, theory, 0, 1)
        b = new_ws(solver, theory, 1, 0)
        solver.add_clause([a])
        solver.add_clause([b])
        assert solver.solve() == SolveResult.UNSAT

    def test_one_direction_sat(self):
        solver, theory = make(2, [])
        a = new_rf(solver, theory, 0, 1)
        solver.add_clause([a])
        assert solver.solve() == SolveResult.SAT

    def test_po_plus_var_cycle_unsat(self):
        solver, theory = make(2, [(0, 1)])
        a = new_ws(solver, theory, 1, 0)
        solver.add_clause([a])
        assert solver.solve() == SolveResult.UNSAT

    def test_choice_avoids_cycle(self):
        # a: 0->1, b: 1->0.  a | b satisfiable (pick either), a & b not.
        solver, theory = make(2, [])
        a = new_ws(solver, theory, 0, 1)
        b = new_ws(solver, theory, 1, 0)
        solver.add_clause([a, b])
        assert solver.solve() == SolveResult.SAT
        assert not (solver.model_value(a) and solver.model_value(b))

    def test_three_cycle_needs_backjumping(self):
        solver, theory = make(3, [])
        ab = new_ws(solver, theory, 0, 1)
        bc = new_ws(solver, theory, 1, 2)
        ca = new_ws(solver, theory, 2, 0)
        solver.add_clause([ab])
        solver.add_clause([bc])
        solver.add_clause([ca])
        assert solver.solve() == SolveResult.UNSAT


class TestInitialPropagation:
    def test_po_contradicted_var_fixed_false(self):
        solver, theory = make(2, [(0, 1)])
        a = new_ws(solver, theory, 1, 0)
        for clause in theory.initial_unit_clauses():
            solver.add_clause(clause)
        assert solver.solve() == SolveResult.SAT
        assert solver.model_value(a) is False

    def test_po_transitive_contradiction(self):
        solver, theory = make(3, [(0, 1), (1, 2)])
        a = new_rf(solver, theory, 2, 0)
        units = theory.initial_unit_clauses()
        assert [-a] in units


class TestFromReadPropagation:
    def _fr_scenario(self, fr_propagation):
        # Events: w=0, w'=1, r=2.  rf(w,r) & ws(w,w') derive fr(r,w').
        # Adding rf(w',r) then closes the cycle r -fr-> w' -rf-> r.
        solver, theory = make(3, [], fr_propagation=fr_propagation)
        rf_wr = new_rf(solver, theory, 0, 2)
        ws = new_ws(solver, theory, 0, 1)
        rf_w2r = new_rf(solver, theory, 1, 2)
        solver.add_clause([rf_wr])
        solver.add_clause([ws])
        solver.add_clause([rf_w2r])
        return solver, theory

    def test_axiom2_cycle_detected(self):
        solver, _ = self._fr_scenario(fr_propagation=True)
        assert solver.solve() == SolveResult.UNSAT

    def test_without_fr_propagation_missed(self):
        # Demonstrates why Zord⁻ must encode rho_fr in the formula: the
        # theory alone accepts a model that breaks Axiom 2, and the
        # audit's model check rejects exactly that model.
        with audit_scope(False):
            solver, _ = self._fr_scenario(fr_propagation=False)
        assert solver.solve() == SolveResult.SAT
        with audit_scope(True):
            solver, _ = self._fr_scenario(fr_propagation=False)
        with pytest.raises(AuditError, match="cycle"):
            solver.solve()

    def test_ws_after_rf_derives_too(self):
        # Same scenario but WS assigned after RF: derivation must trigger
        # from the WS side as well (order independence).
        solver, theory = make(3, [])
        rf_wr = new_rf(solver, theory, 0, 2)
        ws = new_ws(solver, theory, 0, 1)
        rf_w2r = new_rf(solver, theory, 1, 2)
        # Force assignment order rf, rf, ws via implication chain.
        solver.add_clause([rf_wr])
        solver.add_clause([-rf_wr, rf_w2r])
        solver.add_clause([-rf_w2r, ws])
        assert solver.solve() == SolveResult.UNSAT

    def test_fr_stats_counted(self):
        solver, theory = make(3, [])
        rf = new_rf(solver, theory, 0, 2)
        ws = new_ws(solver, theory, 0, 1)
        solver.add_clause([rf])
        solver.add_clause([ws])
        assert solver.solve() == SolveResult.SAT
        assert theory.stats.fr_derived >= 1


class TestUnitEdgePropagation:
    def test_unit_edge_forces_false(self):
        # Per the paper, unit-edge propagation scans the B/F sets of the
        # ICD two-way search, so we arrange an insertion that triggers a
        # search: after a: 1->2 and b: 2->3 (fast path), inserting
        # w: 3->0 searches backward to B={3,2,1} and forward to F={0};
        # the inactive edge u: 0->1 is then a unit edge.
        solver, theory = make(4, [])
        a = new_ws(solver, theory, 1, 2)
        b = new_ws(solver, theory, 2, 3)
        w = new_ws(solver, theory, 3, 0)
        u = new_ws(solver, theory, 0, 1)
        solver.add_clause([a])
        solver.add_clause([b])
        solver.add_clause([w])
        assert solver.solve() == SolveResult.SAT
        assert solver.model_value(u) is False
        assert theory.stats.unit_propagations >= 1

    def test_disabled_unit_edge_still_sound(self):
        solver, theory = make(4, [(1, 2)], unit_edge=False)
        a = new_ws(solver, theory, 0, 1)
        b = new_ws(solver, theory, 2, 3)
        u = new_ws(solver, theory, 3, 0)
        solver.add_clause([a])
        solver.add_clause([b])
        solver.add_clause([u])
        assert solver.solve() == SolveResult.UNSAT
        assert theory.stats.unit_propagations == 0


# ---------------------------------------------------------------------------
# Brute-force cross-validation
# ---------------------------------------------------------------------------

def _oracle_consistent(n, po_edges, true_rf, true_ws):
    """Check T_ord axioms directly: acyclicity after one FR-closure step."""
    edges = list(po_edges)
    edges += [(w, r) for (w, r) in true_rf]
    edges += [(a, b) for (a, b) in true_ws]
    for (w, r) in true_rf:
        for (a, b) in true_ws:
            if a == w:
                edges.append((r, b))  # Axiom 2
    # Cycle check.
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
    color = [0] * n
    def dfs(x):
        color[x] = 1
        for y in adj[x]:
            if color[y] == 1:
                return False
            if color[y] == 0 and not dfs(y):
                return False
        color[x] = 2
        return True
    return all(color[i] or dfs(i) for i in range(n))


def _oracle_sat(n, po_edges, rf_pairs, ws_pairs, forced):
    nvars = len(rf_pairs) + len(ws_pairs)
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for f in forced:
            idx = abs(f) - 1
            if bits[idx] != (f > 0):
                ok = False
                break
        if not ok:
            continue
        true_rf = [p for p, b in zip(rf_pairs, bits[: len(rf_pairs)]) if b]
        true_ws = [p for p, b in zip(ws_pairs, bits[len(rf_pairs):]) if b]
        if _oracle_consistent(n, po_edges, true_rf, true_ws):
            return True
    return False


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dpllt_matches_bruteforce_oracle(data):
    n = data.draw(st.integers(3, 6))
    # Random PO chain over a prefix of the nodes.
    chain_len = data.draw(st.integers(0, n - 1))
    po_edges = [(i, i + 1) for i in range(chain_len)]
    # Type the events as in the real theory: a prefix of nodes are writes,
    # the rest are reads (rf goes write->read, ws goes write->write).
    n_writes = data.draw(st.integers(1, n - 1))
    writes = list(range(n_writes))
    reads = list(range(n_writes, n))
    rf_pair = st.tuples(st.sampled_from(writes), st.sampled_from(reads))
    ws_pair = st.tuples(st.sampled_from(writes), st.sampled_from(writes)).filter(
        lambda p: p[0] != p[1]
    )
    rf_pairs = data.draw(st.lists(rf_pair, max_size=3))
    ws_pairs = data.draw(st.lists(ws_pair, max_size=3))
    nvars = len(rf_pairs) + len(ws_pairs)
    # Random forced literals (a conjunction of unit clauses).
    forced = []
    for i in range(nvars):
        choice = data.draw(st.integers(0, 2))
        if choice == 1:
            forced.append(i + 1)
        elif choice == 2:
            forced.append(-(i + 1))

    for detector in ("icd", "tarjan"):
        for unit_edge in (True, False):
            solver, theory = make(
                n, po_edges, detector=detector, unit_edge=unit_edge
            )
            vars_ = []
            for (w, r) in rf_pairs:
                vars_.append(new_rf(solver, theory, w, r))
            for (a, b) in ws_pairs:
                vars_.append(new_ws(solver, theory, a, b))
            for f in forced:
                solver.add_clause([f if f > 0 else f])
            got = solver.solve()
            expected = _oracle_sat(n, po_edges, rf_pairs, ws_pairs, forced)
            assert got == (SolveResult.SAT if expected else SolveResult.UNSAT), (
                detector, unit_edge, n, po_edges, rf_pairs, ws_pairs, forced
            )
