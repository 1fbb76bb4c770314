"""The IDL baseline theory must decide exactly the same ordering problems
as the T_ord solver (it lacks propagation and minimality, never
correctness)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.idl import IdlTheory
from repro.oracle.audit import audit_scope
from repro.ordering import OrderingTheory
from repro.sat import SolveResult, Solver


def _solve_with(theory_cls, n, po_edges, rf_pairs, ws_pairs, fr_pairs, forced):
    theory = theory_cls(n, po_edges)
    # These problems leave Axiom 2 out on purpose (pure acyclicity), so
    # the audit's model check, which applies it, does not hold for them.
    with audit_scope(False):
        solver = Solver(theory)
    all_vars = []
    for (w, r) in rf_pairs:
        v = solver.new_var(relevant=True)
        theory.add_rf_var(v, w, r)
        all_vars.append(v)
    for (a, b) in ws_pairs:
        v = solver.new_var(relevant=True)
        theory.add_ws_var(v, a, b)
        all_vars.append(v)
    for (a, b) in fr_pairs:
        v = solver.new_var(relevant=True)
        theory.add_fr_var(v, a, b)
        all_vars.append(v)
    for f in forced:
        solver.add_clause([f])
    return solver.solve()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_idl_agrees_with_tord_without_fr_axiom(data):
    """With FR edges explicit (no Axiom 2 derivation on either side --
    fr_propagation disabled for T_ord), both theories decide pure
    acyclicity and must agree."""
    n = data.draw(st.integers(3, 6))
    chain = data.draw(st.integers(0, n - 1))
    po_edges = [(i, i + 1) for i in range(chain)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    rf_pairs = data.draw(st.lists(pair, max_size=2))
    ws_pairs = data.draw(st.lists(pair, max_size=2))
    fr_pairs = data.draw(st.lists(pair, max_size=2))
    nvars = len(rf_pairs) + len(ws_pairs) + len(fr_pairs)
    forced = [
        (i + 1) if data.draw(st.booleans()) else -(i + 1) for i in range(nvars)
    ]

    idl = _solve_with(
        IdlTheory, n, po_edges, rf_pairs, ws_pairs, fr_pairs, forced
    )

    def tord_factory(n_events, po):
        return OrderingTheory(n_events, po, fr_propagation=False)

    tord = _solve_with(
        tord_factory, n, po_edges, rf_pairs, ws_pairs, fr_pairs, forced
    )
    assert idl == tord


def test_idl_detects_simple_cycle():
    theory = IdlTheory(2, [])
    solver = Solver(theory)
    a = solver.new_var(relevant=True)
    theory.add_rf_var(a, 0, 1)
    b = solver.new_var(relevant=True)
    theory.add_ws_var(b, 1, 0)
    solver.add_clause([a])
    solver.add_clause([b])
    assert solver.solve() == SolveResult.UNSAT
    assert theory.stats.cycles >= 1


def test_idl_po_cycle_found_without_initial_units():
    # The old-style theory has no level-0 propagation, so a PO-contradicted
    # variable surfaces only through a theory conflict.
    theory = IdlTheory(2, [(0, 1)])
    solver = Solver(theory)
    a = solver.new_var(relevant=True)
    theory.add_ws_var(a, 1, 0)
    assert theory.initial_unit_clauses() == []
    solver.add_clause([a])
    assert solver.solve() == SolveResult.UNSAT
