"""The audit's proof checker (:mod:`repro.oracle.certify`): hand-built
logs with planted bugs, its independence from the solver stack, and a
broken kernel caught end to end."""

import ast
from pathlib import Path

import pytest

import repro.oracle.certify as certify_mod
from repro.oracle.audit import AuditError
from repro.oracle.certify import ProofChecker
from repro.verify import Verdict, VerifierConfig, verify

#: Events: writes w=0 and w'=1 and a read r=2 of one address.
EDGES = {
    1: ("rf", 0, 2),  # rf(w, r)
    2: ("ws", 0, 1),  # ws(w, w'): with var 1 derives fr(r, w')
    3: ("rf", 1, 2),  # rf(w', r): closes r -fr-> w' -rf-> r
    4: ("ws", 0, 2),  # ws(w, r): with var 1 derives the self-loop fr(r, r)
    5: ("ws", 1, 0),
}

#: Four clauses over 1..3 whose resolvent on 3 is [1, 2].
CNF = [[1, 2, 3], [1, 2, -3], [1, -2, 3], [1, -2, -3]]


def checker(po=(), inputs=CNF):
    c = ProofChecker()
    c.check([("input", clause) for clause in inputs], (EDGES, list(po)))
    return c


class TestLearnedClauses:
    def test_rup_clause_accepted(self):
        c = checker()
        c.check([("learn", [1, 2]), ("learn", [1])])
        c.certify_unsat([-1], [-1])
        assert c.rup == 2 and c.certified == 1

    def test_dropped_literal_rejected(self):
        # [1] is the learned clause [1, 2] with one literal dropped: it
        # is not RUP before [1, 2] is known.
        with pytest.raises(AuditError, match="not RUP"):
            checker().check([("learn", [1])])

    def test_unsat_needs_a_refutation(self):
        c = checker()
        with pytest.raises(AuditError, match="not certified"):
            c.certify_unsat([], [])
        c.check([("learn", [1, 2]), ("learn", [1]), ("input", [-1])])
        c.certify_unsat([], [])

    def test_imports_are_trusted(self):
        c = checker()
        c.check([("import", [1])])
        assert c.trusted == 1
        c.check([("learn", [1, 3])])  # subsumed by the import


class TestTheoryLemmas:
    def test_fr_cycle_accepted(self):
        c = checker()
        c.check([("theory", [-1, -2, -3])])
        assert c.lemmas == 1

    def test_fr_without_ws_premise_rejected(self):
        # fr(r, w') needs ws(w, w') (var 2) in the lemma.
        with pytest.raises(AuditError, match="no cycle"):
            checker().check([("theory", [-1, -3])])

    def test_path_is_not_a_cycle(self):
        # w -rf-> r -fr-> w' is a path.
        with pytest.raises(AuditError, match="no cycle"):
            checker().check([("theory", [-1, -2])])

    def test_self_loop_from_read_counts(self):
        checker().check([("theory", [-1, -4])])

    def test_program_order_closes_cycles(self):
        with pytest.raises(AuditError, match="no cycle"):
            checker().check([("theory", [-2])])
        # w' -po-> r -po-> w and ws(w, w') form a cycle.
        checker(po=[(1, 2), (2, 0)]).check([("theory", [-2])])

    @pytest.mark.parametrize("lemma", [[2, -3], [-1, -9]])
    def test_unregistered_literal_rejected(self, lemma):
        with pytest.raises(AuditError, match="registered ordering variable"):
            checker().check([("theory", lemma)])

    def test_lemmas_are_rup_premises(self):
        c = checker(inputs=[[1], [2]])
        c.check([("theory", [-1, -2, -3])])
        c.check([("learn", [-3])])


class TestModels:
    @staticmethod
    def model(*true_vars, n=5):
        return [0] + [1 if v in true_vars else -1 for v in range(1, n + 1)]

    def test_model_accepted(self):
        c = checker(inputs=[[1, 2], [-3]])
        c.check_model(self.model(1, 2))
        assert c.models == 1

    def test_violated_clause_rejected(self):
        c = checker(inputs=[[1, 2], [-3], [-4, 5]])
        with pytest.raises(AuditError, match="violates input clause"):
            c.check_model(self.model(1, 2, 4))

    def test_axiom2_cycle_rejected(self):
        c = checker(inputs=[])
        with pytest.raises(AuditError, match="cycle"):
            c.check_model(self.model(1, 2, 3))


class TestSymmetryEdges:
    """Events: an init write 0 in main, then writes 1 and 2 of two
    interchangeable threads (program order 0 -> 1 and 0 -> 2).  Variables
    1/2 are ws(1, 2)/ws(2, 1), 3/4 two further literals the swap
    exchanges; the swap justifies the edge 1 -> 2."""

    SWAP_EDGES = {1: ("ws", 1, 2), 2: ("ws", 2, 1)}
    PO = [(0, 1), (0, 2)]
    SWAP = ((1, 2), {1: 2, 2: 1}, {1: 2, 2: 1, 3: 4, 4: 3})

    def admit(self, inputs, swap=SWAP, po=PO, swaps=None):
        c = ProofChecker()
        swaps = [swap] if swaps is None else swaps
        c.check(
            [("input", clause) for clause in inputs],
            (self.SWAP_EDGES, list(po), swaps),
        )
        return c

    def test_edge_admitted_into_program_order(self):
        # Without the edge ws(2, 1) alone closes no cycle.
        c = ProofChecker()
        c.check([("input", [1, 2])], (self.SWAP_EDGES, list(self.PO)))
        with pytest.raises(AuditError, match="no cycle"):
            c.check([("theory", [-2])])
        c = self.admit([[1, 2], [3, 4]])
        c.check([("theory", [-2]), ("learn", [1])])
        assert c.symmetries == 1 and c.as_stats()["certify_symmetries"] == 1

    def test_input_log_not_mapped_onto_itself_rejected(self):
        with pytest.raises(AuditError, match="not an input clause"):
            self.admit([[1, 2], [2]])

    def test_grown_log_is_rechecked(self):
        c = self.admit([[1, 2]])
        with pytest.raises(AuditError, match="not an input clause"):
            c.check([("input", [-3, 1])], (self.SWAP_EDGES, self.PO, [self.SWAP]))

    def test_edge_outside_one_orbit_rejected(self):
        swap = ((1, 3), {1: 2, 2: 1}, {1: 2, 2: 1})
        with pytest.raises(AuditError, match="exchanges the two ends"):
            self.admit([[1, 2]], swap=swap)

    def test_swap_must_keep_program_order(self):
        # Only program order among the edges' endpoints matters: event 0
        # is in no registered edge.
        self.admit([[1, 2]], po=[(0, 1)])
        with pytest.raises(AuditError, match="program order"):
            self.admit([[1, 2]], po=[(0, 1), (1, 2)])

    def test_swap_must_map_ordering_variables(self):
        swap = ((1, 2), {1: 2, 2: 1}, {3: 4, 4: 3})
        with pytest.raises(AuditError, match="ordering variable"):
            self.admit([[1, 2]], swap=swap)

    def test_literal_map_must_be_an_involution(self):
        swap = ((1, 2), {1: 2, 2: 1}, {1: 2, 2: 1, 3: 4, 4: -3})
        with pytest.raises(AuditError, match="involution"):
            self.admit([[1, 2]], swap=swap)

    def test_edges_must_form_chains(self):
        with pytest.raises(AuditError, match="disjoint chains"):
            self.admit([[1, 2]], swaps=[self.SWAP, self.SWAP])

    def test_unsat_needs_fixed_assumptions(self):
        c = self.admit([[1, 2], [-3, -4], [3, 4]])
        with pytest.raises(AuditError, match="moves the assumptions"):
            c.certify_unsat([3], [3])


class TestInitialEvents:
    """Events: main's initial writes 0 (to ``a``) and 1 (to ``b``), in
    that program order, then 2 and 3, the first events of two threads on
    ``a`` and ``b``.  Variables 1/2 are ws(0, 2)/ws(1, 3).  The swap
    exchanges the threads and renames ``a`` and ``b``, so it reverses
    main's two writes; it justifies the edge 2 -> 3."""

    EDGES = {1: ("ws", 0, 2), 2: ("ws", 1, 3)}
    PO = [(0, 1), (1, 2), (1, 3)]
    SWAP = ((2, 3), {0: 1, 1: 0, 2: 3, 3: 2}, {1: 2, 2: 1})

    def admit(self, edges=EDGES, po=PO, swap=SWAP):
        c = ProofChecker()
        c.check([("input", [1, 2])], (dict(edges), list(po), [swap]))
        return c

    def test_unlinked_initial_events_may_be_reordered(self):
        assert self.admit().symmetries == 1

    def test_linked_initial_events_may_not(self):
        # ws(0, 1) and ws(1, 0) join the two writes' components.
        edges = {**self.EDGES, 3: ("ws", 0, 1), 4: ("ws", 1, 0)}
        swap = (self.SWAP[0], self.SWAP[1], {1: 2, 2: 1, 3: 4, 4: 3})
        with pytest.raises(AuditError, match="program order between events 0 and 1"):
            self.admit(edges=edges, swap=swap)

    def test_initial_event_must_map_to_an_initial_one(self):
        # Write 1 now follows 0 but runs in parallel with 2: only 0 is
        # initial, and the swap maps it to 1.
        with pytest.raises(AuditError, match="does not keep program order"):
            self.admit(po=[(0, 1), (0, 2), (1, 3)])

    def test_final_events_may_be_reordered(self):
        # The mirror image: 0 and 1 are main's final reads after 2 and 3.
        po = [(2, 0), (3, 0), (0, 1)]
        swap = ((2, 3), self.SWAP[1], self.SWAP[2])
        assert self.admit(po=po, swap=swap).symmetries == 1


def test_checker_shares_no_code_with_the_solver_stack():
    tree = ast.parse(Path(certify_mod.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    forbidden = ("repro.sat", "repro.ordering", "repro.encoding", "repro.baselines")
    assert not [m for m in imported if m.startswith(forbidden)]


def test_broken_learning_is_an_error_verdict(monkeypatch):
    """A kernel that drops the last literal of every long learned clause
    is caught: the audited verification answers ERROR, naming the clause,
    where the unaudited one still answers SAFE."""
    import repro.sat.solver as solver_mod
    from repro.bench.patterns import ticket_lock

    analyze = solver_mod.Solver._analyze

    def broken(self, conflict):
        learnt, level = analyze(self, conflict)
        if len(learnt) >= 3:
            learnt = learnt[:-1]
        return learnt, level

    monkeypatch.setattr(solver_mod.Solver, "_analyze", broken)
    source = ticket_lock(3)
    plain = verify(source, VerifierConfig(unwind=2, audit=False))
    assert plain.verdict == Verdict.SAFE
    result = verify(source, VerifierConfig(unwind=2, audit=True))
    assert result.verdict == Verdict.ERROR
    assert "not RUP" in result.diagnostic
