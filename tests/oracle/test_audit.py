"""The invariant auditor: helper checks, wiring, mutations planted in
the production callbacks, and the trail-sync regression around from-read
derivation conflicts."""

import pytest

from repro.oracle.audit import (
    AuditError,
    audit_enabled,
    audit_scope,
    check_conflict_clause,
    check_icd_labels,
    check_propagation_reason,
    check_theory_sync,
)
from repro.baselines.idl import IdlTheory
from repro.oracle.certify import ProofChecker
from repro.ordering import OrderingTheory
from repro.ordering.event_graph import Edge, EdgeKind, EventGraph
from repro.ordering.icd import IncrementalCycleDetector
from repro.sat import SolveResult, Solver
from repro.verify import Verdict, VerifierConfig, verify
from tests.ordering.test_unit_edge import materialised

UNSAFE_SRC = """int counter = 0;
thread inc1 { int t; t = counter; counter = t + 1; }
thread inc2 { int t; t = counter; counter = t + 1; }
main { start inc1; start inc2; join inc1; join inc2; assert(counter == 2); }
"""

SAFE_SRC = """int g = 0;
lock m;
thread a { lock(m); g = g + 1; unlock(m); }
thread b { lock(m); g = g + 1; unlock(m); }
main { start a; start b; join a; join b; assert(g == 2); }
"""


def make_theory(n, po_edges, **kw):
    theory = OrderingTheory(n, po_edges, **kw)
    solver = Solver(theory)
    return solver, theory


def count_checks(monkeypatch):
    """Record the name of every ``check_*`` the audit module runs."""
    import repro.oracle.audit as audit_mod

    calls = []
    for name in audit_mod.__all__:
        if name.startswith("check_"):
            check = getattr(audit_mod, name)
            monkeypatch.setattr(
                audit_mod,
                name,
                lambda *a, _check=check, _name=name: (
                    calls.append(_name), _check(*a)
                )[1],
            )
    return calls


def reorder_then_backjump(solver, theory):
    """Two solves that run every theory hook: the RF edge 1 -> 0 goes
    against the initial labels (an ICD reorder), and the second solve's
    reset backjumps over it."""
    a = solver.new_var(relevant=True)
    theory.add_rf_var(a, 1, 0)
    assert solver.solve([a]) == SolveResult.SAT
    assert solver.solve([-a]) == SolveResult.SAT


def raised_in(excinfo, function):
    return any(entry.name == function for entry in excinfo.traceback)


class TestAuditEnabled:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert audit_enabled() is False
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert audit_enabled() is True
        monkeypatch.setenv("REPRO_AUDIT", "off")
        assert audit_enabled() is False

    def test_config_resolves_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert VerifierConfig().audit is True
        monkeypatch.delenv("REPRO_AUDIT")
        assert VerifierConfig().audit is False
        assert VerifierConfig(audit=True).audit is True

    def test_audit_scope_reaches_all_layers(self, monkeypatch):
        """Components built auditing run every hook point: the detector
        checks each reorder, the theory each assign's pushed and each
        backjump's popped trail entries, and the end of each solve the
        whole state; built unaudited they run none."""
        calls = count_checks(monkeypatch)
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        solver, theory = make_theory(2, [])
        assert solver.audit is False and theory.audit is False
        with audit_scope(True):
            solver, theory = make_theory(2, [])
        assert solver.audit and theory.audit and theory.detector.audit
        reorder_then_backjump(solver, theory)
        assert {
            "check_icd_reorder",
            "check_theory_push",
            "check_theory_pop",
            "check_icd_labels",
            "check_theory_sync",
        } <= set(calls)
        assert calls.count("check_theory_sync") == 2  # once per solve
        del calls[:]
        monkeypatch.setenv("REPRO_AUDIT", "1")
        with audit_scope(False):
            assert audit_enabled() is False
            with audit_scope(True):
                assert audit_enabled() is True
            solver, theory = make_theory(2, [])
        assert not (solver.audit or theory.audit or theory.detector.audit)
        assert audit_enabled() is True
        reorder_then_backjump(solver, theory)
        assert calls == []

    @pytest.mark.parametrize("audit", [False, True])
    def test_config_overrides_env_both_ways(self, monkeypatch, audit):
        """Under ``REPRO_AUDIT=1`` the components are built auditing;
        the verification's resolved config decides whether they do."""
        calls = count_checks(monkeypatch)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        result = verify(UNSAFE_SRC, VerifierConfig(audit=audit))
        assert result.verdict == Verdict.UNSAFE
        assert bool(calls) is audit
        if audit:
            assert "check_icd_labels" in calls


class TestIcdLabels:
    def test_consistent_graph_passes(self):
        g = EventGraph(4)
        det = IncrementalCycleDetector(g)
        det.add_edge(Edge(2, 1, EdgeKind.PO))
        det.add_edge(Edge(1, 3, EdgeKind.PO))
        check_icd_labels(g)

    def test_corrupted_label_caught(self):
        g = EventGraph(3)
        det = IncrementalCycleDetector(g)
        det.add_edge(Edge(0, 1, EdgeKind.PO))
        g.ord[0], g.ord[1] = g.ord[1], g.ord[0]  # break the discipline
        with pytest.raises(AuditError):
            check_icd_labels(g)

    def test_non_permutation_caught(self):
        g = EventGraph(3)
        g.ord[0] = g.ord[1]
        with pytest.raises(AuditError):
            check_icd_labels(g)

    def test_detector_window_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        g = EventGraph(5)
        det = IncrementalCycleDetector(g)
        assert det.audit is True
        # Force real reorders; a correct reorder must not raise.
        det.add_edge(Edge(3, 2, EdgeKind.PO))
        det.add_edge(Edge(2, 1, EdgeKind.PO))
        det.add_edge(Edge(4, 0, EdgeKind.PO))
        check_icd_labels(g)


class TestTheorySync:
    def test_clean_theory_passes(self):
        solver, theory = make_theory(3, [(0, 1)])
        v = solver.new_var(relevant=True)
        theory.add_rf_var(v, 1, 2)
        assert solver.solve([v]) == SolveResult.SAT
        check_theory_sync(theory)

    def test_popped_index_desync_caught(self):
        solver, theory = make_theory(3, [])
        v = solver.new_var(relevant=True)
        theory.add_rf_var(v, 0, 1)
        theory.assign(v, 1)
        theory._out_rf[0].pop()  # simulate a lost index entry
        with pytest.raises(AuditError):
            check_theory_sync(theory)

    def test_stale_trail_entry_caught(self):
        solver, theory = make_theory(3, [])
        v = solver.new_var(relevant=True)
        theory.add_ws_var(v, 0, 1)
        theory.assign(v, 1)
        edge = theory._trail[-1][0]
        # Deactivate behind the theory's back: trail and graph now disagree.
        theory.graph.deactivate(edge)
        with pytest.raises(AuditError):
            check_theory_sync(theory)


class TestUnitEdgeReasons:
    """Unit-edge propagation reasons are lemmas: the proof checker accepts
    real cycles and rejects reasons that miss a path, drop an FR premise
    or omit the inserted edge; the SAT core's reason check rejects one
    that names an edge no longer set."""

    def _chain(self):
        # RF 0 -> 1, WS 1 -> 2 active; inactive WS 2 -> 0 closes the cycle.
        solver, theory = make_theory(3, [])
        a = solver.new_var(relevant=True)
        theory.add_rf_var(a, 0, 1)
        b = solver.new_var(relevant=True)
        theory.add_ws_var(b, 1, 2)
        c = solver.new_var(relevant=True)
        theory.add_ws_var(c, 2, 0)
        return solver, theory, a, b, c

    def _offered(self):
        solver, theory, a, b, c = self._chain()
        theory.assign(a, 1)
        res = theory.assign(b, 2)
        assert materialised(res) == [(-c, [-c, -a, -b])]
        return ProofChecker(), theory.proof_data(), a, b, c

    def test_real_cycle_passes(self):
        checker, data, a, b, c = self._offered()
        checker.check([("theory", [-c, -a, -b])], data)
        assert checker.lemmas == 1

    def test_missing_path_literal_caught(self):
        checker, data, a, b, c = self._offered()
        with pytest.raises(AuditError, match="no cycle"):
            checker.check([("theory", [-c, -b])], data)

    def test_inserted_edge_required(self):
        checker, data, a, b, c = self._offered()
        with pytest.raises(AuditError, match="no cycle"):
            checker.check([("theory", [-c, -a])], data)

    def test_inactive_reason_edge_caught(self):
        solver, theory, a, b, c = self._chain()
        assert solver.solve([a, b]) == SolveResult.SAT
        check_propagation_reason(solver.value, -c, [-c, -a, -b])
        solver._backjump(1)  # b's edge is gone
        with pytest.raises(AuditError, match=f"non-false literal {-b}"):
            check_propagation_reason(solver.value, -c, [-c, -a, -b])

    def test_fr_premise_required(self):
        # RF 0 -> 1 and WS 0 -> 2 derive FR 1 -> 2.  Inserting WS 2 -> 3
        # makes the inactive RF 3 -> 1 close 1 -fr-> 2 -> 3 -> 1, a cycle
        # whose FR edge holds only with both of its premises.
        solver, theory = make_theory(4, [])
        rf = solver.new_var(relevant=True)
        theory.add_rf_var(rf, 0, 1)
        ws = solver.new_var(relevant=True)
        theory.add_ws_var(ws, 0, 2)
        n = solver.new_var(relevant=True)
        theory.add_ws_var(n, 2, 3)
        x = solver.new_var(relevant=True)
        theory.add_rf_var(x, 3, 1)
        assert not theory.assign(rf, 1).propagations
        assert not theory.assign(ws, 2).propagations
        res = theory.assign(n, 3)
        assert materialised(res) == [(-x, [-x, -rf, -ws, -n])]
        checker, data = ProofChecker(), theory.proof_data()
        checker.check([("theory", [-x, -rf, -ws, -n])], data)
        with pytest.raises(AuditError, match="no cycle"):
            checker.check([("theory", [-x, -rf, -n])], data)

    def test_stale_candidate_index_caught(self):
        solver, theory, a, b, c = self._chain()
        theory.assign(a, 1)
        theory.assign(b, 2)
        theory._refresh_candidates()
        check_theory_sync(theory)
        theory.graph.ord.reverse()  # labels moved behind the index's back
        with pytest.raises(AuditError):
            check_theory_sync(theory)

    def test_dropped_path_literal_fails_the_solve(self, monkeypatch):
        """End to end: a path reason that drops a literal still gives the
        SAT core a unit reason, and the checker rejects it at the end of
        the audited solve."""
        import repro.ordering.solver as theory_mod

        path_reason = theory_mod.path_reason
        monkeypatch.setattr(
            theory_mod, "path_reason", lambda *a: path_reason(*a)[:-1]
        )
        with audit_scope(True):
            solver, theory, a, b, c = self._chain()
        solver.add_clause([a])
        solver.add_clause([b])
        with pytest.raises(AuditError, match="no cycle") as excinfo:
            solver.solve()
        assert raised_in(excinfo, "_certify")


class _NoAppend(list):
    def append(self, item):
        pass


class TestPlantedMutations:
    """Bugs planted in the production callbacks raise at the callback
    that caused them, through the owner's delta check."""

    def test_reorder_moving_a_label_outside_its_window(self, monkeypatch):
        reorder = IncrementalCycleDetector._reorder

        def broken(self, back_nodes, fwd_nodes):
            reorder(self, back_nodes, fwd_nodes)
            window = back_nodes + fwd_nodes
            x, y = [n for n in range(self.graph.n) if n not in window][:2]
            self.graph.ord[x], self.graph.ord[y] = self.graph.ord[y], self.graph.ord[x]

        monkeypatch.setattr(IncrementalCycleDetector, "_reorder", broken)
        with audit_scope(True):
            solver, theory = make_theory(4, [])
        a = solver.new_var(relevant=True)
        theory.add_rf_var(a, 1, 0)  # against the labels: a reorder
        with pytest.raises(AuditError, match="outside its window") as excinfo:
            solver.solve([a])
        assert raised_in(excinfo, "_audited_assign")

    def test_backjump_leaving_a_popped_edge_active(self, monkeypatch):
        def broken(self, edge):
            self.graph.deactivate(edge)
            self.graph.out[edge.src].append(edge)

        with audit_scope(True):
            solver, theory = make_theory(2, [])
        a = solver.new_var(relevant=True)
        theory.add_rf_var(a, 0, 1)
        assert solver.solve([a]) == SolveResult.SAT
        monkeypatch.setattr(IncrementalCycleDetector, "remove_edge", broken)
        with pytest.raises(AuditError, match="left the popped edge") as excinfo:
            solver.solve([-a])
        assert raised_in(excinfo, "_audited_backjump")

    def test_activation_skipping_the_rf_index(self):
        with audit_scope(True):
            solver, theory = make_theory(2, [])
        a = solver.new_var(relevant=True)
        theory.add_rf_var(a, 0, 1)
        theory._out_rf[0] = _NoAppend()  # _activate's push is lost
        with pytest.raises(AuditError, match=r"_out_rf\[0\]") as excinfo:
            solver.solve([a])
        assert raised_in(excinfo, "_audited_assign")

    def test_idl_backjump_leaving_a_popped_edge_active(self, monkeypatch):
        """The IDL baseline (the ``cbmc`` preset's theory) has no
        per-callback checks; its trail's sync is checked once per
        audited solve, from the proof data it hands the checker."""
        def broken(self, level):
            while self._trail and self._trail[-1][1] > level:
                self._trail.pop()  # the edge stays in graph.out

        with audit_scope(True):
            theory = IdlTheory(2, [])
            solver = Solver(theory)
        assert theory.audit
        a = solver.new_var(relevant=True)
        theory.add_rf_var(a, 0, 1)
        assert solver.solve([a]) == SolveResult.SAT
        monkeypatch.setattr(IdlTheory, "backjump", broken)
        with pytest.raises(AuditError, match="disagree") as excinfo:
            solver.solve([-a])
        assert raised_in(excinfo, "_certify")

    def test_idl_audited_verification_checks_the_trail(self, monkeypatch):
        calls = count_checks(monkeypatch)
        for src, verdict in (
            (SAFE_SRC, Verdict.SAFE), (UNSAFE_SRC, Verdict.UNSAFE)
        ):
            result = verify(src, VerifierConfig.cbmc(audit=True))
            assert result.verdict == verdict
        assert "check_trail_sync" in calls
        assert "check_theory_sync" not in calls


class TestFrConflictTrailSync:
    """Regression: when ``_derive_from_read`` hits a cycle *after* the
    parent RF/WS edge was already pushed (trail + partner indices), the
    theory state must stay consistent through the conflict and across the
    subsequent backjump."""

    def _setup(self):
        # PO: 2 -> 1.  RF: 0 -> 1.  WS: 0 -> 2.  Activating both variable
        # edges derives FR (1, 2) by Axiom 2, which closes a cycle with
        # the PO edge -- inside the *second* activation, whose parent edge
        # is already on the trail.
        solver, theory = make_theory(3, [(2, 1)])
        rf = solver.new_var(relevant=True)
        theory.add_rf_var(rf, 0, 1)
        ws = solver.new_var(relevant=True)
        theory.add_ws_var(ws, 0, 2)
        return solver, theory, rf, ws

    def test_conflict_leaves_state_consistent(self):
        _, theory, rf, ws = self._setup()
        res = theory.assign(rf, level=1)
        assert not res.conflicts
        check_theory_sync(theory)
        res = theory.assign(ws, level=2)
        assert res.conflicts, "derived FR must close the PO cycle"
        # Parent WS edge stays active (the SAT core will backjump); the
        # trail, indices and graph must nonetheless agree.
        check_theory_sync(theory)
        check_icd_labels(theory.graph)

    def test_backjump_after_fr_conflict_restores(self):
        _, theory, rf, ws = self._setup()
        theory.assign(rf, level=1)
        theory.assign(ws, level=2)
        theory.backjump(1)
        check_theory_sync(theory)
        assert len(theory._out_ws[0]) == 0
        assert len(theory._out_rf[0]) == 1
        theory.backjump(0)
        check_theory_sync(theory)
        assert theory._trail == []
        assert theory.graph.n_active_edges == 1  # the PO edge

    def test_end_to_end_under_solver(self):
        solver, theory, rf, ws = self._setup()
        solver.add_clause([rf])
        solver.add_clause([ws])
        assert solver.solve() == SolveResult.UNSAT
        check_theory_sync(theory)

    def test_audited_solve(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        solver, theory, rf, ws = self._setup()
        assert theory.audit is True
        solver.add_clause([rf])
        solver.add_clause([ws])
        assert solver.solve() == SolveResult.UNSAT


class TestSatChecks:
    def test_conflict_clause_falsified_ok(self):
        values = {1: True, 2: True}

        def value_of(lit):
            v = values.get(abs(lit))
            return v if v is None or lit > 0 else not v

        check_conflict_clause(value_of, [-1, -2])
        with pytest.raises(AuditError):
            check_conflict_clause(value_of, [-1, 2])
        with pytest.raises(AuditError):
            check_conflict_clause(value_of, [-1, 3])  # 3 unassigned

    def test_propagation_reason(self):
        values = {1: True, 2: False}

        def value_of(lit):
            v = values.get(abs(lit))
            return v if v is None or lit > 0 else not v

        check_propagation_reason(value_of, 3, [3, -1, 2])
        with pytest.raises(AuditError):
            check_propagation_reason(value_of, 3, [-1, 2])  # lit missing
        with pytest.raises(AuditError):
            check_propagation_reason(value_of, 3, [3, 1])  # 1 is true


class TestEndToEndAudit:
    """Audited verification of whole programs: verdicts unchanged, and a
    deliberately broken invariant surfaces as a contained ERROR."""

    def test_verdicts_unchanged_under_audit(self):
        for src, expected in ((UNSAFE_SRC, Verdict.UNSAFE), (SAFE_SRC, Verdict.SAFE)):
            plain = verify(src, VerifierConfig(audit=False))
            audited = verify(src, VerifierConfig(audit=True))
            assert plain.verdict == expected
            assert audited.verdict == expected

    def test_audit_env_flows_through_verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        result = verify(UNSAFE_SRC, VerifierConfig())
        assert result.verdict == Verdict.UNSAFE

    def test_unsat_core_audit_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a, b])
        assert solver.solve(assumptions=[-b]) == SolveResult.UNSAT
        assert solver.unsat_core == [-b]
        assert solver.checker.certified == 1
        assert solver.proof == []  # every entry checked
        # A core that is not a failing subset is rejected.
        with pytest.raises(AuditError, match="not RUP"):
            solver.checker.certify_unsat([a], [a])
        with pytest.raises(AuditError, match="not among the assumptions"):
            solver.checker.certify_unsat([-b], [a])
        # The checker keeps its clauses across incremental solves.
        assert solver.solve(assumptions=[b]) == SolveResult.SAT
        assert solver.checker.models == 1

    def test_checker_counters_in_stats(self):
        """Under audit the proof checker's counters ride along as stats
        extras, summed over the run's solves: a bug three loop iterations
        deep is UNSAT at bounds 1 and 2 (two certified answers) and SAT
        at bound 4 (one model checked)."""
        from tests.verify.programs import LOOP_SUM_SAFE

        deep_bug = LOOP_SUM_SAFE.replace("x == 3", "x != 3")
        stats = {}
        for audit in (False, True):
            config = VerifierConfig.zord(
                unwind=4, unwind_schedule=(1, 2, 4), audit=audit
            )
            result = verify(deep_bug, config)
            assert result.verdict == Verdict.UNSAFE
            stats[audit] = result.stats
        assert not [k for k in stats[False] if k.startswith("certify_")]
        assert stats[True]["certify_certified"] == 2
        assert stats[True]["certify_models"] == 1
        assert stats[True]["certify_rup"] >= 0
        assert stats[True]["certify_lemmas"] >= 0
        assert stats[True]["certify_time_s"] > 0

    def test_ablations_pass_audited(self):
        for preset in ("zord", "zord-", "zord'", "zord-tarjan", "cbmc"):
            from repro.verify.config import PRESETS

            cfg = PRESETS[preset](audit=True, unwind=3)
            assert verify(UNSAFE_SRC, cfg).verdict == Verdict.UNSAFE
