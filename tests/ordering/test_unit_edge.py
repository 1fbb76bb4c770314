"""Unit-edge propagation (Section 5.4) against brute force.

After every accepted insertion ``(u, v)`` the theory must propagate false
exactly the live inactive edges ``(f, b)`` with ``v ⇝ f`` and ``b ⇝ u``
-- whatever the detector, and whether or not ICD took its fast path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oracle.audit import audit_scope, check_theory_sync
from repro.oracle.certify import ProofChecker
from repro.ordering import OrderingTheory
from repro.sat import Solver
from repro.sat.theory import reason_lits
from tests.ordering.graph_helpers import has_path


def materialised(result):
    """``result``'s propagations with every reason as its literal list."""
    return [(lit, reason_lits(reason)) for lit, reason in result.propagations]


class _Run:
    """One audited theory driven by hand: the test owns the assignment
    array, as the SAT core would, and falsifies every variable the theory
    offers; the proof checker accepts every offered reason as a cycle.
    With ``lazy`` the reasons are left unmaterialised (and unchecked)."""

    def __init__(self, n, po, edges, detector, fr_propagation, lazy=False):
        self.lazy = lazy
        with audit_scope(True):
            self.theory = OrderingTheory(
                n, po, detector=detector, fr_propagation=fr_propagation
            )
        self.assign = [0] * (len(edges) + 1)
        self.theory.attach(self.assign)
        self.level_of = {}
        for var, (kind, a, b) in enumerate(edges, start=1):
            getattr(self.theory, f"add_{kind}_var")(var, a, b)
        self.checker = ProofChecker()
        self.checker.check([], self.theory.proof_data())
        for (lit,) in self.theory.initial_unit_clauses():
            self.set(lit, 0)

    def set(self, lit, level):
        self.assign[abs(lit)] = 1 if lit > 0 else -1
        self.level_of[abs(lit)] = level
        res = self.theory.assign(lit, level)
        if not self.lazy:
            self.checker.check([("theory", r) for _, r in materialised(res)])
        return res

    def backjump(self, level):
        for var, lvl in list(self.level_of.items()):
            if lvl > level:
                self.assign[var] = 0
                del self.level_of[var]
        self.theory.backjump(level)

    def closing(self):
        """Brute force: live inactive edges that would close a cycle."""
        g = self.theory.graph
        return {
            var
            for var, e in self.theory._edge_of_var.items()
            if not e.active and self.assign[var] != -1 and has_path(g, e.dst, e.src)
        }


def _instance(rng, n, n_edges):
    po = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15]
    edges = []
    for _ in range(n_edges):
        a, b = rng.sample(range(n), 2)
        edges.append((rng.choice(("rf", "ws")), a, b))
    return po, edges


def _drive(rng, n, po, edges, fr_propagation, steps=40, lazy=False):
    """Replay one random assign/falsify/backjump sequence under both
    detectors in lockstep; return the offered propagations of each, with
    their reasons materialised at offer time (as lists), or with ``lazy``
    as the theory gave them."""
    runs = {
        d: _Run(n, po, edges, d, fr_propagation, lazy) for d in ("icd", "tarjan")
    }
    offered = {d: [] for d in runs}
    level = 0
    nvars = len(edges)
    for _ in range(steps):
        op = rng.random()
        if op < 0.15 and level > 0:
            level = rng.randrange(level)
            for run in runs.values():
                run.backjump(level)
            continue
        free = [v for v in range(1, nvars + 1) if runs["icd"].assign[v] == 0]
        if not free:
            break
        var = rng.choice(free)
        level += 1
        lit = var if op < 0.8 else -var
        results = {}
        for d, run in runs.items():
            # Invariant: every closing edge was offered and falsified.
            assert run.closing() == set(), d
            res = run.set(lit, level)
            results[d] = res
            if res.conflicts:
                continue
            got = {-p for p, _ in res.propagations}
            # Only edges that close a cycle now, and all of them.
            assert got == run.closing(), (d, lit)
            if not fr_propagation and lit > 0:
                # One insertion (u, v): exactly the pairs v ⇝ f, b ⇝ u.
                e = run.theory._edge_of_var[var]
                g = run.theory.graph
                want = {
                    w
                    for w, x in run.theory._edge_of_var.items()
                    if not x.active
                    and run.assign[w] != -1
                    and has_path(g, e.dst, x.src)
                    and has_path(g, x.dst, e.src)
                }
                assert got == want
            offered[d].append(
                list(res.propagations) if lazy else materialised(res)
            )
        assert bool(results["icd"].conflicts) == bool(results["tarjan"].conflicts)
        if results["icd"].conflicts:
            level -= 1
            for run in runs.values():
                run.backjump(level)
            continue
        # The SAT core would falsify every offered literal.
        for run in runs.values():
            for p, _ in results["icd"].propagations:
                if run.assign[abs(p)] == 0:
                    run.set(p, level)
            check_theory_sync(run.theory)
    return offered


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 9),
    n_edges=st.integers(2, 24),
    fr_propagation=st.booleans(),
)
def test_propagation_matches_brute_force(seed, n, n_edges, fr_propagation):
    rng = random.Random(seed)
    po, edges = _instance(rng, n, n_edges)
    offered = _drive(rng, n, po, edges, fr_propagation)
    # Both detectors offer the same literals, in the same order, with the
    # same reasons.
    assert offered["icd"] == offered["tarjan"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 9),
    n_edges=st.integers(2, 24),
    fr_propagation=st.booleans(),
)
def test_lazy_explanations_equal_eager_reasons(seed, n, n_edges, fr_propagation):
    """Every explanation, materialised only after the rest of the run has
    inserted, removed and reordered edges, is the reason clause built at
    offer time (which the proof checker accepts as a cycle)."""
    rng = random.Random(seed)
    po, edges = _instance(rng, n, n_edges)
    state = rng.getstate()
    eager = _drive(rng, n, po, edges, fr_propagation)
    rng.setstate(state)
    lazy = _drive(rng, n, po, edges, fr_propagation, lazy=True)
    for d in eager:
        late = [[(lit, reason_lits(r)) for lit, r in batch] for batch in lazy[d]]
        assert late == eager[d], d


def test_unread_explanations_are_never_built(monkeypatch):
    """Offers the SAT core skips or backjumps over before analysis reads
    them cost no reason: on a real search only a share of the enqueued
    unit-edge reasons is ever materialised, each at most once."""
    from repro.bench.svcomp import svcomp_suite
    from repro.verify import VerifierConfig, verify
    import repro.ordering.solver as theory_mod

    built = []
    lits = theory_mod._UnitEdgeReason.lits
    monkeypatch.setattr(
        theory_mod._UnitEdgeReason, "lits", lambda self: built.append(self) or lits(self)
    )
    task = {t.name: t for t in svcomp_suite()}["complex/fib-2-safe"]
    result = verify(
        task.source,
        VerifierConfig.zord(unwind=task.unwind, prune_level=2, unwind_schedule=(), audit=False),
    )
    enqueued = result.stats["theory_propagations"]
    assert result.stats["theory_unit_propagations"] >= enqueued > 0
    assert 0 < len(built) < enqueued
    assert len({id(e) for e in built}) == len(built)


def test_dead_edges_are_not_offered():
    # 0 -> 1 -> 2 by RF/WS; the closing WS 2 -> 0 is already false.
    run = _Run(3, [], [("rf", 0, 1), ("ws", 1, 2), ("ws", 2, 0)], "icd", True)
    run.set(-3, 1)
    run.set(1, 2)
    res = run.set(2, 3)
    assert res.propagations == []
    assert run.theory.stats.unit_propagations == 0


def test_live_true_edge_still_offered():
    # A closing edge whose variable is true but not yet fed to the theory
    # is live: offering its negation hands the SAT core the conflict.
    run = _Run(3, [], [("rf", 0, 1), ("ws", 1, 2), ("ws", 2, 0)], "icd", True)
    run.assign[3] = 1
    run.set(1, 1)
    res = run.set(2, 2)
    assert materialised(res) == [(-3, [-3, -1, -2])]


def test_reasons_are_cycles_under_a_real_solver(monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(4, 9)
        po, edges = _instance(rng, n, rng.randrange(4, 20))
        theory = OrderingTheory(n, po)
        solver = Solver(theory)
        for kind, a, b in edges:
            var = solver.new_var(relevant=True)
            getattr(theory, f"add_{kind}_var")(var, a, b)
        for clause in theory.initial_unit_clauses():
            solver.add_clause(clause)
        solver.add_clause([v for v in range(1, len(edges) + 1)])
        solver.solve()


@pytest.mark.parametrize(
    "suite,names",
    [
        (
            "svcomp",
            [
                "ext/handoff-3",
                "ldv-races/register-3-locked",
                "C-DAC/transfer-locked",
                "complex/fib-2-unsafe",
            ],
        ),
        ("nidhugg", ["account(4)", "parker(2)", "parker(3)", "parker(4)"]),
    ],
)
def test_detectors_run_the_same_search(suite, names):
    """zord and zord-tarjan differ only in detection cost: every search
    counter is identical."""
    from repro.bench.nidhugg import nidhugg_suite
    from repro.bench.svcomp import svcomp_suite
    from repro.verify import VerifierConfig, verify

    tasks = {t.name: t for t in (svcomp_suite() if suite == "svcomp" else nidhugg_suite())}
    keys = (
        "conflicts",
        "decisions",
        "propagations",
        "watcher_visits",
        "theory_conflicts",
        "theory_propagations",
        "theory_unit_propagations",
    )
    for name in names:
        task = tasks[name]
        icd = verify(task.source, VerifierConfig.zord(unwind=task.unwind))
        tarjan = verify(task.source, VerifierConfig.zord_tarjan(unwind=task.unwind))
        assert icd.verdict == tarjan.verdict
        assert {k: icd.stats[k] for k in keys} == {k: tarjan.stats[k] for k in keys}
        assert icd.stats["theory_unit_propagations"] > 0
