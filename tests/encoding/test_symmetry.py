"""SYMMETRY edges (:mod:`repro.encoding.symmetry`): which programs get
them, which are refused, and what the proof log sees."""

import pytest

from repro import api
from repro.analysis.prune import build_prune_plan
from repro.encoding.encoder import add_unwind_bound, encode_program
from repro.frontend import build_symbolic_program
from repro.lang import parse
from repro.oracle.audit import audit_scope
from repro.oracle.certify import ProofChecker
from repro.sat import SolveResult
from repro.verify import VerifierConfig

COUNTER = """
int c = 0;
lock m;
thread t0 { int a; lock(m); a = c; c = a + 1; unlock(m); }
thread t1 { int a; lock(m); a = c; c = a + 1; unlock(m); }
thread t2 { int a; lock(m); a = c; c = a + 1; unlock(m); }
main { start t0; start t1; start t2; join t0; join t1; join t2;
       assert(c == 3); }
"""


def encode(src, unwind=2, level=2, symmetric=True, **kw):
    sym = build_symbolic_program(
        parse(src), unwind=unwind, unwind_assumptions=kw.pop("schedule", False)
    )
    plan = build_prune_plan(sym, level)
    if not symmetric:
        plan.symmetric_threads = []
    return encode_program(sym, prune_plan=plan, **kw)


def zord(**kw):
    """Zord at the default prune level and one bound, whatever the
    environment says."""
    kw = {"unwind": 2, "prune_level": 2, "unwind_schedule": (), **kw}
    return VerifierConfig.zord(**kw)


def first_events(enc):
    return {
        t.name: next(e.eid for e in t.events if e.kind != "A")
        for t in enc.symbolic.threads
    }


class TestBreaking:
    def test_identical_threads_are_chained_by_first_events(self):
        enc = encode(COUNTER)
        first = first_events(enc)
        assert [s.edge for s in enc.theory.symmetries] == [
            (first["t0"], first["t1"]),
            (first["t1"], first["t2"]),
        ]
        assert enc.stats.symmetry_edges == 2
        assert enc.solver.solve() == SolveResult.UNSAT

    def test_edges_are_not_program_order(self):
        enc = encode(COUNTER)
        edges, po, swaps = enc.theory.proof_data()
        assert [s[0] for s in swaps] == [s.edge for s in enc.theory.symmetries]
        assert not set(po) & {s[0] for s in swaps}
        # Pruning and the static lemmas saw the program's own order.
        (a, b), _, _ = swaps[0]
        assert not (enc.theory.po_reach[a] >> b) & 1
        assert (enc.theory._po_reach[a] >> b) & 1

    def test_fewer_conflicts_same_verdict(self):
        with_edges = api.verify(COUNTER, zord())
        without = api.verify(COUNTER, zord(prune_level=1))
        assert with_edges.is_safe and without.is_safe
        assert with_edges.stats["symmetry_edges"] == 2
        assert without.stats["symmetry_edges"] == 0
        assert with_edges.stats["conflicts"] < without.stats["conflicts"]

    def test_unsafe_witness_still_replays(self):
        racy = COUNTER.replace(" lock(m);", "").replace(" unlock(m);", "")
        result = api.verify(racy, zord())
        assert result.verdict == "unsafe"
        assert result.stats["symmetry_edges"] == 2
        assert result.witness is not None

    def test_the_input_log_is_the_unbroken_one(self):
        """Breaking edges join the skeleton after the formula is complete:
        the clauses given to the solver are exactly those of the same
        encoding without them."""
        logs = []
        for symmetric in (True, False):
            with audit_scope(True):
                enc = encode(COUNTER, symmetric=symmetric)
            logs.append([lits for tag, lits in enc.solver.proof if tag == "input"])
        assert logs[0] == logs[1]

    def test_deepening_bounds_are_permuted_among_themselves(self):
        src = """
        int c = 0;
        lock m;
        thread t0 { lock(m); int n = c; while (n < 2) { n = n + 1; } c = n; unlock(m); }
        thread t1 { lock(m); int n = c; while (n < 2) { n = n + 1; } c = n; unlock(m); }
        main { start t0; start t1; join t0; join t1; assert(c <= 2); }
        """
        with audit_scope(True):
            enc = encode(src, unwind=3, schedule=True)
        assert enc.stats.symmetry_edges == 1
        for bound in (1, 2, 3):
            u = add_unwind_bound(enc, bound)
            assert u is not None
            assert enc.solver.solve([u]) == SolveResult.UNSAT
        assert enc.solver.checker.symmetries == 1
        assert enc.solver.checker.certified == 3


class TestRefusal:
    @pytest.mark.parametrize(
        "old, new, chained",
        [
            # t1 stores another constant.
            ("a = c; c = a + 1; unlock(m); }\nthread t2",
             "a = c; c = a + 2; unlock(m); }\nthread t2", []),
            # main writes shared memory between the first two starts.
            ("start t1;", "c = 5; start t1;", [("t1", "t2")]),
            # An assertion in t1 over its local only: the same events.
            ("a = c; c = a + 1; unlock(m); }\nthread t2",
             "a = c; c = a + 1; unlock(m); assert(a != 7); }\nthread t2", []),
        ],
        ids=["constant", "main-write", "assert"],
    )
    def test_near_symmetric_threads_are_not_chained(self, old, new, chained):
        assert old in COUNTER
        enc = encode(COUNTER.replace(old, new))
        first = first_events(enc)
        assert [s.edge for s in enc.theory.symmetries] == [
            (first[a], first[b]) for a, b in chained
        ]

    def test_guarded_first_event_gets_no_edge(self):
        src = """
        int x = 0;
        thread t0 { int n = nondet(); if (n == 1) { x = 1; } x = 2; }
        thread t1 { int n = nondet(); if (n == 1) { x = 1; } x = 2; }
        main { start t0; start t1; join t0; join t1; assert(x == 2); }
        """
        enc = encode(src)
        assert build_prune_plan(enc.symbolic, 2).symmetric_threads == []
        assert enc.stats.symmetry_edges == 0

    @pytest.mark.parametrize("model", ["tso", "pso"])
    def test_weak_memory_models_get_no_edge(self, model):
        enc = encode(COUNTER, memory_model=model)
        assert enc.stats.symmetry_edges == 0
        result = api.verify(COUNTER, zord(memory_model=model))
        assert result.is_safe and result.stats["symmetry_edges"] == 0

    @pytest.mark.parametrize("level", [0, 1])
    def test_lower_prune_levels_get_no_edge(self, level):
        assert encode(COUNTER, level=level).stats.symmetry_edges == 0

    def test_idl_baseline_gets_no_edge(self):
        result = api.verify(COUNTER, VerifierConfig.cbmc(unwind=2))
        assert result.is_safe and result.stats["symmetry_edges"] == 0


def test_checker_admits_the_encoders_swaps():
    with audit_scope(True):
        enc = encode(COUNTER)
    checker = ProofChecker()
    checker.check(enc.solver.proof, enc.theory.proof_data())
    assert checker.symmetries == 2
