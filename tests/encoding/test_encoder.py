"""Unit tests for the whole-program encoder (Section 3 constraints)."""

import pytest

from repro.encoding.encoder import encode_program
from repro.frontend import build_symbolic_program
from repro.lang import parse
from repro.sat import SolveResult


def encode(src, unwind=4, **kw):
    sym = build_symbolic_program(parse(src), unwind=unwind)
    return encode_program(sym, **kw)


class TestVariableCreation:
    SRC = """
    int x = 0;
    thread t1 { x = 1; }
    thread t2 { int a; a = x; }
    main { start t1; start t2; join t1; join t2; assert(x == 1); }
    """

    def test_rf_variables_per_read_write_pair(self):
        enc = encode(self.SRC)
        # Reads of x: t2's read + main's assert read.  Writes: init, t1's.
        # t2's read: 2 candidates.  main's read (after the joins): the init
        # write is statically shadowed by t1's unconditional write, so only
        # 1 candidate survives the static from-read pruning.
        assert enc.stats.rf_vars == 3

    def test_ws_variables_per_write_pair(self):
        enc = encode(self.SRC)
        # One unordered write pair (init, t1) -> two directed vars.
        assert enc.stats.ws_vars == 2

    def test_no_fr_vars_by_default(self):
        enc = encode(self.SRC)
        assert enc.stats.fr_vars == 0

    def test_sat_clauses_counts_stored_problem_clauses(self):
        enc = encode(self.SRC)
        assert enc.stats.sat_clauses == enc.solver.num_clauses > 0

    def test_fr_vars_in_zord_minus_mode(self):
        enc = encode(self.SRC, fr_encoding=True)
        assert enc.stats.fr_vars > 0

    def test_po_later_writes_pruned_from_rf_candidates(self):
        # A read can never read from a write that is PO-after it.
        src = """
        int x = 0;
        thread t { int a; a = x; x = 1; assert(a == 0); }
        """
        enc = encode(src)
        # t's read candidates: only the init write (t's own write is after).
        read = next(e for e in enc.symbolic.reads_of("x"))
        candidates = [
            (w, r) for (w, r) in enc.rf_vars.values() if r.eid == read.eid
        ]
        assert len(candidates) == 1
        assert candidates[0][0].thread == "main"  # the init write

    def test_trivially_safe_without_asserts(self):
        enc = encode("int x; thread t { x = 1; }")
        assert enc.trivially_safe


class TestSemanticCorrectness:
    def test_read_must_see_some_write(self):
        # x only ever 0 or 1; reading 7 impossible -> assert(x != 7) safe.
        src = """
        int x = 0;
        thread t { x = 1; }
        main { start t; join t; assert(x != 7); }
        """
        enc = encode(src)
        assert enc.solver.solve() == SolveResult.UNSAT

    def test_coherence_enforced_by_theory(self):
        # Single thread: later read must not see the earlier write.
        src = """
        int x = 0;
        thread t { x = 1; x = 2; int a; a = x; }
        main { start t; join t; assert(x == 2); }
        """
        enc = encode(src)
        assert enc.solver.solve() == SolveResult.UNSAT

    def test_rmw_atomicity_constraint(self):
        # Two atomic increments can never both read the initial value.
        src = """
        int x = 0;
        thread t1 { atomic { x = x + 1; } }
        thread t2 { atomic { x = x + 1; } }
        main { start t1; start t2; join t1; join t2; assert(x == 2); }
        """
        enc = encode(src)
        assert enc.solver.solve() == SolveResult.UNSAT

    def test_without_atomic_lost_update_possible(self):
        src = """
        int x = 0;
        thread t1 { int a; a = x; x = a + 1; }
        thread t2 { int a; a = x; x = a + 1; }
        main { start t1; start t2; join t1; join t2; assert(x == 2); }
        """
        enc = encode(src)
        assert enc.solver.solve() == SolveResult.SAT  # violation reachable

    def test_initial_unit_clauses_added(self):
        # PO-contradicted ws variables must be fixed false up front.
        src = """
        int x = 0;
        thread t { x = 1; x = 2; assert(x == 2); }
        """
        sym = build_symbolic_program(parse(src))
        enc = encode_program(sym)
        units = enc.theory.initial_unit_clauses()
        assert units  # at least ws(later, earlier) fixed false


class TestGuards:
    def test_disabled_branch_write_not_forced(self):
        # The write in the dead branch must not constrain the final value.
        src = """
        int x = 0, y = 5;
        thread t { if (y == 99) { x = 1; } }
        main { start t; join t; assert(x == 0); }
        """
        enc = encode(src)
        assert enc.solver.solve() == SolveResult.UNSAT  # safe: branch dead

    def test_enabled_branch_write_visible(self):
        src = """
        int x = 0, y = 99;
        thread t { if (y == 99) { x = 1; } }
        main { start t; join t; assert(x == 0); }
        """
        enc = encode(src)
        assert enc.solver.solve() == SolveResult.SAT  # x == 1 reachable
