"""The prune plan: rule-level unit tests against the encoder."""

import os
from dataclasses import asdict

from repro.analysis.prune import build_prune_plan
from repro.encoding.encoder import encode_program
from repro.frontend import build_symbolic_program
from repro.lang import parse
from repro.sat import SolveResult
from tests.verify.programs import LOCKED_COUNTER_SAFE

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples", "programs"
)


def _sym(source, unwind=4):
    return build_symbolic_program(parse(source), unwind=unwind, width=8)


def _encode_pair(source, level=2, unwind=4):
    """Encode with and without a plan; return (baseline, pruned)."""
    base = encode_program(_sym(source, unwind))
    sym = _sym(source, unwind)
    pruned = encode_program(sym, prune_plan=build_prune_plan(sym, level))
    return base, pruned


class TestPlanConstruction:
    def test_level_zero_is_empty(self):
        plan = build_prune_plan(_sym(LOCKED_COUNTER_SAFE), 0)
        assert plan.level == 0
        assert plan.po_reach == []

    def test_level_zero_plan_encodes_as_no_plan(self):
        with open(os.path.join(EXAMPLES, "counter_racy.c")) as fh:
            racy = fh.read()
        for source in (racy, LOCKED_COUNTER_SAFE):
            base, level0 = _encode_pair(source, level=0)
            assert asdict(level0.stats) == asdict(base.stats)
            assert level0.solver.nvars == base.solver.nvars
            assert level0.theory.ordering_edges() == base.theory.ordering_edges()
            assert level0.solver.solve() == base.solver.solve()

    def test_level_one_skips_lock_facts(self):
        plan = build_prune_plan(_sym(LOCKED_COUNTER_SAFE), 1)
        assert plan.po_reach
        assert not plan.acquire_reads

    def test_level_two_collects_lock_facts(self):
        plan = build_prune_plan(_sym(LOCKED_COUNTER_SAFE), 2)
        assert plan.acquire_reads and plan.acquire_writes

    def test_level_clamped(self):
        plan = build_prune_plan(_sym(LOCKED_COUNTER_SAFE), 99)
        assert plan.level == 2


class TestEncodingShrinks:
    def test_po_ws_rule_halves_sequential_ws_vars(self):
        # All writes to x are in one thread: every WS pair is PO-ordered,
        # so exactly one var per pair survives.
        src = """
        int x = 0;
        thread t { x = 1; x = 2; x = 3; }
        main { start t; join t; assert(x == 3); }
        """
        base, pruned = _encode_pair(src, level=1)
        assert pruned.stats.ws_vars * 2 == base.stats.ws_vars
        assert pruned.stats.analysis_pairs_pruned > 0
        assert (
            pruned.stats.analysis_pairs_total
            == base.stats.analysis_pairs_total
        )

    def test_lock_val_rule_prunes_acquire_rf(self):
        base, pruned = _encode_pair(LOCKED_COUNTER_SAFE, level=2)
        level1 = encode_program(
            (sym := _sym(LOCKED_COUNTER_SAFE)),
            prune_plan=build_prune_plan(sym, 1),
        )
        assert pruned.stats.rf_vars < level1.stats.rf_vars
        assert level1.stats.rf_vars <= base.stats.rf_vars

    def test_guard_shadow_rule(self):
        # Both writes in the branch are under the same guard; the first
        # one is shadowed for the PO-later read even though it is not
        # unconditional (the baseline skip cannot see it).
        src = """
        int x = 0; int f = 0;
        thread t { if (f == 0) { x = 1; x = 2; } }
        thread u { f = 1; }
        main { start t; start u; join t; join u; assert(x != 1); }
        """
        base, pruned = _encode_pair(src, level=1)
        assert pruned.stats.rf_vars < base.stats.rf_vars

    def test_stats_totals_identical_across_levels(self):
        base, pruned = _encode_pair(LOCKED_COUNTER_SAFE, level=2)
        assert (
            base.stats.analysis_pairs_total
            == pruned.stats.analysis_pairs_total
        )
        assert base.stats.analysis_pairs_pruned == 0
        assert pruned.stats.analysis_pairs_pruned > 0


class TestSolverEquivalence:
    def test_sat_answer_identical(self):
        for src in (
            LOCKED_COUNTER_SAFE,
            """
            int x = 0;
            thread t1 { x = x + 1; }
            thread t2 { x = x + 1; }
            main { start t1; start t2; join t1; join t2; assert(x == 2); }
            """,
        ):
            base, pruned = _encode_pair(src)
            a = base.solver.solve()
            b = pruned.solver.solve()
            assert a == b
            assert a in (SolveResult.SAT, SolveResult.UNSAT)
