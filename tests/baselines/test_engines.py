"""Every engine must agree with the known verdicts on the corpus.

This is the strongest end-to-end check in the suite: six independently
implemented verification algorithms (DPLL(T_ord), DPLL(T_idl), pure-SAT
closure, explicit-state, bounded sequentialization, stateless DPOR) all
derive the same verdicts.
"""

import pytest

from repro.verify import Verdict, VerifierConfig, verify
from tests.verify.programs import ALL_PROGRAMS

# Engines and the corpus programs they are exact on.  The lazyseq engine is
# an under-approximation (needs enough rounds); the explicit engine
# enumerates a small nondet domain; both caveats hold on this corpus.
ENGINES = {
    "cbmc": VerifierConfig.cbmc,
    "dartagnan": VerifierConfig.dartagnan,
    "cpa-seq": VerifierConfig.cpa_seq,
    "lazy-cseq": VerifierConfig.lazy_cseq,
    "nidhugg-rfsc": VerifierConfig.nidhugg_rfsc,
    "genmc": VerifierConfig.genmc,
}

#: Programs each engine is expected to decide exactly.  nondet_unsafe is
#: excluded for explicit-style engines whose nondet domain is bounded but
#: included where the engine is symbolic.
SYMBOLIC = ("cbmc", "dartagnan")


def _cases():
    for engine_name, factory in sorted(ENGINES.items()):
        for name, source, is_safe in ALL_PROGRAMS:
            # Explicit-enumeration engines cannot prove nondet programs
            # safe (bounded domain -> UNKNOWN) nor find values outside
            # their domain; only the symbolic engines are exact there.
            if name in ("nondet_unsafe", "assume_safe") and engine_name not in SYMBOLIC:
                continue
            yield engine_name, factory, name, source, is_safe


@pytest.mark.parametrize(
    "engine_name,factory,name,source,is_safe",
    list(_cases()),
    ids=[f"{e}-{n}" for e, _f, n, _s, _ in _cases()],
)
def test_engine_verdicts(engine_name, factory, name, source, is_safe):
    config = factory(unwind=4, rounds=3)
    result = verify(source, config)
    expected = Verdict.SAFE if is_safe else Verdict.UNSAFE
    assert result.verdict == expected, (engine_name, name)


class TestIdlSpecifics:
    def test_idl_stats_show_no_propagation(self):
        from tests.verify.programs import PAPER_FIG2

        result = verify(PAPER_FIG2, VerifierConfig.cbmc())
        assert result.verdict == Verdict.SAFE
        assert result.stats["theory_unit_propagations"] == 0
        assert result.stats["theory_fr_derived"] == 0
        assert result.stats["fr_vars"] > 0  # rho_fr encoded upfront

    def test_zord_formula_smaller_than_cbmc(self):
        # The headline encoding-size claim: Zord omits rho_fr.
        from tests.verify.programs import PAPER_FIG2

        zord = verify(PAPER_FIG2, VerifierConfig.zord())
        cbmc = verify(PAPER_FIG2, VerifierConfig.cbmc())
        assert zord.stats["fr_vars"] == 0
        assert cbmc.stats["fr_vars"] > 0
        assert zord.stats["sat_vars"] < cbmc.stats["sat_vars"]

    def test_idl_witness_extraction(self):
        from tests.verify.programs import RACE_UNSAFE

        result = verify(RACE_UNSAFE, VerifierConfig.cbmc())
        assert result.verdict == Verdict.UNSAFE
        assert result.witness is not None


class TestClosureSpecifics:
    def test_closure_reports_hb_vars(self):
        from tests.verify.programs import STORE_BUFFERING

        result = verify(STORE_BUFFERING, VerifierConfig.dartagnan())
        assert result.verdict == Verdict.SAFE
        assert result.stats["hb_vars"] > 0
        assert result.stats["transitivity_clauses"] > 0

    def test_closure_witness(self):
        from tests.verify.programs import RACE_UNSAFE

        result = verify(RACE_UNSAFE, VerifierConfig.dartagnan())
        assert result.verdict == Verdict.UNSAFE
        assert result.witness is not None


class TestSmcSpecifics:
    def test_rfsc_counts_traces(self):
        from tests.verify.programs import STORE_BUFFERING

        result = verify(STORE_BUFFERING, VerifierConfig.nidhugg_rfsc())
        assert result.verdict == Verdict.SAFE
        assert result.stats["traces"] > 1

    def test_genmc_reports_rf_classes(self):
        from tests.verify.programs import STORE_BUFFERING

        result = verify(STORE_BUFFERING, VerifierConfig.genmc())
        assert result.stats["traces"] >= 1

    def test_stateless_engines_differ_only_in_traces(self):
        # Two unread writes: two Mazurkiewicz traces, one reads-from class.
        src = """
        int x = 0;
        thread a { x = 1; }
        thread b { x = 2; }
        main { start a; start b; join a; join b; }
        """
        rfsc = verify(src, VerifierConfig.nidhugg_rfsc())
        genmc = verify(src, VerifierConfig.genmc())
        assert rfsc.verdict == genmc.verdict == Verdict.SAFE
        assert (rfsc.stats["traces"], rfsc.stats["rf_classes"]) == (2, 1)
        assert (genmc.stats["traces"], genmc.stats["rf_classes"]) == (1, 1)
        assert rfsc.stats["transitions"] == genmc.stats["transitions"]

    def test_unsafe_schedule_reported(self):
        from tests.verify.programs import RACE_UNSAFE

        result = verify(RACE_UNSAFE, VerifierConfig.nidhugg_rfsc())
        assert result.verdict == Verdict.UNSAFE
        assert result.schedule


class TestLazyseqSpecifics:
    def test_insufficient_rounds_is_bounded_safe(self):
        # Finding this bug needs t1 -> t2 -> t1 style switching; with a
        # single round-robin round over [main, t1, t2] the violating
        # schedules still fit, so use a handshake that genuinely needs
        # more rounds.
        src = """
        int x = 0, y = 0;
        thread t1 { x = 1; int a; a = y; if (a == 1) { int b; b = x; assert(b == 1); } }
        thread t2 { int c; c = x; if (c == 1) { y = 1; } }
        main { start t1; start t2; join t1; join t2; }
        """
        generous = verify(src, VerifierConfig.lazy_cseq(rounds=4))
        assert generous.verdict == Verdict.SAFE  # actually safe program
