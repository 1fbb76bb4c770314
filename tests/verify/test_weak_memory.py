"""Weak memory models (TSO/PSO): the paper's stated future work.

Classic litmus outcomes distinguish the models:

=============  ====  ====  ====
litmus          SC    TSO   PSO
=============  ====  ====  ====
SB (weak out)  forb  ALLOW ALLOW
MP (weak out)  forb  forb  ALLOW
LB (weak out)  forb  forb  forb
CoRR           forb  forb  forb
IRIW           forb  forb  forb
=============  ====  ====  ====

The "weak outcome" is what the assertion rules out, so ALLOW = UNSAFE.
"""

import pytest

from repro.verify import Verdict, VerifierConfig, verify

SB = """
int x = 0, y = 0, a = 0, b = 0;
thread t1 { x = 1; a = y; }
thread t2 { y = 1; b = x; }
main { start t1; start t2; join t1; join t2; assert(!(a == 0 && b == 0)); }
"""

SB_FENCED = """
int x = 0, y = 0, a = 0, b = 0;
thread t1 { x = 1; fence; a = y; }
thread t2 { y = 1; fence; b = x; }
main { start t1; start t2; join t1; join t2; assert(!(a == 0 && b == 0)); }
"""

MP = """
int d = 0, f = 0, r1 = 0, r2 = 0;
thread p { d = 1; f = 1; }
thread c { r1 = f; r2 = d; }
main { start p; start c; join p; join c; assert(!(r1 == 1 && r2 == 0)); }
"""

MP_FENCED = """
int d = 0, f = 0, r1 = 0, r2 = 0;
thread p { d = 1; fence; f = 1; }
thread c { r1 = f; r2 = d; }
main { start p; start c; join p; join c; assert(!(r1 == 1 && r2 == 0)); }
"""

LB = """
int x = 0, y = 0, a = 0, b = 0;
thread t1 { a = y; x = 1; }
thread t2 { b = x; y = 1; }
main { start t1; start t2; join t1; join t2; assert(!(a == 1 && b == 1)); }
"""

CORR = """
int x = 0, a = 0, b = 0;
thread w { x = 1; x = 2; }
thread r { a = x; b = x; }
main { start w; start r; join w; join r; assert(!(a == 2 && b == 1)); }
"""

IRIW = """
int x = 0, y = 0, r1 = 0, r2 = 0, r3 = 0, r4 = 0;
thread wa { x = 1; }
thread wb { y = 1; }
thread ra { r1 = x; r2 = y; }
thread rb { r3 = y; r4 = x; }
main {
    start wa; start wb; start ra; start rb;
    join wa; join wb; join ra; join rb;
    assert(!(r1 == 1 && r2 == 0 && r3 == 1 && r4 == 0));
}
"""

#: (name, source, verdict under sc, tso, pso)
LITMUS = [
    ("SB", SB, "safe", "unsafe", "unsafe"),
    ("SB+fences", SB_FENCED, "safe", "safe", "safe"),
    ("MP", MP, "safe", "safe", "unsafe"),
    ("MP+fence", MP_FENCED, "safe", "safe", "safe"),
    ("LB", LB, "safe", "safe", "safe"),
    ("CoRR", CORR, "safe", "safe", "safe"),
    ("IRIW", IRIW, "safe", "safe", "safe"),
]


@pytest.mark.parametrize("model_idx,model", [(2, "sc"), (3, "tso"), (4, "pso")])
@pytest.mark.parametrize("name,source,sc,tso,pso", LITMUS)
def test_litmus_outcomes(name, source, sc, tso, pso, model_idx, model):
    expected = (None, None, sc, tso, pso)[model_idx]
    result = verify(source, VerifierConfig.zord(memory_model=model))
    assert result.verdict == expected, (name, model)


@pytest.mark.parametrize("model", ["tso", "pso"])
class TestWeakModelMachinery:
    def test_idl_baseline_agrees(self, model):
        for name, source, _sc, tso, pso in LITMUS:
            expected = tso if model == "tso" else pso
            result = verify(source, VerifierConfig.cbmc(memory_model=model))
            assert result.verdict == expected, (name, model)

    def test_locks_act_as_fences(self, model):
        src = """
        int c = 0;
        lock m;
        thread t1 { int t; lock(m); t = c; c = t + 1; unlock(m); }
        thread t2 { int t; lock(m); t = c; c = t + 1; unlock(m); }
        main { start t1; start t2; join t1; join t2; assert(c == 2); }
        """
        result = verify(src, VerifierConfig.zord(memory_model=model))
        assert result.verdict == Verdict.SAFE

    def test_atomic_rmw_acts_as_fence(self, model):
        src = """
        int c = 0;
        thread t1 { atomic { c = c + 1; } }
        thread t2 { atomic { c = c + 1; } }
        main { start t1; start t2; join t1; join t2; assert(c == 2); }
        """
        result = verify(src, VerifierConfig.zord(memory_model=model))
        assert result.verdict == Verdict.SAFE

    def test_explicit_engines_reject_weak_models(self, model):
        with pytest.raises(ValueError):
            verify(SB, VerifierConfig.cpa_seq(memory_model=model))


#: Store buffering around a barrier ``%s`` in each thread.
SB_BARRIER = """
int x = 0, y = 0, a = 0, b = 0;
lock m;
thread t1 { x = 1; %s a = y; }
thread t2 { y = 1; %s b = x; }
main { start t1; start t2; join t1; join t2; assert(a == 1 || b == 1); }
"""


@pytest.mark.parametrize("model", ["tso", "pso"])
@pytest.mark.parametrize(
    "barrier",
    ["if (0) { fence; }", "if (0) { lock(m); unlock(m); }"],
    ids=["fence", "lock"],
)
def test_barrier_that_never_runs_orders_nothing(barrier, model):
    """A fence or lock in a branch that is never taken is no barrier: the
    weak store-buffering outcome stays reachable (it read as SAFE while
    the frontend still emitted the dead branch's anchor, which preserved
    program order counts as a full barrier)."""
    source = SB_BARRIER % (barrier, barrier)
    assert verify(source, VerifierConfig.zord(memory_model=model)).verdict == Verdict.UNSAFE
    assert verify(source, VerifierConfig.zord(memory_model="sc")).verdict == Verdict.SAFE


class TestPpoComputation:
    def test_sc_keeps_all_edges(self):
        from repro.encoding.ppo import preserved_program_order
        from repro.frontend import build_symbolic_program
        from repro.lang import parse

        sym = build_symbolic_program(parse(SB))
        assert preserved_program_order(sym, "sc") == sym.po_edges

    def test_tso_drops_w_r_pairs(self):
        from repro.encoding.ppo import preserved_program_order
        from repro.frontend import build_symbolic_program
        from repro.lang import parse

        sym = build_symbolic_program(parse(SB))
        ppo = preserved_program_order(sym, "tso")
        # t1: write x then read y -- that intra-thread pair must be gone.
        t1 = next(t for t in sym.threads if t.name == "t1")
        w_x = t1.events[0].eid
        r_y = t1.events[1].eid
        assert (w_x, r_y) in sym.po_edges
        assert (w_x, r_y) not in ppo

    def test_unknown_model_rejected(self):
        from repro.encoding.ppo import preserved_program_order
        from repro.frontend import build_symbolic_program
        from repro.lang import parse

        sym = build_symbolic_program(parse(SB))
        with pytest.raises(ValueError):
            preserved_program_order(sym, "arm")

    def test_same_address_order_kept_under_pso(self):
        from repro.encoding.ppo import preserved_program_order
        from repro.frontend import build_symbolic_program
        from repro.lang import parse

        src = "int x = 0; thread t { x = 1; x = 2; } "
        sym = build_symbolic_program(parse(src))
        ppo = set(preserved_program_order(sym, "pso"))
        t = next(th for th in sym.threads if th.name == "t")
        assert (t.events[0].eid, t.events[1].eid) in ppo


# ---------------------------------------------------------------------------
# Monotonicity: weaker models admit strictly more behaviours, so verdicts
# can only move from safe to unsafe as the model weakens.
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_FRAGMENTS = [
    "x = 1;",
    "y = 1;",
    "x = y;",
    "y = x;",
    "int L; L = x; y = L + 1;",
    "fence;",
    "x = 2; y = 2;",
]


@settings(max_examples=30, deadline=None)
@given(
    body_ids=st.lists(
        st.lists(st.integers(0, len(_FRAGMENTS) - 1), min_size=1, max_size=3),
        min_size=2,
        max_size=3,
    ),
    assert_id=st.integers(0, 2),
)
def test_verdicts_monotone_in_model_strength(body_ids, assert_id):
    asserts = [
        "assert(!(x == 1 && y == 0));",
        "assert(x != 2 || y != 1);",
        "assert(x + y != 3);",
    ]
    decls = "int x = 0; int y = 0;"
    threads = []
    for i, ids in enumerate(body_ids):
        stmts = " ".join(
            _FRAGMENTS[k].replace("L", f"L{i}_{j}") for j, k in enumerate(ids)
        )
        threads.append(f"thread t{i} {{ {stmts} }}")
    starts = " ".join(f"start t{i};" for i in range(len(body_ids)))
    joins = " ".join(f"join t{i};" for i in range(len(body_ids)))
    src = (decls + "\n" + "\n".join(threads)
           + f"\nmain {{ {starts} {joins} {asserts[assert_id]} }}")

    verdicts = {}
    for model in ("sc", "tso", "pso"):
        verdicts[model] = verify(
            src, VerifierConfig.zord(unwind=3, memory_model=model)
        ).verdict
    # SC-unsafe implies TSO-unsafe implies PSO-unsafe.
    if verdicts["sc"] == "unsafe":
        assert verdicts["tso"] == "unsafe", src
    if verdicts["tso"] == "unsafe":
        assert verdicts["pso"] == "unsafe", src
