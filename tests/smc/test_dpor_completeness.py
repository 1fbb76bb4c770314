"""DPOR completeness: on random small programs, Source-DPOR must observe
the exact same set of reads-from equivalence classes (and the same verdict)
as full enumeration, while exploring no more interleavings than naive
enumeration.

Naive enumeration visits every interleaving, which is exponential: three
threads of seven visible operations have 4e8.  So naive runs under a
transition budget, and a program that exceeds it is checked against
:func:`_merged_enumeration` instead -- every interleaving again, but with
prefixes that reach the same state by the same reads-from history
explored once.  It shares no code with DPOR (no races, backtrack or sleep
sets), only the interpreter, and finishes the largest programs the
strategies draw in about the time DPOR takes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import parse
from repro.smc import Explorer, compile_program
from repro.smc.interpreter import Interpreter

#: Naive enumeration beyond this many transitions (about a quarter second)
#: hands the program to the merged enumerator.
NAIVE_BUDGET = 5000


def _signatures(compiled, mode, budget=None):
    explorer = Explorer(
        compiled, mode=mode, stop_at_first_violation=False, max_transitions=budget
    )
    outcome = explorer.run()
    if budget is None:
        assert outcome.verdict != "unknown"
    return explorer.last_signatures, outcome


def _merged_enumeration(compiled):
    """The reads-from signatures and verdict of all complete executions.

    A depth-first search over every enabled step, where two prefixes that
    reach the same state with the same reads-from history -- equal
    semantic state, per-thread reads' sources, last writer per address and
    per-thread store counts -- have the same futures, so only the first is
    expanded."""
    interp = Interpreter(compiled)
    seen = set()
    signatures = set()
    violated = False
    stack = [interp.initial_state()]
    while stack:
        state = stack.pop()
        key = (
            state.key(),
            state.rf_signature(),
            tuple(sorted(state.writer.items())),
            tuple(t.store_seq for _, t in sorted(state.threads.items())),
        )
        if key in seen:
            continue
        seen.add(key)
        ops = interp.enabled_ops(state)
        if not ops:
            if interp.is_complete(state):
                signatures.add(state.rf_signature())
                violated = violated or state.violated
            continue
        for op in ops:
            child = state.clone()
            interp.step(child, op.tid, 0)
            stack.append(child)
    return signatures, ("unsafe" if violated else "safe")


# Statement pools for random thread bodies over shared vars x, y.
_STMTS = [
    "x = 1;",
    "x = 2;",
    "y = 1;",
    "int rA; rA = x;",
    "int rB; rB = y;",
    "int rC; rC = x; x = rC + 1;",
    "x = 3; int rD; rD = y;",
    "atomic { x = x + 1; }",
    "lock(m); x = 4; unlock(m);",
]


def _build_source(bodies):
    decls = "int x = 0; int y = 0; lock m;"
    threads = []
    for i, body in enumerate(bodies):
        stmts = " ".join(
            _STMTS[k]
            .replace("rA", f"rA{i}_{j}").replace("rB", f"rB{i}_{j}")
            .replace("rC", f"rC{i}_{j}").replace("rD", f"rD{i}_{j}")
            for j, k in enumerate(body)
        )
        threads.append(f"thread t{i} {{ {stmts} }}")
    return decls + "\n" + "\n".join(threads)


@settings(max_examples=80, deadline=None)
@given(
    bodies=st.lists(
        st.lists(st.integers(0, len(_STMTS) - 1), min_size=1, max_size=3),
        min_size=2,
        max_size=3,
    )
)
def test_dpor_covers_all_rf_classes(bodies):
    src = _build_source(bodies)
    compiled = compile_program(parse(src), width=8, unwind=3)

    dpor_sigs, dpor_out = _signatures(compiled, "dpor")
    naive_sigs, naive_out = _signatures(compiled, "naive", NAIVE_BUDGET)
    if naive_out.verdict == "unknown":
        full_sigs, full_verdict = _merged_enumeration(compiled)
    else:
        full_sigs, full_verdict = naive_sigs, naive_out.verdict
        # Reduction property: DPOR explores no more transitions than naive.
        assert dpor_out.transitions <= naive_out.transitions

    assert dpor_sigs == full_sigs, (
        f"DPOR missed rf classes: {full_sigs - dpor_sigs} "
        f"or invented: {dpor_sigs - full_sigs}\nprogram:\n{src}"
    )
    # Verdict agreement (both explore all traces here).
    assert dpor_out.verdict == full_verdict


@settings(max_examples=40, deadline=None)
@given(
    bodies=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=2),
        min_size=2,
        max_size=4,
    )
)
def test_dpor_verdicts_match_naive_with_assertions(bodies):
    # Add an assertion over the shared state in main.
    src = _build_source(bodies)
    src += "\nmain { "
    src += " ".join(f"start t{i};" for i in range(len(bodies)))
    src += " "
    src += " ".join(f"join t{i};" for i in range(len(bodies)))
    src += " assert(x != 3 || y != 1); }"
    compiled = compile_program(parse(src), width=8, unwind=3)
    dpor = Explorer(compiled, mode="dpor").run()
    naive = Explorer(compiled, mode="naive", max_transitions=NAIVE_BUDGET).run()
    if naive.verdict == "unknown":
        _, verdict = _merged_enumeration(compiled)
    else:
        verdict = naive.verdict
    assert dpor.verdict == verdict
