"""Schedule replay tests: SMC witnesses must replay to violated states."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import parse
from repro.smc import Explorer, ReplayError, compile_program, replay_schedule
from repro.smc.interpreter import Interpreter

UNSAFE = """
int x = 0;
thread t1 { x = 1; }
thread t2 { x = 2; }
main { start t1; start t2; join t1; join t2; assert(x == 1); }
"""


class TestReplay:
    def test_witness_schedule_reproduces_violation(self):
        compiled = compile_program(parse(UNSAFE), width=8, unwind=4)
        out = Explorer(compiled, mode="dpor").run()
        assert out.verdict == "unsafe"
        state = replay_schedule(compiled, out.witness_schedule)
        interp = Interpreter(compiled)
        assert interp.is_complete(state)
        assert state.violated

    def test_replay_accepts_source_text(self):
        compiled = compile_program(parse(UNSAFE), width=8, unwind=4)
        out = Explorer(compiled, mode="dpor").run()
        state = replay_schedule(UNSAFE, out.witness_schedule, unwind=4)
        assert state.violated

    def test_bad_thread_rejected(self):
        with pytest.raises(ReplayError):
            replay_schedule(UNSAFE, ["nope: storeg x"])

    def test_wrong_op_rejected(self):
        with pytest.raises(ReplayError):
            replay_schedule(UNSAFE, ["t1: loadg x"])  # t1 is at a store

    def test_garbage_entry_rejected(self):
        with pytest.raises(ReplayError):
            replay_schedule(UNSAFE, ["garbage"])

    def test_blocked_thread_rejected(self):
        src = """
        lock m;
        thread a { lock(m); unlock(m); }
        thread b { lock(m); unlock(m); }
        """
        # a acquires, then scheduling b's lock is a blocked step.
        with pytest.raises(ReplayError):
            replay_schedule(src, ["a: lock m", "b: lock m"])

    def test_nondet_value_replayed(self):
        src = "int x = 0; thread t { x = nondet(); } main { start t; join t; assert(x != 3); }"
        compiled = compile_program(parse(src), width=8, unwind=4)
        out = Explorer(compiled, mode="dpor", nondet_domain=(0, 3)).run()
        assert out.verdict == "unsafe"
        state = replay_schedule(compiled, out.witness_schedule)
        assert state.violated
        assert state.mem["x"] == 3


_STMTS = ["x = 1;", "x = 2;", "y = x;", "int L; L = x; x = L + 1;"]


@settings(max_examples=30, deadline=None)
@given(
    body_ids=st.lists(
        st.lists(st.integers(0, len(_STMTS) - 1), min_size=1, max_size=2),
        min_size=2,
        max_size=3,
    ),
)
def test_every_unsafe_witness_replays(body_ids):
    decls = "int x = 0; int y = 0;"
    threads = []
    for i, ids in enumerate(body_ids):
        stmts = " ".join(
            _STMTS[k].replace("L", f"L{i}_{j}") for j, k in enumerate(ids)
        )
        threads.append(f"thread t{i} {{ {stmts} }}")
    starts = " ".join(f"start t{i};" for i in range(len(body_ids)))
    joins = " ".join(f"join t{i};" for i in range(len(body_ids)))
    src = (decls + "\n" + "\n".join(threads)
           + f"\nmain {{ {starts} {joins} assert(x + y < 3); }}")
    compiled = compile_program(parse(src), width=8, unwind=3)
    out = Explorer(compiled, mode="dpor").run()
    if out.verdict == "unsafe":
        state = replay_schedule(compiled, out.witness_schedule)
        assert state.violated
        assert Interpreter(compiled).is_complete(state)
