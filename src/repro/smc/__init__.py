"""Stateless model checking substrate (Section 6.4 comparators).

The interpreter executes programs at shared-access granularity -- exactly
the event granularity of the SMT encoding -- over a snapshottable state, so
explorers can branch over scheduling decisions:

* :mod:`repro.smc.compile` -- AST to a small register/stack bytecode;
* :mod:`repro.smc.interpreter` -- snapshottable execution states, visible
  operations, enabledness (locks, joins, atomic test-and-set);
* :mod:`repro.smc.explore` -- interleaving exploration: naive enumeration
  and sleep-set dynamic partial-order reduction, with reads-from
  equivalence-class counting, and ``verify_stateless``, the runner of the
  Nidhugg/rfsc-style and GenMC-style engines built on the explorer;
* :mod:`repro.smc.witness_replay` -- replay of explorer schedules and SMT
  witness traces.
"""

from repro.smc.compile import CompiledProgram, compile_program
from repro.smc.interpreter import ExecState, Interpreter
from repro.smc.explore import ExploreOutcome, Explorer
from repro.smc.witness_replay import ReplayError, replay_schedule, replay_witness

__all__ = [
    "CompiledProgram",
    "compile_program",
    "ExecState",
    "Interpreter",
    "Explorer",
    "ExploreOutcome",
    "replay_schedule",
    "replay_witness",
    "ReplayError",
]
