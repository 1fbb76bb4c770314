"""CDCL SAT solver with online DPLL(T) theory hooks.

This package provides the propositional substrate of the reproduction:

* :class:`repro.sat.solver.Solver` -- a conflict-driven clause-learning SAT
  solver (two-watched literals, VSIDS, first-UIP learning, Luby restarts).
* :class:`repro.sat.theory.Theory` -- the interface a theory solver
  implements to participate in DPLL(T) (the ordering-consistency solver in
  :mod:`repro.ordering` and the clock-difference baseline both implement it).

Literals follow the DIMACS convention: a positive integer ``v`` denotes the
variable ``v`` asserted true, ``-v`` denotes it asserted false.  Variable 0
is unused.
"""

from repro.sat.sharing import SerialBroker, ShareChannel
from repro.sat.solver import Solver, SolveResult, SolverStats
from repro.sat.theory import Explanation, Theory, TheoryResult

__all__ = [
    "Solver",
    "SolveResult",
    "SolverStats",
    "Theory",
    "TheoryResult",
    "Explanation",
    "ShareChannel",
    "SerialBroker",
]
