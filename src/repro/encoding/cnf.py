"""Tseitin gate library over the CDCL solver.

:class:`CnfBuilder` wraps a :class:`repro.sat.Solver` with named gate
constructors (AND, OR, XOR, ITE, half/full adders).  Each gate allocates a
fresh output literal and emits the defining clauses; inputs and outputs are
DIMACS literals.  Constant inputs are short-circuited where cheap.

The builder also maintains the conventional *true literal* ``t`` (a variable
fixed to true by a unit clause) so constants can flow through gate inputs
uniformly.  Constants are folded where clauses are built, as CBMC's gate
and clause constructors do: a clause containing ``t`` is dropped and ``¬t``
is removed, so neither reaches the solver.  The solver would store exactly
the same clause, since ``t`` is true at level 0 (``docs/SATCORE.md``).

:meth:`CnfBuilder.gates` tells which gate each output variable is (the
symmetry check of :mod:`repro.encoding.symmetry` maps gates through it):
AND/OR and XOR gates are read off their caches, ITE gates, which are not
cached, off a log.  Gate definitions go to ``solver.add_clause`` as it
was when the builder was made: a definition is a function of the gate's
inputs, so the symmetry check covers them by mapping gates to gates and
records only the clauses given later through other paths.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sat import Solver


class CnfBuilder:
    """Gate-level CNF construction helper bound to a solver instance."""

    def __init__(self, solver: Solver) -> None:
        self.solver = solver
        self._define = solver.add_clause
        self._true = solver.new_var()
        solver.add_clause([self._true])
        self._and_cache = {}
        self._xor_cache = {}
        #: ``(out, c, t, e)`` per ITE gate.
        self._ites: List[Tuple[int, int, int, int]] = []

    # ------------------------------------------------------------------
    # Constants and variables
    # ------------------------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    def new_lit(self) -> int:
        return self.solver.new_var()

    def add_clause(self, lits: List[int]) -> None:
        """Add ``lits`` as a clause, folding the constant literals."""
        t = self._true
        if t in lits:
            return
        if -t in lits:
            lits = [lit for lit in lits if lit != -t]
        self.solver.add_clause(lits)

    def fix(self, lit: int) -> None:
        """Assert ``lit`` at the top level."""
        self.solver.add_clause([lit])

    def is_const(self, lit: int) -> bool:
        return abs(lit) == abs(self._true)

    def _const_value(self, lit: int) -> bool:
        return lit == self._true

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------

    def and_gate(self, lits: Iterable[int]) -> int:
        """Output literal equivalent to the conjunction of ``lits``."""
        ins: List[int] = []
        for lit in lits:
            if self.is_const(lit):
                if not self._const_value(lit):
                    return self.false_lit
                continue
            ins.append(lit)
        if not ins:
            return self.true_lit
        ins = sorted(set(ins), key=abs)
        for lit in ins:
            if -lit in ins:
                return self.false_lit
        if len(ins) == 1:
            return ins[0]
        key = tuple(ins)
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        # Inputs are constant-free here: the clauses go straight in.
        add = self._define
        out = self.new_lit()
        for lit in ins:
            add([-out, lit])
        add([out] + [-lit for lit in ins])
        self._and_cache[key] = out
        return out

    def or_gate(self, lits: Iterable[int]) -> int:
        """Output literal equivalent to the disjunction of ``lits``."""
        return -self.and_gate([-lit for lit in lits])

    def xor_gate(self, a: int, b: int) -> int:
        if self.is_const(a):
            return b if self._const_value(a) is False else -b
        if self.is_const(b):
            return a if self._const_value(b) is False else -a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        key = (min(a, b), max(a, b))
        cached = self._xor_cache.get(key)
        if cached is not None:
            return cached
        add = self._define
        out = self.new_lit()
        add([-out, a, b])
        add([-out, -a, -b])
        add([out, -a, b])
        add([out, a, -b])
        self._xor_cache[key] = out
        return out

    def iff_gate(self, a: int, b: int) -> int:
        return -self.xor_gate(a, b)

    def ite_gate(self, c: int, t: int, e: int) -> int:
        """Output literal equivalent to ``c ? t : e``."""
        if self.is_const(c):
            return t if self._const_value(c) else e
        if t == e:
            return t
        add = self.add_clause
        if not (self.is_const(t) or self.is_const(e)):
            add = self._define
        out = self.new_lit()
        add([-out, -c, t])
        add([-out, c, e])
        add([out, -c, -t])
        add([out, c, -e])
        # Redundant but propagation-strengthening clauses.
        if t != -e:
            add([-t, -e, out])
            add([t, e, -out])
        self._ites.append((out, c, t, e))
        return out

    def gates(self) -> Dict[int, Tuple[str, Tuple[int, ...]]]:
        """Output variable -> ``(op, inputs)`` for every gate built so
        far: ``("and", ins)`` with ``ins`` the AND cache key (an OR gate
        is the negated AND of its negated inputs), ``("xor", (a, b))``
        and ``("ite", (c, t, e))``."""
        out: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
        for key, var in self._and_cache.items():
            out[var] = ("and", key)
        for key, var in self._xor_cache.items():
            out[var] = ("xor", key)
        for var, c, t, e in self._ites:
            out[var] = ("ite", (c, t, e))
        return out

    def full_adder(self, a: int, b: int, cin: int):
        """Return (sum, carry-out) literals of a full adder."""
        s1 = self.xor_gate(a, b)
        total = self.xor_gate(s1, cin)
        c1 = self.and_gate([a, b])
        c2 = self.and_gate([s1, cin])
        carry = self.or_gate([c1, c2])
        return total, carry

    # ------------------------------------------------------------------
    # Implication helpers used by the encoder
    # ------------------------------------------------------------------

    def imply(self, premise: int, conclusion: int) -> None:
        """Assert ``premise -> conclusion``."""
        t = self._true
        if premise == -t or conclusion == t:
            return
        if premise == t:
            self.solver.add_clause([conclusion])
        elif conclusion == -t:
            self.solver.add_clause([-premise])
        else:
            self.solver.add_clause([-premise, conclusion])

    def imply_or(self, premise: int, disjuncts: Sequence[int]) -> None:
        """Assert ``premise -> (d1 | d2 | ...)``."""
        self.add_clause([-premise, *disjuncts])
