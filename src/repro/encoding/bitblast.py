"""Eager bit-blasting of the term IR to CNF.

Bit-vectors are lowered LSB-first to lists of literals; Boolean terms lower
to single literals.  Results are cached per term (terms are hash-consed, so
identity caching is sound), which keeps shared subterms shared in the CNF.

This mirrors the flattening CBMC performs before handing the formula to the
SAT core; the ordering variables of the encoding stay opaque Boolean
variables handled by the theory solver.

Asserted terms are lowered by polarity instead of through a Tseitin output
(:meth:`BitBlaster.assert_term`, :meth:`BitBlaster.imply_term`):
conjunctions split, disjunctions become one clause, and an equality
becomes per-bit clauses.  A top-level definition ``x = e`` of a bit-vector
variable with no bits yet makes ``e``'s bits *be* ``x``'s bits, as CBMC
binds an SSA symbol to its right-hand side.  Terms used as literals
(guards, comparisons, error disjuncts) keep their cached gates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.encoding.cnf import CnfBuilder
from repro.encoding.formula import Term

__all__ = ["BitBlaster"]


class BitBlaster:
    """Lower terms to CNF through a :class:`CnfBuilder`.

    Variables are allocated on first sight and remembered by name, so the
    encoder can recover model values with :meth:`bv_value` / :meth:`bool_value`
    after a SAT answer.
    """

    def __init__(self, builder: CnfBuilder) -> None:
        self.builder = builder
        self._bool_cache: Dict[Term, int] = {}
        self._bv_cache: Dict[Term, List[int]] = {}
        self._bool_vars: Dict[str, int] = {}
        self._bv_vars: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def blast_bool(self, term: Term) -> int:
        """Return a literal equivalent to the Bool-sorted ``term``."""
        if not term.is_bool:
            raise TypeError(f"expected Bool term, got {term!r}")
        cached = self._bool_cache.get(term)
        if cached is not None:
            return cached
        lit = self._blast_bool(term)
        self._bool_cache[term] = lit
        return lit

    def blast_bv(self, term: Term) -> List[int]:
        """Return LSB-first literals equivalent to the BV-sorted ``term``."""
        if not term.is_bv:
            raise TypeError(f"expected BV term, got {term!r}")
        cached = self._bv_cache.get(term)
        if cached is not None:
            return cached
        bits = self._blast_bv(term)
        self._bv_cache[term] = bits
        return bits

    def assert_term(self, term: Term) -> None:
        """Assert a Bool term at the top level, lowered by polarity.

        The result is equisatisfiable with ``fix(blast_bool(term))`` and
        every named variable keeps its model value: aliasing only
        substitutes a definition that holds in every model.
        """
        self._assert_or((), term)

    def imply_term(self, premise: int, term: Term) -> None:
        """Assert ``premise -> term``; an equality costs two clauses per
        differing bit pair and no variables."""
        self._assert_or((-premise,), term)

    def define_eq(self, premise: int, a: Term, b: Term) -> None:
        """:meth:`imply_term` for ``premise -> a = b`` over two bit-vector
        variables, given as definitions (:meth:`CnfBuilder.define`): the
        clauses are a function of ``premise`` and the two bit lists."""
        if a is not b:
            self._assert_eq((-premise,), a, b, define=True)

    def bool_value(self, name: str) -> bool:
        """Model value of a Boolean variable (after SAT)."""
        return self.builder.solver.model_lit(self._bool_vars[name])

    def bv_value(self, name: str) -> int:
        """Model value of a bit-vector variable (after SAT), as unsigned."""
        bits = self._bv_vars[name]
        value = 0
        for i, lit in enumerate(bits):
            if self.builder.solver.model_lit(lit):
                value |= 1 << i
        return value

    def has_var(self, name: str) -> bool:
        return name in self._bool_vars or name in self._bv_vars

    def named_bits(self) -> Dict[str, List[int]]:
        """Every named variable's literals (a Boolean's as one bit)."""
        named = {name: [lit] for name, lit in self._bool_vars.items()}
        named.update(self._bv_vars)
        return named

    # ------------------------------------------------------------------
    # Asserted terms (lowered by polarity)
    # ------------------------------------------------------------------

    def _assert_or(self, side: Sequence[int], term: Term) -> None:
        """Assert the clause ``side ∨ term``."""
        op = term.op
        if op == "and":
            for arg in term.args:
                self._assert_or(side, arg)
            return
        if op == "or":
            lits = list(side)
            lits.extend(self.blast_bool(arg) for arg in term.args)
            self.builder.add_clause(lits)
            return
        if op == "not" and term.args[0].op == "and":
            lits = list(side)
            lits.extend(-self.blast_bool(arg) for arg in term.args[0].args)
            self.builder.add_clause(lits)
            return
        if op == "eq":
            self._assert_eq(side, term.args[0], term.args[1])
            return
        self.builder.add_clause(list(side) + [self.blast_bool(term)])

    def _assert_eq(
        self, side: Sequence[int], a: Term, b: Term, define: bool = False
    ) -> None:
        """Assert ``side ∨ a = b``: alias an undefined variable at the top
        level, otherwise ``x_i <-> y_i`` per differing bit pair (as
        definitions when ``define``)."""
        if not side:
            var, value = (a, b) if self._unbound(a) else (b, a)
            if self._unbound(var):
                bits = self.blast_bv(value)
                # Blasting ``value`` binds ``var`` if it occurs there.
                if self._unbound(var):
                    self._bv_vars[var.name] = bits
                    self._bv_cache[var] = bits
                    return
        # Constant bits fold here: against ``t`` or ``¬t`` one of the two
        # clauses is satisfied and the other loses its constant.
        builder = self.builder
        t = builder.true_lit
        if define:
            fold, add = builder.define, builder._define
        else:
            fold, add = builder.add_clause, builder.solver.add_clause
        for x, y in zip(self.blast_bv(a), self.blast_bv(b)):
            if x == y:
                continue
            if x == t or x == -t:
                fold([*side, y if x == t else -y])
            elif y == t or y == -t:
                fold([*side, x if y == t else -x])
            else:
                add([*side, -x, y])
                add([*side, x, -y])

    def _unbound(self, term: Term) -> bool:
        return term.op == "bvvar" and term.name not in self._bv_vars

    # ------------------------------------------------------------------
    # Boolean lowering
    # ------------------------------------------------------------------

    def _blast_bool(self, term: Term) -> int:
        b = self.builder
        op = term.op
        if op == "boolconst":
            return b.true_lit if term.value else b.false_lit
        if op == "boolvar":
            lit = self._bool_vars.get(term.name)
            if lit is None:
                lit = b.new_lit()
                self._bool_vars[term.name] = lit
            return lit
        if op == "not":
            return -self.blast_bool(term.args[0])
        if op == "and":
            return b.and_gate([self.blast_bool(a) for a in term.args])
        if op == "or":
            return b.or_gate([self.blast_bool(a) for a in term.args])
        if op == "xor":
            return b.xor_gate(
                self.blast_bool(term.args[0]), self.blast_bool(term.args[1])
            )
        if op == "ite":
            return b.ite_gate(
                self.blast_bool(term.args[0]),
                self.blast_bool(term.args[1]),
                self.blast_bool(term.args[2]),
            )
        if op == "eq":
            xs = self.blast_bv(term.args[0])
            ys = self.blast_bv(term.args[1])
            return b.and_gate([b.iff_gate(x, y) for x, y in zip(xs, ys)])
        if op == "ult":
            return self._ult(term.args[0], term.args[1])
        if op == "slt":
            return self._slt(term.args[0], term.args[1])
        raise ValueError(f"cannot blast Bool operator {op!r}")

    def _ult(self, a: Term, bterm: Term) -> int:
        """Unsigned a < b via a borrow chain (MSB-down comparator)."""
        b = self.builder
        xs = self.blast_bv(a)
        ys = self.blast_bv(bterm)
        # lt_i over bits [0..i]: lt = (~x_i & y_i) | ((x_i <-> y_i) & lt_{i-1})
        lt = b.false_lit
        for x, y in zip(xs, ys):  # LSB to MSB
            bit_lt = b.and_gate([-x, y])
            same = b.iff_gate(x, y)
            lt = b.or_gate([bit_lt, b.and_gate([same, lt])])
        return lt

    def _slt(self, a: Term, bterm: Term) -> int:
        """Signed a < b: flip sign bits, then unsigned compare."""
        b = self.builder
        xs = list(self.blast_bv(a))
        ys = list(self.blast_bv(bterm))
        xs[-1] = -xs[-1]
        ys[-1] = -ys[-1]
        lt = b.false_lit
        for x, y in zip(xs, ys):
            bit_lt = b.and_gate([-x, y])
            same = b.iff_gate(x, y)
            lt = b.or_gate([bit_lt, b.and_gate([same, lt])])
        return lt

    # ------------------------------------------------------------------
    # Bit-vector lowering
    # ------------------------------------------------------------------

    def _blast_bv(self, term: Term) -> List[int]:
        b = self.builder
        op = term.op
        w = term.width
        if op == "bvconst":
            return [
                b.true_lit if (term.value >> i) & 1 else b.false_lit
                for i in range(w)
            ]
        if op == "bvvar":
            bits = self._bv_vars.get(term.name)
            if bits is None:
                bits = [b.new_lit() for _ in range(w)]
                self._bv_vars[term.name] = bits
            if len(bits) != w:
                raise ValueError(
                    f"variable {term.name!r} redeclared with width {w}, "
                    f"was {len(bits)}"
                )
            return bits
        if op == "bvadd":
            return self._add(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == "bvsub":
            ys = [-y for y in self.blast_bv(term.args[1])]
            return self._add(self.blast_bv(term.args[0]), ys, carry_in=b.true_lit)
        if op == "bvneg":
            xs = [-x for x in self.blast_bv(term.args[0])]
            zero = [b.false_lit] * w
            return self._add(zero, xs, carry_in=b.true_lit)
        if op == "bvmul":
            return self._mul(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == "bvand":
            return [
                b.and_gate([x, y])
                for x, y in zip(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
            ]
        if op == "bvor":
            return [
                b.or_gate([x, y])
                for x, y in zip(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
            ]
        if op == "bvxor":
            return [
                b.xor_gate(x, y)
                for x, y in zip(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
            ]
        if op == "bvnot":
            return [-x for x in self.blast_bv(term.args[0])]
        if op == "bvite":
            c = self.blast_bool(term.args[0])
            ts = self.blast_bv(term.args[1])
            es = self.blast_bv(term.args[2])
            return [b.ite_gate(c, t, e) for t, e in zip(ts, es)]
        if op == "shl":
            xs = self.blast_bv(term.args[0])
            k = term.value
            return [b.false_lit] * min(k, w) + xs[: max(0, w - k)]
        if op == "lshr":
            xs = self.blast_bv(term.args[0])
            k = term.value
            return xs[k:] + [b.false_lit] * min(k, w)
        raise ValueError(f"cannot blast BV operator {op!r}")

    def _add(self, xs: List[int], ys: List[int], carry_in: int = None) -> List[int]:
        b = self.builder
        carry = carry_in if carry_in is not None else b.false_lit
        out = []
        for x, y in zip(xs, ys):
            s, carry = b.full_adder(x, y, carry)
            out.append(s)
        return out

    def _mul(self, xs: List[int], ys: List[int]) -> List[int]:
        """Shift-add multiplier, truncated to the operand width."""
        b = self.builder
        w = len(xs)
        acc = [b.false_lit] * w
        for i, y in enumerate(ys):
            # Partial product: (xs << i) gated by y.
            partial = [b.false_lit] * i + [b.and_gate([x, y]) for x in xs[: w - i]]
            acc = self._add(acc, partial)
        return acc
