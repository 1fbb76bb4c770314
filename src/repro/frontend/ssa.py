"""Loop unrolling + SSA transformation (Section 3.1 of the paper).

Each thread is lowered to straight-line guarded SSA form:

* every *shared* access becomes a fresh SSA copy of the variable plus an
  access :class:`~repro.frontend.program.Event` (the paper's ``L x_i M``);
* locals are pure dataflow, merged with ``ite`` at control-flow joins;
* loops are unrolled ``unwind`` times with an *unwinding assumption*
  (executions needing more iterations are excluded);
* ``lock``/``unlock`` desugar to an atomic test-and-set / a plain store;
* ``atomic`` blocks contribute read-modify-write adjacency groups.

Logical operators are *strict* (both operands always evaluated); this keeps
the SMT encoding and the interpreter in :mod:`repro.smc` in exact agreement
about which events an execution performs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.encoding import formula as F
from repro.encoding.formula import Term
from repro.lang import ast
from repro.lang.sema import check_program
from repro.robustness import checkpoint as _robustness_checkpoint
from repro.frontend.program import (
    Event,
    EventKind,
    RmwGroup,
    SymbolicProgram,
    ThreadEvents,
)

__all__ = ["build_symbolic_program", "SsaError"]


class SsaError(ValueError):
    """Raised on constructs the front end cannot lower."""


def build_symbolic_program(
    program: ast.Program,
    unwind: int = 8,
    width: int = 8,
    unwind_assumptions: bool = False,
) -> SymbolicProgram:
    """Lower ``program`` to a :class:`SymbolicProgram`.

    Args:
        program: parsed and (re)checked AST.
        unwind: maximum number of loop iterations considered (per loop
            occurrence; nested loops multiply).
        width: bit-width of all integer values.
        unwind_assumptions: when True, loop frontiers are *not* cut off
            with hard constraints; instead every loop-condition evaluation
            is recorded in :attr:`SymbolicProgram.unwind_conds` so the
            encoder can assert per-bound unwinding assumptions under
            activation literals (iterative-deepening BMC).  The caller
            **must** then assert the bound-``unwind`` assumption, or the
            deepest frontier is truncated without exclusion (unsound).
    """
    check_program(program)
    lowerer = _Lowerer(program, unwind, width, unwind_assumptions)
    return lowerer.run()


class _Lowerer:
    def __init__(
        self,
        program: ast.Program,
        unwind: int,
        width: int,
        unwind_assumptions: bool = False,
    ) -> None:
        self.program = program
        self.unwind = unwind
        self.width = width
        self.unwind_assumptions = unwind_assumptions
        self.out = SymbolicProgram(width=width)
        self._ssa_counters: Dict[str, int] = {}
        self._locks = {g.name for g in program.globals if g.is_lock}
        self._shared = {g.name: g.init for g in program.globals}
        self.out.shared_inits = dict(self._shared)
        self.out.lock_addrs = sorted(self._locks)
        # Per-thread lowering state (set in _lower_thread).
        self._env: Dict[str, Term] = {}
        self._guard: Term = F.TRUE
        self._events: List[Event] = []
        self._thread: str = ""
        self._atomic_events: Optional[List[Event]] = None
        self._stmt: Optional[ast.Stmt] = None

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> SymbolicProgram:
        main = self.program.main
        if main is None:
            # Implicit main: start every thread, join every thread.
            body: List[ast.Stmt] = [ast.Start(t.name) for t in self.program.threads]
            body += [ast.Join(t.name) for t in self.program.threads]
            main = ast.ThreadDef("main", body)
        # Lower main first; start/join produce anchors recorded here.
        self._anchor_of_start: Dict[str, int] = {}
        self._anchor_of_join: Dict[str, int] = {}
        main_events = self._lower_thread(main, is_main=True)
        self.out.threads.append(ThreadEvents("main", main_events))
        # Lower each *started* thread; wire anchor edges.
        for name, start_eid in self._anchor_of_start.items():
            tdef = self.program.thread_named(name)
            events = self._lower_thread(tdef, is_main=False)
            self.out.threads.append(ThreadEvents(name, events))
            if events:
                self.out.po_edges.append((start_eid, events[0].eid))
                join_eid = self._anchor_of_join.get(name)
                if join_eid is not None:
                    self.out.po_edges.append((events[-1].eid, join_eid))
        return self.out

    def _lower_thread(self, tdef: ast.ThreadDef, is_main: bool) -> List[Event]:
        self._env = {}
        self._guard = F.TRUE
        self._events = []
        self._thread = tdef.name
        self._atomic_events = None
        self._stmt = None
        if is_main:
            # Initialization writes: one unconditional write per shared var.
            for name, init in sorted(self._shared.items()):
                ev, var = self._emit_access(EventKind.WRITE, name)
                self.out.constraints.append(F.eq(var, F.bv_const(init, self.width)))
        for stmt in tdef.body:
            self._lower_stmt(stmt)
        # Chain program-order edges.
        for a, b in zip(self._events, self._events[1:]):
            self.out.po_edges.append((a.eid, b.eid))
        return self._events

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _fresh(self, base: str) -> str:
        k = self._ssa_counters.get(base, 0)
        self._ssa_counters[base] = k + 1
        return f"{base}#{k}"

    def _emit_access(self, kind: str, addr: str) -> Tuple[Event, Term]:
        """Create an event + SSA variable for an access to ``addr``."""
        # Each shared access is one event-graph node; unrolling multiplies
        # them, so this is where the ``max_events`` budget is charged.
        _robustness_checkpoint("frontend", events=1)
        ssa_name = self._fresh(addr)
        var = F.bv_var(ssa_name, self.width)
        eid = len(self.out.events)
        ev = Event(
            eid=eid,
            kind=kind,
            addr=addr,
            ssa_name=ssa_name,
            thread=self._thread,
            guard=self._guard,
            label=f"{self._thread}:{kind} {ssa_name}",
            pos=getattr(self._stmt, "pos", None),
            stmt=self._stmt,
        )
        self.out.events.append(ev)
        self._events.append(ev)
        if self._atomic_events is not None:
            self._atomic_events.append(ev)
        return ev, var

    def _emit_anchor(self, label: str) -> int:
        eid = len(self.out.events)
        ev = Event(
            eid=eid,
            kind=EventKind.ANCHOR,
            addr=None,
            ssa_name=None,
            thread=self._thread,
            guard=F.TRUE,
            label=f"{self._thread}:{label}",
        )
        self.out.events.append(ev)
        self._events.append(ev)
        return eid

    def _free_var(self, base: str) -> Term:
        name = self._fresh(base)
        self.out.free_vars.append(name)
        return F.bv_var(name, self.width)

    def _to_bool(self, t: Term) -> Term:
        """Truthiness of a BV term, with a peephole for encoded booleans."""
        if (
            t.op == "bvite"
            and t.args[1].op == "bvconst" and t.args[1].value == 1
            and t.args[2].op == "bvconst" and t.args[2].value == 0
        ):
            return t.args[0]
        return F.ne(t, F.bv_const(0, self.width))

    def _from_bool(self, b: Term) -> Term:
        return F.bv_ite(b, F.bv_const(1, self.width), F.bv_const(0, self.width))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Term:
        if isinstance(expr, ast.IntLit):
            return F.bv_const(expr.value, self.width)
        if isinstance(expr, ast.Nondet):
            var = self._free_var("nondet")
            self.out.nondet_sites.append((self._thread, var.name, self._guard))
            return var
        if isinstance(expr, ast.VarRef):
            if expr.name in self._shared:
                _, var = self._emit_access(EventKind.READ, expr.name)
                return var
            value = self._env.get(expr.name)
            if value is None:
                # Uninitialized local: unconstrained.
                value = self._free_var(f"{self._thread}.{expr.name}")
                self._env[expr.name] = value
            return value
        if isinstance(expr, ast.Unary):
            v = self._lower_expr(expr.operand)
            if expr.op == "-":
                return F.bv_neg(v)
            if expr.op == "~":
                return F.bv_not(v)
            if expr.op == "!":
                return self._from_bool(F.mk_not(self._to_bool(v)))
            raise SsaError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Binary):
            lhs = self._lower_expr(expr.left)
            rhs = self._lower_expr(expr.right)
            op = expr.op
            if op == "+":
                return F.bv_add(lhs, rhs)
            if op == "-":
                return F.bv_sub(lhs, rhs)
            if op == "*":
                return F.bv_mul(lhs, rhs)
            if op == "&":
                return F.bv_and(lhs, rhs)
            if op == "|":
                return F.bv_or(lhs, rhs)
            if op == "^":
                return F.bv_xor(lhs, rhs)
            if op == "&&":
                return self._from_bool(F.mk_and(self._to_bool(lhs), self._to_bool(rhs)))
            if op == "||":
                return self._from_bool(F.mk_or(self._to_bool(lhs), self._to_bool(rhs)))
            if op == "==":
                return self._from_bool(F.eq(lhs, rhs))
            if op == "!=":
                return self._from_bool(F.ne(lhs, rhs))
            if op == "<":
                return self._from_bool(F.slt(lhs, rhs))
            if op == "<=":
                return self._from_bool(F.sle(lhs, rhs))
            if op == ">":
                return self._from_bool(F.slt(rhs, lhs))
            if op == ">=":
                return self._from_bool(F.sle(rhs, lhs))
            raise SsaError(f"unknown binary operator {op!r}")
        raise SsaError(f"cannot lower expression {expr!r}")

    def _lower_cond(self, expr: ast.Expr) -> Term:
        return self._to_bool(self._lower_expr(expr))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if self._guard is F.FALSE:
            # Unreachable (a branch or loop iteration the term
            # constructors folded to false): it emits no events, no
            # constraints and no nondet sites.  Start and join are
            # top-level only, so no thread anchor is lost.
            return
        self._stmt = stmt
        if isinstance(stmt, ast.LocalDecl):
            if stmt.init is not None:
                self._env[stmt.name] = self._lower_expr(stmt.init)
            else:
                self._env[stmt.name] = self._free_var(
                    f"{self._thread}.{stmt.name}"
                )
            return
        if isinstance(stmt, ast.Assign):
            value = self._lower_expr(stmt.value)
            if stmt.name in self._shared:
                _, var = self._emit_access(EventKind.WRITE, stmt.name)
                self.out.constraints.append(F.implies(self._guard, F.eq(var, value)))
            else:
                self._env[stmt.name] = value
            return
        if isinstance(stmt, ast.If):
            self._lower_if(stmt)
            return
        if isinstance(stmt, ast.While):
            self._lower_while(stmt, self.unwind)
            return
        if isinstance(stmt, ast.Assert):
            cond = self._lower_cond(stmt.cond)
            self.out.error_disjuncts.append(F.mk_and(self._guard, F.mk_not(cond)))
            return
        if isinstance(stmt, ast.Assume):
            cond = self._lower_cond(stmt.cond)
            self.out.constraints.append(F.implies(self._guard, cond))
            return
        if isinstance(stmt, ast.Lock):
            # atomic { assume(l == 0); l = 1; }
            read_ev, read_var = self._emit_access(EventKind.READ, stmt.name)
            self.out.constraints.append(
                F.implies(self._guard, F.eq(read_var, F.bv_const(0, self.width)))
            )
            write_ev, write_var = self._emit_access(EventKind.WRITE, stmt.name)
            self.out.constraints.append(
                F.implies(self._guard, F.eq(write_var, F.bv_const(1, self.width)))
            )
            self.out.rmw_groups.append(
                RmwGroup(stmt.name, read_ev.eid, write_ev.eid)
            )
            return
        if isinstance(stmt, ast.Unlock):
            _, var = self._emit_access(EventKind.WRITE, stmt.name)
            self.out.constraints.append(
                F.implies(self._guard, F.eq(var, F.bv_const(0, self.width)))
            )
            return
        if isinstance(stmt, ast.Atomic):
            self._lower_atomic(stmt)
            return
        if isinstance(stmt, ast.Start):
            eid = self._emit_anchor(f"start {stmt.thread}")
            self._anchor_of_start[stmt.thread] = eid
            return
        if isinstance(stmt, ast.Join):
            eid = self._emit_anchor(f"join {stmt.thread}")
            self._anchor_of_join[stmt.thread] = eid
            return
        if isinstance(stmt, ast.Skip):
            return
        if isinstance(stmt, ast.Fence):
            # Fences are pure ordering anchors: no memory access, but they
            # preserve program order around them under weak memory models.
            self._emit_anchor("fence")
            return
        raise SsaError(f"cannot lower statement {type(stmt).__name__}")

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_cond(stmt.cond)
        outer_guard = self._guard
        saved_env = dict(self._env)
        self._guard = F.mk_and(outer_guard, cond)
        for s in stmt.then_body:
            self._lower_stmt(s)
        then_env = self._env
        self._env = dict(saved_env)
        self._guard = F.mk_and(outer_guard, F.mk_not(cond))
        for s in stmt.else_body:
            self._lower_stmt(s)
        else_env = self._env
        self._guard = outer_guard
        self._env = self._merge_envs(cond, then_env, else_env)

    def _lower_while(self, stmt: ast.While, depth: int) -> None:
        if self._guard is F.FALSE:
            return  # an iteration past a constant trip count
        self._stmt = stmt  # condition re-reads belong to the loop header
        cond = self._lower_cond(stmt.cond)
        if self.unwind_assumptions:
            # Record the frontier condition at every header evaluation:
            # asserting the negation of all entries with the same
            # iteration count is exactly the unwinding assumption for
            # that bound (the encoder guards each set with an activation
            # literal; see encoding.encoder.add_unwind_bound).
            self.out.unwind_conds.append(
                (self.unwind - depth, F.mk_and(self._guard, cond))
            )
        if depth == 0:
            if not self.unwind_assumptions:
                # Unwinding assumption: executions that would iterate
                # further are excluded from the bounded analysis.
                self.out.constraints.append(
                    F.implies(F.mk_and(self._guard, cond), F.FALSE)
                )
            return
        outer_guard = self._guard
        saved_env = dict(self._env)
        self._guard = F.mk_and(outer_guard, cond)
        for s in stmt.body:
            self._lower_stmt(s)
        self._lower_while(stmt, depth - 1)
        inner_env = self._env
        self._guard = outer_guard
        self._env = self._merge_envs(cond, inner_env, saved_env)

    def _merge_envs(
        self, cond: Term, then_env: Dict[str, Term], else_env: Dict[str, Term]
    ) -> Dict[str, Term]:
        merged: Dict[str, Term] = {}
        for name in set(then_env) | set(else_env):
            tval = then_env.get(name)
            eval_ = else_env.get(name)
            if tval is None:
                merged[name] = eval_  # declared only in else branch
            elif eval_ is None:
                merged[name] = tval
            elif tval is eval_:
                merged[name] = tval
            else:
                merged[name] = F.bv_ite(cond, tval, eval_)
        return merged

    def _lower_atomic(self, stmt: ast.Atomic) -> None:
        self._atomic_events = []
        try:
            for s in stmt.body:
                self._lower_stmt(s)
            events = self._atomic_events
        finally:
            self._atomic_events = None
        if events:
            self.out.atomic_regions.append([e.eid for e in events])
        # Per address: pair the first read with the last write (sema
        # guarantees at most one shared variable is touched).
        by_addr: Dict[str, List[Event]] = {}
        for ev in events:
            by_addr.setdefault(ev.addr, []).append(ev)
        for addr, evs in by_addr.items():
            reads = [e for e in evs if e.is_read]
            writes = [e for e in evs if e.is_write]
            if reads and writes:
                self.out.rmw_groups.append(
                    RmwGroup(addr, reads[0].eid, writes[-1].eid)
                )
