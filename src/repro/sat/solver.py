"""A conflict-driven clause-learning (CDCL) SAT solver with theory hooks.

The solver implements the standard modern architecture:

* two-watched-literal unit propagation,
* VSIDS-style variable activities with phase saving,
* first-UIP conflict analysis with recursive clause minimization,
* non-chronological backjumping,
* Luby-sequence restarts and learned-clause database reduction.

It additionally implements the *online* DPLL(T) loop of the paper: after the
Boolean propagation fixpoint, newly assigned theory-relevant literals are fed
to the attached :class:`repro.sat.theory.Theory`.  Theory conflict clauses
enter the regular conflict analysis; theory propagations are enqueued with
their reason clauses.

Since the flat-kernel rewrite (``docs/SATCORE.md``) the hot state lives in
:class:`repro.sat.kernel.BoolKernel`: clauses are integer offsets into a
flat arena, watcher lists are flat ``(tag, blocker)`` pair-lists, and the
VSIDS order is an indexed binary heap.  This module keeps everything
*above* the kernel -- DPLL(T), 1UIP analysis, assumptions/unsat cores,
clause sharing, the audit's proof log, telemetry, budgets.  Under audit
every answer is checked by the independent
:class:`repro.oracle.certify.ProofChecker`.

Literals are DIMACS integers (``v`` / ``-v``); variables are 1-based.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.robustness import checkpoint as _robustness_checkpoint
from repro.robustness.budget import BudgetExceeded, get_active as _active_budget
from repro.sat.kernel import NO_REASON, BoolKernel
from repro.sat.sharing import ShareChannel
from repro.sat.theory import Explanation, Theory, reason_lits

#: Truth values used in the assignment array.
_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: Clauses up to this length are deduped by ``in`` on the output list in
#: :meth:`Solver.add_clause`; longer ones through a set.
_SHORT_CLAUSE = 8

#: A conflict in flight: either an arena cref (attached clause) or a raw
#: literal list (theory conflict clause, never attached).
_Conflict = Union[int, List[int]]


class _Built(Explanation):
    """An explanation the audit already built when it was offered."""

    __slots__ = ("_lits",)

    def __init__(self, lits: List[int]) -> None:
        self._lits = lits

    def lits(self) -> List[int]:
        return self._lits


class SolveResult:
    """Result of :meth:`Solver.solve` (an exhausted run budget raises
    :class:`~repro.robustness.budget.BudgetExceeded` instead)."""

    SAT = "sat"
    UNSAT = "unsat"


@dataclass
class SolverStats:
    """Counters reported by the solver (used by the Fig. 9 ablation).

    All counters are exact, not sampled: the flat kernel counts
    propagations, watcher visits and heap operations inline (see
    ``docs/SATCORE.md``)."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    theory_conflicts: int = 0
    theory_propagations: int = 0
    #: Theory explanations that conflict analysis, clause minimization
    #: or failed-assumption analysis materialised (the audit's reading at
    #: offer time does not count, so the count is the same audited).
    theory_reasons_read: int = 0
    max_trail: int = 0
    #: Watcher-list entries scanned during unit propagation (exact).
    watcher_visits: int = 0
    #: Indexed-heap operations: inserts, pops and effective bumps (exact).
    heap_ops: int = 0
    #: Number of :meth:`Solver.solve` calls on this instance.
    incremental_calls: int = 0
    #: Learned clauses carried into a re-solve (summed over calls 2..n).
    clauses_retained: int = 0
    #: Clauses published to / accepted from an attached share channel.
    shared_exported: int = 0
    shared_imported: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


#: Memoized Luby sequence (satellite: ``luby`` used to re-derive the
#: sequence from scratch on every restart).
_LUBY_CACHE: List[int] = []


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,…

    Memoized: the sequence is extended on demand and cached, so repeated
    restarts pay a list index instead of the log-time derivation."""
    cache = _LUBY_CACHE
    while len(cache) < i:
        x = len(cache)  # 0-based index of the element being derived
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) >> 1
            seq -= 1
            x %= size
        cache.append(1 << seq)
    return cache[i - 1]


class Solver:
    """CDCL SAT solver with an optional attached theory solver.

    Typical use::

        s = Solver()
        v1, v2 = s.new_var(), s.new_var()
        s.add_clause([v1, v2])
        s.add_clause([-v1, v2])
        assert s.solve() == SolveResult.SAT
        assert s.model_value(v2)
    """

    def __init__(self, theory: Optional[Theory] = None) -> None:
        self.theory: Theory = theory if theory is not None else Theory()
        #: The flat-array Boolean engine (arena, watches, trail, heap).
        self.kernel = BoolKernel()
        self.theory.attach(self.kernel.assign)
        self.nvars = 0
        # Hot kernel state aliased onto the solver: the kernel mutates
        # these lists in place and never rebinds them.
        self._assign = self.kernel.assign
        self._level = self.kernel.level
        self._phase = self.kernel.phase
        self._activity = self.kernel.activity
        self._trail = self.kernel.trail
        self._trail_lim = self.kernel.trail_lim
        self._relevant: List[bool] = [False]
        # Count of theory-relevant variables: when zero (pure-SAT use,
        # e.g. the bit-blasted closure baseline or DIMACS export), the
        # per-literal theory feed in _propagate is skipped wholesale.
        self._n_relevant = 0
        self._seen: List[bool] = [False]
        # Problem/learned clauses as arena refs (see kernel.ClauseArena).
        self._clause_refs: List[int] = []
        self._learned_refs: List[int] = []
        self._theory_qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._unsat = False
        self._model: List[int] = []
        self._pending_lemmas: List[List[int]] = []
        #: Assumption literals of the current solve() call, in order.
        self._assumps: List[int] = []
        #: After an assumption-caused UNSAT: the failing subset of the
        #: assumptions (as passed).  Empty after a permanent UNSAT.
        self.unsat_core: List[int] = []
        #: Optional clause-exchange endpoint (portfolio clause sharing).
        self.share: Optional[ShareChannel] = None
        self.stats = SolverStats()
        #: Seconds spent inside the theory callbacks (``assign``,
        #: ``backjump``, ``final_check``), summed over every solve; the
        #: ``theory`` child of the verifier's ``solve`` span.
        self.theory_s = 0.0
        #: Debug-mode invariant auditing (``REPRO_AUDIT=1`` or
        #: ``VerifierConfig.audit``, fixed at construction): checks that
        #: theory conflict clauses are falsified and propagation reasons
        #: well-formed (:mod:`repro.oracle.audit`), and logs every clause
        #: the search relies on to :attr:`proof` so that each answer is
        #: certified by :mod:`repro.oracle.certify`.
        from repro.oracle.audit import audit_enabled as _audit_enabled

        self.audit = _audit_enabled()
        #: Proof log entries ``(tag, literals)`` not yet checked, and the
        #: checker that accepted the earlier ones (made by the first
        #: audited solve).
        self.proof: List[tuple] = []
        self.checker = None
        if self.audit:
            # Inputs are logged by shadowing add_clause on this instance,
            # so the unaudited intake path runs no audit test at all.
            self.add_clause = self._logged_add_clause
        #: Optional telemetry sink (``repro.verify.telemetry.TraceWriter``):
        #: receives solve_start/restart/theory_conflict/theory_propagation/
        #: solve_end events.  Kept off the hot boolean-propagation path.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        """Problem clauses stored (units and clauses satisfied at level 0
        are absorbed by :meth:`add_clause`, not stored)."""
        return len(self._clause_refs)

    def new_var(self, relevant: bool = False) -> int:
        """Allocate a fresh variable; returns its (positive) index.

        ``relevant=True`` marks the variable as theory-relevant: its
        assignments are reported to the attached theory solver.
        """
        self.nvars = self.kernel.new_var()
        self._relevant.append(relevant)
        if relevant:
            self._n_relevant += 1
        self._seen.append(False)
        return self.nvars

    def mark_relevant(self, var: int) -> None:
        """Mark an existing variable theory-relevant."""
        if not self._relevant[var]:
            self._relevant[var] = True
            self._n_relevant += 1

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a problem clause.  Returns False if the formula became UNSAT.

        May be called between :meth:`solve` calls (incremental use): any
        leftover search state is cancelled back to decision level 0 first.
        """
        if self._unsat:
            return False
        if self._trail_lim:
            self._backjump(0)
        # Simplify: drop duplicate/false literals, detect tautologies.
        # Clause intake is on the encoding hot path, so the value lookup,
        # ClauseArena.alloc and BoolKernel.attach are inlined below.  The
        # stored clause, its literal order and its watcher order must stay
        # what those methods produce: the search depends on them
        # (docs/SATCORE.md, "Clause intake").
        if len(lits) > _SHORT_CLAUSE:
            out = self._simplify_long(lits)
            if out is None:
                return True
        else:
            assign = self._assign
            out = []
            for lit in lits:
                if -lit in out:
                    return True  # tautology
                if lit in out:
                    continue
                val = assign[lit] if lit > 0 else -assign[-lit]
                if val == _TRUE:
                    return True  # already satisfied at top level
                if val == _FALSE:
                    continue
                out.append(lit)
        kernel = self.kernel
        n = len(out)
        if n < 2:
            if not n:
                self._unsat = True
                return False
            if not kernel.enqueue(out[0], NO_REASON):
                self._unsat = True
                return False
            if kernel.propagate() != -1:
                self._unsat = True
                return False
            self._sync_stats()
            return True
        arena = kernel.arena
        data = arena.data
        cid2ref = arena.cid2ref
        cref = len(data)
        data.append(n << 2)  # header: size, not learned, not dead
        data.append(len(cid2ref))
        data.extend(out)
        arena.activity.append(0.0)
        cid2ref.append(cref)
        self._clause_refs.append(cref)
        # Watch the first two literals, each with the other as blocker;
        # a binary clause is tagged negative (see repro.sat.kernel).
        l0 = out[0]
        l1 = out[1]
        tag = -(cref + 1) if n == 2 else cref + 1
        watch = kernel.watch
        w = watch[2 * l0 if l0 > 0 else 1 - 2 * l0]
        w.append(tag)
        w.append(l1)
        w = watch[2 * l1 if l1 > 0 else 1 - 2 * l1]
        w.append(tag)
        w.append(l0)
        return True

    def _logged_add_clause(self, lits: Sequence[int]) -> bool:
        """:meth:`add_clause` under audit: log the clause as given."""
        self.proof.append(("input", list(lits)))
        return Solver.add_clause(self, lits)

    def _simplify_long(self, lits: Sequence[int]) -> Optional[List[int]]:
        """:meth:`add_clause`'s simplification for a long clause, deduped
        through a set (``in`` on the output list is quadratic).  None when
        the clause is a tautology or satisfied at the top level."""
        assign = self._assign
        seen = set()
        out: List[int] = []
        for lit in lits:
            if -lit in seen:
                return None
            if lit in seen:
                continue
            val = assign[lit] if lit > 0 else -assign[-lit]
            if val == _TRUE:
                return None
            if val == _FALSE:
                continue
            seen.add(lit)
            out.append(lit)
        return out

    # ------------------------------------------------------------------
    # Public solving API
    # ------------------------------------------------------------------

    def solve(self, assumptions: Optional[Sequence[int]] = None) -> str:
        """Run CDCL search.  Returns a :class:`SolveResult` constant.

        The search has no limits of its own: it charges every conflict to
        the thread's active :class:`~repro.robustness.budget.Budget` and
        checks its deadline, so an exhausted budget raises
        :class:`~repro.robustness.budget.BudgetExceeded` (carrying the
        partial :class:`SolverStats`) with the solver intact.

        ``assumptions`` are literals decided (in order) before any free
        decision, MiniSat-style.  An UNSAT answer caused by the assumptions
        leaves a sufficient failing subset in :attr:`unsat_core` and is
        *not* permanent: the solver can be re-solved under different
        assumptions, and ``new_var`` / ``add_clause`` may be called between
        solves.  Learned clauses, activities, and saved phases are retained
        across calls.
        """
        self._assumps = list(assumptions) if assumptions else []
        for lit in self._assumps:
            if lit == 0 or abs(lit) > self.nvars:
                raise ValueError(f"invalid assumption literal {lit}")
        self.unsat_core = []
        self.stats.incremental_calls += 1
        if self.stats.incremental_calls > 1:
            self.stats.clauses_retained += len(self._learned_refs)
            if self._trail_lim:
                self._backjump(0)
            self.theory.reset()
        if self.telemetry is not None:
            self.telemetry.emit(
                "solve_start",
                nvars=self.nvars,
                clauses=len(self._clause_refs),
                assumptions=len(self._assumps),
                call=self.stats.incremental_calls,
            )
        try:
            result = self._solve()
        except BudgetExceeded as exc:
            if self.share is not None:
                self.share.flush()
            # Attach the partial counters so the budget-exhausted UNKNOWN
            # still reports how far the search got.
            self._sync_stats()
            exc.partial_stats.update(self.stats.as_dict())
            if self.telemetry is not None:
                self.telemetry.emit(
                    "solve_end", result="budget_exceeded", **self.stats.as_dict()
                )
            raise
        # Publish leftover exports: a run that finished before its first
        # restart has never flushed, and its learned clauses are still
        # valuable to portfolio siblings racing the same CNF.
        if self.share is not None:
            self.share.flush()
        self._sync_stats()
        if self.audit:
            self._certify(result)
        if self.telemetry is not None:
            self.telemetry.emit("solve_end", result=result, **self.stats.as_dict())
        return result

    def _sync_stats(self) -> None:
        """Copy the kernel's exact operation counters into the stats."""
        k = self.kernel
        st = self.stats
        st.propagations = k.n_props
        st.max_trail = k.max_trail
        st.watcher_visits = k.n_visits
        st.heap_ops = k.heap.n_ops

    def _certify(self, result: str) -> None:
        """Audit: check the proof log appended since the last solve, then
        certify the answer (RUP of the negated unsat core, or the model
        against the inputs and the ordering axioms)."""
        from repro.oracle.certify import ProofChecker

        if self.checker is None:
            self.checker = ProofChecker()
        entries, self.proof = self.proof, []
        self.checker.check(entries, self.theory.proof_data())
        if result == SolveResult.UNSAT:
            self.checker.certify_unsat(self.unsat_core, self._assumps)
        else:
            self.checker.check_model(self._model)

    def _solve(self) -> str:
        if self._unsat:
            return SolveResult.UNSAT
        restart_idx = 1
        restart_base = 100
        conflicts_total = 0
        max_learned = max(1000, len(self._clause_refs) // 2)
        while True:
            # Robustness checkpoint once per restart period: fires injected
            # faults and checks the run budget's deadline / memory cap
            # (per-conflict charging happens inside _search).
            _robustness_checkpoint("solve")
            # Clause exchange happens at restart boundaries only: the
            # solver is at decision level 0, so imports are plain clauses.
            if not self._exchange_shared():
                return SolveResult.UNSAT
            status, used = self._search(restart_base * luby(restart_idx))
            conflicts_total += used
            if status is not None:
                return status
            restart_idx += 1
            self.stats.restarts += 1
            if self.telemetry is not None:
                self.telemetry.emit(
                    "restart", index=restart_idx, conflicts=conflicts_total
                )
            if len(self._learned_refs) > max_learned:
                self._reduce_db()
                max_learned = int(max_learned * 1.3)

    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the satisfying model (after SAT)."""
        return self._model[var] == _TRUE

    def model_lit(self, lit: int) -> bool:
        v = self._model[abs(lit)]
        return (v == _TRUE) if lit > 0 else (v == _FALSE)

    def value(self, lit: int) -> Optional[bool]:
        """Current assignment of ``lit`` (None if unassigned)."""
        v = self._value(lit)
        if v == _UNASSIGNED:
            return None
        return v == _TRUE

    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    # ------------------------------------------------------------------
    # Core search
    # ------------------------------------------------------------------

    def _search(self, period: int):
        """One restart period of ``period`` conflicts.  Returns
        (status-or-None, conflicts used)."""
        conflicts = 0
        run_budget = _active_budget()
        # The deadline is also checked before every decision, so a search
        # that rarely conflicts still stops on time.
        timed = run_budget is not None and run_budget.deadline is not None
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                self.stats.conflicts += 1
                if run_budget is not None:
                    # Charged before analysis: a stopped search has learned
                    # exactly the clauses of the conflicts within the cap.
                    run_budget.charge_conflicts(1, "solve")
                    if conflicts & 0xFF == 0:
                        run_budget.check("solve")
                if not self._normalize_conflict_level(conflict):
                    return SolveResult.UNSAT, conflicts
                learnt, back_level = self._analyze(conflict)
                self._backjump(back_level)
                self._record_learnt(learnt)
                self._flush_pending_lemmas()
                self._decay_activities()
                if conflicts >= period:
                    self._backjump(0)
                    return None, conflicts
            else:
                if timed:
                    run_budget.check_deadline("solve")
                # Assumptions are the first decisions (MiniSat-style).  An
                # already-true assumption gets an empty decision level so
                # level k always corresponds to assumption k; a false one
                # means UNSAT under these assumptions -- analyze the final
                # conflict into a core over the assumptions.
                placed = False
                while self.decision_level < len(self._assumps):
                    p = self._assumps[self.decision_level]
                    val = self._value(p)
                    if val == _TRUE:
                        self._trail_lim.append(len(self._trail))
                    elif val == _FALSE:
                        self.unsat_core = self._analyze_final(p)
                        return SolveResult.UNSAT, conflicts
                    else:
                        self.stats.decisions += 1
                        self._trail_lim.append(len(self._trail))
                        self.kernel.enqueue(p, NO_REASON)
                        placed = True
                        break
                if placed:
                    continue  # propagate before the next assumption
                lit = self._pick_branch()
                if lit == 0:
                    t = time.perf_counter()
                    final = self.theory.final_check()
                    self.theory_s += time.perf_counter() - t
                    if final.is_conflict:
                        handled = self._handle_theory_conflicts(final.conflicts)
                        if not handled:
                            return SolveResult.UNSAT, conflicts
                        continue
                    if final.propagations:
                        ok = self._apply_theory_propagations(final.propagations)
                        if ok is not None:
                            # Conflict while applying; loop re-propagates.
                            continue
                        continue
                    self._model = list(self._assign)
                    return SolveResult.SAT, conflicts
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self.kernel.enqueue(lit, NO_REASON)

    def _propagate(self) -> Optional[_Conflict]:
        """Boolean + theory propagation to fixpoint.

        Returns a falsified clause (arena cref or theory literal list) on
        conflict, else None.
        """
        kernel = self.kernel
        trail = self._trail
        relevant = self._relevant
        clock = time.perf_counter
        while True:
            conflict = kernel.propagate()
            if conflict != -1:
                return conflict
            n = len(trail)
            if self._n_relevant == 0:
                # Pure-SAT instance: nothing to feed the theory.
                self._theory_qhead = n
                return None
            # Feed newly assigned relevant literals to the theory, under
            # one timer per batch; the batch stops at the first result
            # with work for the SAT core, which runs outside the timer.
            # The trail only grows when that work is done, so the length
            # is loop-invariant here.
            t = clock()
            res = None
            qhead = self._theory_qhead
            theory_assign = self.theory.assign
            dl = len(self._trail_lim)
            for i in range(qhead, n):
                lit = trail[i]
                if not relevant[lit if lit > 0 else -lit]:
                    continue
                res = theory_assign(lit, dl)
                if res.conflicts or res.propagations:
                    qhead = i + 1
                    break
                res = None
            else:
                qhead = n
            self._theory_qhead = qhead
            self.theory_s += clock() - t
            if res is None:
                if kernel.qhead >= n:
                    return None
                continue
            if res.conflicts:
                self.stats.theory_conflicts += 1
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "theory_conflict",
                        level=self.decision_level,
                        clauses=len(res.conflicts),
                    )
                return self._handle_theory_conflict_clauses(res.conflicts)
            c = self._apply_theory_propagations(res.propagations)
            if c is not None:
                return c
            # Run boolean propagation on the new literals.

    def _conflict_lits(self, conflict: _Conflict) -> List[int]:
        """The literals of a conflict in flight (cref or raw list)."""
        if type(conflict) is int:
            data = self.kernel.arena.data
            base = conflict + 2
            return data[base : base + (data[conflict] >> 2)]
        return conflict

    def _handle_theory_conflict_clauses(
        self, conflicts: List[List[int]]
    ) -> List[int]:
        """Store theory conflict clauses; return the first as the conflict.

        All returned clauses are currently falsified.  Extra clauses beyond
        the first (the paper generates *all* shortest-width conflict clauses)
        are queued and attached only after the backjump, when the watch
        invariant can be established safely.
        """
        if self.audit:
            from repro.oracle.audit import check_conflict_clause

            for clause_lits in conflicts:
                check_conflict_clause(self.value, clause_lits)
                self.proof.append(("theory", list(clause_lits)))
        for extra in conflicts[1:]:
            if len(extra) >= 1:
                self._pending_lemmas.append(list(extra))
        return list(conflicts[0])

    def _flush_pending_lemmas(self) -> None:
        """Attach lemmas queued during conflict handling.

        Called right after a backjump.  Each lemma is attached with two
        non-false watches when possible; unit lemmas propagate immediately;
        lemmas still falsified are dropped (the theory re-derives them).
        """
        pending, self._pending_lemmas = self._pending_lemmas, []
        for lits in pending:
            # Theory lemmas are theory-valid, hence shareable with any
            # solver working on the identical encoding.
            if self.share is not None and self.share.offer(lits):
                self.stats.shared_exported += 1
            non_false = [l for l in lits if self._value(l) != _FALSE]
            if len(lits) < 2:
                continue
            lits = list(lits)
            if len(non_false) >= 2:
                a = lits.index(non_false[0])
                lits[0], lits[a] = lits[a], lits[0]
                b = lits.index(non_false[1])
                lits[1], lits[b] = lits[b], lits[1]
                enqueue_first = False
            elif len(non_false) == 1:
                a = lits.index(non_false[0])
                lits[0], lits[a] = lits[a], lits[0]
                # Second watch: the highest-level false literal.
                hi = max(range(1, len(lits)), key=lambda k: self._level[abs(lits[k])])
                lits[1], lits[hi] = lits[hi], lits[1]
                enqueue_first = self._value(lits[0]) == _UNASSIGNED
            else:
                # Still falsified after the backjump; dropping is sound
                # (the lemma is theory-valid and will be re-derived).
                continue
            cref = self.kernel.arena.alloc(lits, learned=True)
            self._learned_refs.append(cref)
            self.stats.learned += 1
            self.kernel.attach(cref)
            if enqueue_first:
                self.kernel.enqueue(lits[0], cref)

    def _handle_theory_conflicts(self, conflicts: List[List[int]]) -> bool:
        """Conflict at final check.  Returns False if UNSAT at level 0."""
        self.stats.conflicts += 1
        self.stats.theory_conflicts += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "theory_conflict",
                level=self.decision_level,
                clauses=len(conflicts),
                final_check=True,
            )
        conflict = self._handle_theory_conflict_clauses(conflicts)
        if not self._normalize_conflict_level(conflict):
            return False
        learnt, back_level = self._analyze(conflict)
        self._backjump(back_level)
        self._record_learnt(learnt)
        self._flush_pending_lemmas()
        self._decay_activities()
        return True

    def _apply_theory_propagations(self, props) -> Optional[_Conflict]:
        """Enqueue theory-propagated literals.  Returns a conflict clause if
        a propagated literal is already false.

        A reason enters the pool as the theory gave it: an explanation is
        materialised by whoever reads it first (``docs/SATCORE.md``), here
        only when its literal is already false (the reason is the
        conflict) or under audit, which checks and logs every enqueued
        reason (and pools the built list as an explanation that counts
        when it is first read).  The value test, the pool slot and
        ``BoolKernel.enqueue`` are inlined."""
        if self.telemetry is not None and props:
            self.telemetry.emit("theory_propagation", count=len(props))
        audit = self.audit
        if audit:
            from repro.oracle.audit import check_propagation_reason
        kernel = self.kernel
        assign = self._assign
        level = self._level
        phase = self._phase
        reason = kernel.reason
        treason = kernel.treason
        free = kernel.treason_free
        trail = self._trail
        dl = len(self._trail_lim)
        conflict = None
        n = 0
        for lit, why in props:
            if lit > 0:
                v = lit
                val = assign[v]
            else:
                v = -lit
                val = -assign[v]
            if val == _TRUE:
                continue
            if audit:
                lits = reason_lits(why)
                check_propagation_reason(self.value, lit, lits)
                self.proof.append(("theory", list(lits)))
                if type(why) is not list:
                    # The pool keeps an explanation, so that the first
                    # read counts as it does unaudited.
                    why = _Built(lits)
            if val == _FALSE:
                conflict = list(why) if type(why) is list else why.lits()
                break
            n += 1
            if free:
                slot = free.pop()
                treason[slot] = why
            else:
                slot = len(treason)
                treason.append(why)
            if lit > 0:
                assign[v] = 1
                phase[v] = 1
            else:
                assign[v] = -1
                phase[v] = 0
            level[v] = dl
            reason[v] = -2 - slot
            trail.append(lit)
        self.stats.theory_propagations += n
        kernel.n_props += n
        if len(trail) > kernel.max_trail:
            kernel.max_trail = len(trail)
        return conflict

    def _normalize_conflict_level(self, conflict: _Conflict) -> bool:
        """Prepare a falsified clause for 1UIP analysis.

        Theory conflict clauses (notably from final checks) may contain no
        literal at the current decision level; analysis requires one, so
        drop to the clause's highest level first.  Returns False when the
        clause is falsified at level 0 (the formula is UNSAT).
        """
        level = self._level
        max_level = 0
        for lit in self._conflict_lits(conflict):
            lvl = level[abs(lit)]
            if lvl > max_level:
                max_level = lvl
        if max_level == 0:
            # A clause falsified at level 0 follows from the formula alone
            # (assumptions never enter level 0), so this UNSAT is permanent.
            self._unsat = True
            return False
        if max_level < self.decision_level:
            self._backjump(max_level)
        return True

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Conflict):
        """First-UIP learning.  Returns (learnt clause lits, backjump level).

        The asserting literal ends up at index 0 of the learnt clause.
        Reason clauses are resolved straight out of the arena (or the
        theory-reason pool); the literal being resolved on is skipped by
        variable, so no positional reason invariant is needed.
        """
        kernel = self.kernel
        trail = self._trail
        level = self._level
        reason = kernel.reason
        data = kernel.arena.data
        treason = kernel.treason
        seen = self._seen
        activity = self._activity
        var_inc = self._var_inc
        heap_obj = kernel.heap
        heap = heap_obj.heap
        pos = heap_obj.pos
        n_bumps = 0
        dl = self.decision_level
        learnt: List[int] = [0]  # placeholder for the asserting literal
        path_count = 0
        p = 0  # literal being resolved on (0 = use whole conflict clause)
        pv = 0
        index = len(trail) - 1
        to_clear: List[int] = []
        cl: _Conflict = conflict
        while True:
            if type(cl) is int:
                header = data[cl]
                if header & 2:
                    self._bump_clause_ref(cl)
                src = data
                start = cl + 2
                end = start + (header >> 2)
            else:
                src = cl
                start = 0
                end = len(cl)
            for k in range(start, end):
                q = src[k]
                v = q if q > 0 else -q
                if v == pv:
                    continue  # the literal being resolved on
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    to_clear.append(v)
                    # VSIDS bump, then the indexed heap's sift-up (one
                    # heap_ops operation when v is in the heap below the
                    # root), inlined.
                    a = activity[v] + var_inc
                    activity[v] = a
                    if a > 1e100:
                        self._rescale_var_activity()
                        var_inc = self._var_inc
                        a = activity[v]
                    i = pos[v]
                    if i > 0:
                        n_bumps += 1
                        while i > 0:
                            parent = (i - 1) >> 1
                            hv = heap[parent]
                            if activity[hv] >= a:
                                break
                            heap[i] = hv
                            pos[hv] = i
                            i = parent
                        heap[i] = v
                        pos[v] = i
                    if level[v] >= dl:
                        path_count += 1
                    else:
                        learnt.append(q)
            # Pick next literal on the trail to resolve.
            while True:
                p = trail[index]
                pv = p if p > 0 else -p
                if seen[pv]:
                    break
                index -= 1
            r = reason[pv]
            seen[pv] = False
            index -= 1
            path_count -= 1
            if path_count <= 0:
                break
            # A decision has no reason and can never be resolved on while
            # literals above it remain on the current level.
            assert r != NO_REASON, "resolving on a decision in _analyze"
            if r >= 0:
                cl = r
            else:
                cl = treason[-2 - r]
                if type(cl) is not list:  # a theory explanation, first read
                    cl = treason[-2 - r] = cl.lits()
                    self.stats.theory_reasons_read += 1
        heap_obj.n_ops += n_bumps
        learnt[0] = -p
        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (level[abs(q)] & 31)
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if reason[abs(q)] == NO_REASON or not self._lit_redundant(
                q, abstract_levels, to_clear
            ):
                minimized.append(q)
        learnt = minimized
        for v in to_clear:
            seen[v] = False
        # Backjump level: second-highest level in the clause.
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for k in range(2, len(learnt)):
                if level[abs(learnt[k])] > level[abs(learnt[max_i])]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[abs(learnt[1])]
        return learnt, back_level

    def _lit_redundant(self, lit: int, abstract_levels: int, to_clear: List[int]) -> bool:
        """Check (recursively) whether ``lit`` is implied by other learnt
        literals; part of clause minimization (Sorensson & Biere)."""
        kernel = self.kernel
        reason = kernel.reason
        level = self._level
        data = kernel.arena.data
        treason = kernel.treason
        seen = self._seen
        stack = [lit]
        top = len(to_clear)
        while stack:
            p = stack.pop()
            pv = p if p > 0 else -p
            r = reason[pv]
            assert r != NO_REASON
            if r >= 0:
                src = data
                start = r + 2
                end = start + (data[r] >> 2)
            else:
                src = treason[-2 - r]
                if type(src) is not list:
                    src = treason[-2 - r] = src.lits()
                    self.stats.theory_reasons_read += 1
                start = 0
                end = len(src)
            for k in range(start, end):
                q = src[k]
                v = q if q > 0 else -q
                if v == pv or seen[v] or level[v] == 0:
                    continue
                if reason[v] == NO_REASON or not (
                    (1 << (level[v] & 31)) & abstract_levels
                ):
                    # Cannot be resolved away: undo marks made here.
                    for u in to_clear[top:]:
                        seen[u] = False
                    del to_clear[top:]
                    return False
                seen[v] = True
                to_clear.append(v)
                stack.append(q)
        return True

    def _analyze_final(self, p: int) -> List[int]:
        """Failed-assumption analysis (MiniSat ``analyzeFinal``).

        ``p`` is an assumption that is false under the current (assumption-
        only) prefix of the trail.  Walk the implication graph backwards
        from ``-p``; every decision reached is an assumption, and together
        with ``p`` they form a subset of the assumptions sufficient for
        UNSAT -- the unsat core.  Returned literals are the assumptions as
        passed to :meth:`solve`.
        """
        core = [p]
        if self.decision_level == 0 or self._level[abs(p)] == 0:
            return core
        kernel = self.kernel
        reason = kernel.reason
        data = kernel.arena.data
        treason = kernel.treason
        level = self._level
        seen = self._seen
        to_clear = [abs(p)]
        seen[abs(p)] = True
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            v = abs(lit)
            if not seen[v]:
                continue
            r = reason[v]
            if r == NO_REASON:
                # A decision above level 0 is an assumption (it was
                # enqueued exactly as passed).
                core.append(lit)
            else:
                if r >= 0:
                    src = data
                    start = r + 2
                    end = start + (data[r] >> 2)
                else:
                    src = treason[-2 - r]
                    if type(src) is not list:
                        src = treason[-2 - r] = src.lits()
                        self.stats.theory_reasons_read += 1
                    start = 0
                    end = len(src)
                for k in range(start, end):
                    q = src[k]
                    u = abs(q)
                    if u != v and not seen[u] and level[u] > 0:
                        seen[u] = True
                        to_clear.append(u)
        for v in to_clear:
            seen[v] = False
        return core

    def _record_learnt(self, learnt: List[int]) -> None:
        if self.audit:
            self.proof.append(("learn", list(learnt)))
        if self.share is not None and self.share.offer(learnt):
            self.stats.shared_exported += 1
        if len(learnt) == 1:
            self.kernel.enqueue(learnt[0], NO_REASON)
            return
        cref = self.kernel.arena.alloc(learnt, learned=True)
        self._learned_refs.append(cref)
        self.stats.learned += 1
        self.kernel.attach(cref)
        self._bump_clause_ref(cref)
        self.kernel.enqueue(learnt[0], cref)

    def _exchange_shared(self) -> bool:
        """Flush/import shared clauses at a restart boundary (level 0).

        Imported clauses are formula-valid for the identical encoding, so
        they are added as ordinary clauses.  Returns False if an import
        proves the formula UNSAT.
        """
        if self.share is None:
            return True
        for lits in self.share.exchange():
            self.stats.shared_imported += 1
            if self.audit:
                self.proof.append(("import", list(lits)))
            # The class's add_clause: an import is not an input.
            if not Solver.add_clause(self, lits):
                return False
        return not self._unsat

    # ------------------------------------------------------------------
    # Assignment management
    # ------------------------------------------------------------------

    def _backjump(self, level: int) -> None:
        if self.decision_level <= level:
            return
        self.kernel.cancel_until(level)
        if self._theory_qhead > len(self._trail):
            self._theory_qhead = len(self._trail)
        t = time.perf_counter()
        self.theory.backjump(level)
        self.theory_s += time.perf_counter() - t

    def _pick_branch(self) -> int:
        kernel = self.kernel
        if len(kernel.trail) == kernel.nvars:
            # Every variable is assigned: the model is complete.  Skip
            # draining the heap (it would pop all n live entries just to
            # discover there is nothing left to decide); reinsertion on
            # backjump skips queued variables, so the entries stay valid.
            return 0
        assign = self._assign
        phase = self._phase
        heap = kernel.heap
        while True:
            v = heap.pop()
            if v == 0:
                return 0
            if assign[v] == _UNASSIGNED:
                return v if phase[v] else -v

    # ------------------------------------------------------------------
    # Activities
    # ------------------------------------------------------------------

    def _rescale_var_activity(self) -> None:
        """Scale every variable activity and the increment down by 1e100
        (the heap order is unchanged)."""
        activity = self._activity
        for u in range(1, self.nvars + 1):
            activity[u] *= 1e-100
        self._var_inc *= 1e-100

    def _bump_clause_ref(self, cref: int) -> None:
        arena = self.kernel.arena
        cid = arena.data[cref + 1]
        a = arena.activity[cid] + self._cla_inc
        arena.activity[cid] = a
        if a > 1e20:
            self._rescale_clause_activity()

    def _rescale_clause_activity(self) -> None:
        activity = self.kernel.arena.activity
        data = self.kernel.arena.data
        for cref in self._learned_refs:
            activity[data[cref + 1]] *= 1e-20
        self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay
        # Keep the increments bounded even across conflict streaks where
        # no attached learned clause is bumped (theory-heavy searches).
        if self._cla_inc > 1e20:
            self._rescale_clause_activity()

    # ------------------------------------------------------------------
    # Learned clause DB reduction
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Remove the lower-activity half of removable learned clauses."""
        kernel = self.kernel
        arena = kernel.arena
        data = arena.data
        activity = arena.activity
        reason = kernel.reason
        locked = set()
        for v in range(1, self.nvars + 1):
            r = reason[v]
            if r >= 0:
                locked.add(r)
        self._learned_refs.sort(key=lambda c: activity[data[c + 1]])
        keep: List[int] = []
        n_remove = len(self._learned_refs) // 2
        removed = 0
        for cref in self._learned_refs:
            if removed < n_remove and cref not in locked and (data[cref] >> 2) > 2:
                kernel.detach(cref)
                arena.free(cref)
                removed += 1
            else:
                keep.append(cref)
        self._learned_refs = keep
        # Compact once dead clauses dominate the arena; clause ids stay
        # valid (``cid2ref`` follows the moves).
        if arena.dead_words > 4096 and arena.dead_words * 2 > len(data):
            kernel.compact_arena([self._clause_refs, self._learned_refs])

    # ------------------------------------------------------------------
    # Cold-path helpers
    # ------------------------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self._assign[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v if lit > 0 else -v
