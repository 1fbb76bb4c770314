"""The whole-program SMT encoding (Section 3).

Builds ``Ψ = Φ_ssa ∧ Φ_ord`` over the CDCL core:

* ``Φ_ssa`` (bit-blasted): value assignments ``rho_va``, the error condition
  ``rho_err``, RF-Val / RF-Some, WS-Cond / WS-Some, and the
  read-modify-write atomicity constraints for ``atomic`` blocks and locks;
* ``Φ_ord`` (theory): program order lives in the event-graph skeleton;
  RF-Ord / WS-Ord are realized by registering each ordering variable with
  the :class:`repro.ordering.OrderingTheory` as a pre-created edge.

With ``fr_encoding=True`` (the Zord⁻ ablation) the from-read rule is
additionally encoded as explicit clauses ``rf ∧ ws → fr`` over fresh FR
ordering variables, and the theory solver's own from-read propagation is
expected to be disabled by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.encoding.bitblast import BitBlaster
from repro.encoding.cnf import CnfBuilder
from repro.encoding import formula as F
from repro.encoding.ppo import preserved_program_order
from repro.encoding.symmetry import InputRecorder, thread_swaps
from repro.frontend.program import Event, SymbolicProgram
from repro.ordering import OrderingTheory
from repro.robustness import checkpoint as _robustness_checkpoint
from repro.sat import Solver

__all__ = [
    "EncodedProgram",
    "encode_program",
    "add_unwind_bound",
    "EncodingStats",
]


@dataclass
class EncodingStats:
    """Formula-size statistics (Fig. 8 discusses encoding size)."""

    rf_vars: int = 0
    ws_vars: int = 0
    fr_vars: int = 0
    sat_vars: int = 0
    #: Problem clauses the SAT core stores after encoding (units and
    #: clauses satisfied at level 0 are not stored).
    sat_clauses: int = 0
    #: RF/WS candidates considered (post baseline skips) and how many the
    #: :mod:`repro.analysis` prune plan vetoed, plus its build time.
    analysis_pairs_total: int = 0
    analysis_pairs_pruned: int = 0
    analysis_time_s: float = 0.0
    #: SYMMETRY edges added to the ordering skeleton (one per verified
    #: swap of two interchangeable threads).
    symmetry_edges: int = 0


@dataclass
class EncodedProgram:
    """A program encoded into a solver + ordering theory, ready to solve."""

    solver: Solver
    theory: OrderingTheory
    blaster: BitBlaster
    symbolic: SymbolicProgram
    #: rf variable -> (write event, read event)
    rf_vars: Dict[int, Tuple[Event, Event]] = field(default_factory=dict)
    #: ws variable -> (write event, write event)
    ws_vars: Dict[int, Tuple[Event, Event]] = field(default_factory=dict)
    #: guard literal per event id
    guard_lits: Dict[int, int] = field(default_factory=dict)
    trivially_safe: bool = False
    stats: EncodingStats = field(default_factory=EncodingStats)
    #: bound -> activation literal of that bound's unwinding assumption
    #: (None for bounds needing no assumption); see :func:`add_unwind_bound`.
    unwind_assumptions: Dict[int, Optional[int]] = field(default_factory=dict)


def encode_program(
    sym: SymbolicProgram,
    detector: str = "icd",
    unit_edge: bool = True,
    fr_encoding: bool = False,
    max_conflict_clauses: int = 8,
    theory=None,
    memory_model: str = "sc",
    prune_plan=None,
) -> EncodedProgram:
    """Encode ``sym`` into CNF + an ordering theory; return the bundle.

    Args:
        sym: the front end's guarded SSA program.
        detector: cycle detection strategy (``"icd"`` / ``"tarjan"``).
        unit_edge: enable unit-edge theory propagation (Zord′ disables).
        fr_encoding: encode ``rho_fr`` explicitly and disable theory-side
            from-read propagation (Zord⁻).
        theory: override the theory solver (the IDL baseline passes its
            clock-difference theory here; it shares the registration
            interface of :class:`OrderingTheory`).
        memory_model: ``"sc"``, ``"tso"`` or ``"pso"``; under the weak
            models the event-graph skeleton carries only the preserved
            program order (see :mod:`repro.encoding.ppo`).
        prune_plan: optional :class:`repro.analysis.prune.PrunePlan`;
            RF/WS variables it proves false-in-every-model are skipped
            (model-equivalent encoding, see ``docs/ANALYSIS.md``).  Under
            SC the ordering theory also gets its SYMMETRY edges
            (satisfiability-preserving, see
            :mod:`repro.encoding.symmetry`).
    """
    _robustness_checkpoint("encode")
    if theory is None:
        theory = OrderingTheory(
            len(sym.events),
            preserved_program_order(sym, memory_model),
            detector=detector,
            unit_edge=unit_edge,
            fr_propagation=not fr_encoding,
            max_conflict_clauses=max_conflict_clauses,
        )
    groups = ()
    if (
        prune_plan is not None
        and memory_model == "sc"
        and isinstance(theory, OrderingTheory)
    ):
        groups = prune_plan.symmetric_threads
    solver = Solver(theory)
    builder = CnfBuilder(solver)
    recorder = InputRecorder(solver) if groups else None
    blaster = BitBlaster(builder)
    enc = EncodedProgram(solver, theory, blaster, sym)
    if prune_plan is not None:
        enc.stats.analysis_time_s = prune_plan.build_time_s

    # --- rho_va and assume constraints -------------------------------
    # The encode checkpoints are spaced so that a few hundred clauses at
    # most reach the solver between two of them: a deadline that expires
    # while encoding is then noticed within about a millisecond.
    for i, constraint in enumerate(sym.constraints):
        if i & 0x7 == 0:
            _robustness_checkpoint("encode")
        blaster.assert_term(constraint)

    # --- rho_err ------------------------------------------------------
    if not sym.error_disjuncts:
        enc.trivially_safe = True
        if recorder is not None:
            recorder.close()
        return enc
    err_lits = [blaster.blast_bool(d) for d in sym.error_disjuncts]
    builder.add_clause(err_lits)

    # --- guard literals ----------------------------------------------
    for ev in sym.memory_events():
        enc.guard_lits[ev.eid] = blaster.blast_bool(ev.guard)

    width = sym.width
    po_reach = theory.po_reach  # static PO reachability for pruning

    def value_var(ev: Event) -> F.Term:
        return F.bv_var(ev.ssa_name, width)

    rf_by_read: Dict[int, Dict[int, int]] = {}  # read eid -> {write eid: var}

    def _never_read(w, r, unconditional) -> bool:
        """The baseline RF skips: ``w`` is PO-after ``r``, or one of the
        address's ``unconditional`` writes sits (in preserved program
        order) between ``w`` and ``r`` (static from-read pruning).  Either
        way the read can never observe ``w``, so no RF candidate is
        needed."""
        if (po_reach[r.eid] >> w.eid) & 1:
            return True
        wr = po_reach[w.eid]
        for w2 in unconditional:
            if (
                w2.eid != w.eid
                and (wr >> w2.eid) & 1
                and (po_reach[w2.eid] >> r.eid) & 1
            ):
                return True
        return False

    # DEAD-GUARD: events whose guard is false at level 0 get no ordering
    # variables (see repro.analysis.prune).
    dead = (
        prune_plan.dead_events(enc.guard_lits, solver.value)
        if prune_plan is not None
        else set()
    )

    for addr in sym.addresses:
        # The RF candidate set is reads x writes and WS is quadratic in
        # writes, so encoding itself can exhaust a budget on wide programs.
        _robustness_checkpoint("encode")
        reads = sym.reads_of(addr)
        all_writes = writes = sym.writes_of(addr)
        unconditional = [w for w in writes if w.guard is F.TRUE]
        if dead:
            # Dead events leave the per-address lists; their candidates
            # are counted as the other rules' are, after the baseline
            # skips (each WS pair as two candidates).
            n_dead = 0
            for r in reads:
                r_dead = r.eid in dead
                for w in all_writes:
                    if (r_dead or w.eid in dead) and not _never_read(
                        w, r, unconditional
                    ):
                        n_dead += 1
            reads = [r for r in reads if r.eid not in dead]
            writes = [w for w in all_writes if w.eid not in dead]
            n, m = len(all_writes), len(writes)
            n_dead += n * (n - 1) - m * (m - 1)
            enc.stats.analysis_pairs_total += n_dead
            enc.stats.analysis_pairs_pruned += n_dead

        # Read-from variables and RF-Val / RF-Some constraints.
        for r in reads:
            _robustness_checkpoint("encode")
            g_r = enc.guard_lits[r.eid]
            rf_lits: List[int] = []
            rf_by_read[r.eid] = {}
            for w in writes:
                if _never_read(w, r, unconditional):
                    continue
                enc.stats.analysis_pairs_total += 1
                if prune_plan is not None and prune_plan.rf_dead(
                    w, r, all_writes
                ):
                    # False in every model (shadowed under guards, or a
                    # lock acquire reading another acquire's stored 1).
                    enc.stats.analysis_pairs_pruned += 1
                    continue
                var = solver.new_var(relevant=True)
                theory.add_rf_var(var, w.eid, r.eid)
                enc.rf_vars[var] = (w, r)
                rf_by_read[r.eid][w.eid] = var
                g_w = enc.guard_lits[w.eid]
                builder.imply(var, g_r)
                builder.imply(var, g_w)
                blaster.define_eq(var, value_var(r), value_var(w))
                rf_lits.append(var)
                enc.stats.rf_vars += 1
                if enc.stats.rf_vars & 0x3FF == 0:
                    _robustness_checkpoint("encode")
            # RF-Some: an enabled read takes its value from somewhere.
            builder.imply_or(g_r, rf_lits)

        # Write-serialization variables and WS-Cond / WS-Some constraints.
        ws_var: Dict[Tuple[int, int], int] = {}
        for i, w1 in enumerate(writes):
            for w2 in writes[i + 1:]:
                enc.stats.analysis_pairs_total += 2
                if prune_plan is not None:
                    fwd = None
                    if prune_plan.po_ordered(w1.eid, w2.eid):
                        fwd = (w1, w2)
                    elif prune_plan.po_ordered(w2.eid, w1.eid):
                        fwd = (w2, w1)
                    if fwd is not None:
                        # The reverse ws var is forced false by the
                        # theory's initial unit clauses; create only the
                        # forward one and shrink WS-Some accordingly.
                        wa, wb = fwd
                        v = solver.new_var(relevant=True)
                        theory.add_ws_var(v, wa.eid, wb.eid)
                        enc.ws_vars[v] = (wa, wb)
                        ws_var[(wa.eid, wb.eid)] = v
                        g1 = enc.guard_lits[w1.eid]
                        g2 = enc.guard_lits[w2.eid]
                        builder.imply(v, g1)
                        builder.imply(v, g2)
                        builder.add_clause([-g1, -g2, v])
                        enc.stats.ws_vars += 1
                        enc.stats.analysis_pairs_pruned += 1
                        if enc.stats.ws_vars & 0x3FF == 0:
                            _robustness_checkpoint("encode")
                        continue
                v12 = solver.new_var(relevant=True)
                theory.add_ws_var(v12, w1.eid, w2.eid)
                enc.ws_vars[v12] = (w1, w2)
                v21 = solver.new_var(relevant=True)
                theory.add_ws_var(v21, w2.eid, w1.eid)
                enc.ws_vars[v21] = (w2, w1)
                ws_var[(w1.eid, w2.eid)] = v12
                ws_var[(w2.eid, w1.eid)] = v21
                g1 = enc.guard_lits[w1.eid]
                g2 = enc.guard_lits[w2.eid]
                for v in (v12, v21):
                    builder.imply(v, g1)
                    builder.imply(v, g2)
                # WS-Some: both enabled -> one order or the other.
                builder.add_clause([-g1, -g2, v12, v21])
                enc.stats.ws_vars += 2
                if enc.stats.ws_vars & 0x3FF == 0:
                    _robustness_checkpoint("encode")

        # Static from-read lemmas: if a write w' lies in preserved program
        # order before the read, then rf(w, r) and ws(w, w') together
        # derive fr(r, w'), closing a cycle with the w' ⇝ r path.  The
        # theory would learn each of these through a conflict; emitting
        # them upfront is level-0 theory propagation in the spirit of
        # the initial unit clauses (guarded shadowing only -- the
        # unconditional case was pruned from the RF candidates above).
        for r in reads:
            _robustness_checkpoint("encode")
            for w0 in writes:
                rf = rf_by_read[r.eid].get(w0.eid)
                if rf is None:
                    continue
                for wx in writes:
                    if wx.eid == w0.eid:
                        continue
                    if not (po_reach[wx.eid] >> r.eid) & 1:
                        continue
                    ws = ws_var.get((w0.eid, wx.eid))
                    if ws is not None:
                        builder.add_clause([-rf, -ws])

        # Explicit from-read encoding (Zord⁻ only).
        if fr_encoding:
            fr_var: Dict[Tuple[int, int], int] = {}
            for r in reads:
                for w0 in writes:
                    rf = rf_by_read[r.eid].get(w0.eid)
                    if rf is None:
                        continue
                    for wk in writes:
                        if wk.eid == w0.eid:
                            continue
                        ws = ws_var.get((w0.eid, wk.eid))
                        if ws is None:
                            continue
                        key = (r.eid, wk.eid)
                        fv = fr_var.get(key)
                        if fv is None:
                            fv = solver.new_var(relevant=True)
                            theory.add_fr_var(fv, r.eid, wk.eid)
                            fr_var[key] = fv
                            enc.stats.fr_vars += 1
                        builder.add_clause([-rf, -ws, fv])

        # Read-modify-write atomicity for this address.
        for group in sym.rmw_groups:
            if group.addr != addr:
                continue
            r_eid, w_eid = group.read_eid, group.write_eid
            for w0 in writes:
                rf = rf_by_read.get(r_eid, {}).get(w0.eid)
                if rf is None or w0.eid == w_eid:
                    continue
                for wx in writes:
                    if wx.eid in (w0.eid, w_eid):
                        continue
                    ws_a = ws_var.get((w0.eid, wx.eid))
                    ws_b = ws_var.get((wx.eid, w_eid))
                    if ws_a is None or ws_b is None:
                        continue
                    # No write wx strictly between the RMW's source write
                    # and its own write.
                    builder.add_clause([-rf, -ws_a, -ws_b])

    # Level-0 unit-edge propagation against the PO skeleton.
    for i, clause in enumerate(theory.initial_unit_clauses()):
        if i & 0x3FF == 0:
            _robustness_checkpoint("encode")
        solver.add_clause(clause)

    if recorder is not None:
        # SYMMETRY: the unwinding literals are blasted now, so that the
        # check covers every clause a later bound adds; the edges join the
        # skeleton only after the formula is complete.
        unwind_lits: Dict[int, set] = {}
        for done, cond in sym.unwind_conds:
            unwind_lits.setdefault(done, set()).add(blaster.blast_bool(cond))
        clauses = recorder.close()
        if not recorder.refuted:  # else the edges cannot save a conflict
            swaps = thread_swaps(enc, builder, groups, clauses, unwind_lits)
            theory.add_symmetry_edges(swaps)
            enc.stats.symmetry_edges = len(swaps)

    enc.stats.sat_vars = solver.nvars
    enc.stats.sat_clauses = solver.num_clauses
    return enc


def add_unwind_bound(enc: EncodedProgram, bound: int) -> Optional[int]:
    """Materialize the unwinding assumption for ``bound``; return its
    activation literal (or None when the program needs no assumption at
    this bound, e.g. it is loop-free).

    Requires an encoding built from a front end run with
    ``unwind_assumptions=True``: the symbolic program then carries the
    frontier condition of every loop-header evaluation, tagged with the
    number of iterations completed before it.  The returned fresh variable
    ``u`` gets the clauses ``u -> not cond`` for every frontier condition
    at exactly ``bound`` iterations -- passing ``u`` as a solve()
    assumption restricts the search to executions where no loop runs more
    than ``bound`` times, without committing the solver to it permanently.
    Results are cached per bound, so deepening re-solves reuse the
    literals (and all clauses learned under them).
    """
    if bound in enc.unwind_assumptions:
        return enc.unwind_assumptions[bound]
    conds = [c for done, c in enc.symbolic.unwind_conds if done == bound]
    if not conds:
        enc.unwind_assumptions[bound] = None
        return None
    u = enc.solver.new_var()
    for cond in conds:
        lit = enc.blaster.blast_bool(cond)
        enc.solver.add_clause([-u, -lit])
    enc.unwind_assumptions[bound] = u
    return u
