"""Dartagnan-style baseline: pure-SAT relational encoding.

Relational bounded model checkers without a dedicated ordering theory
encode the happens-before relation explicitly: one Boolean ``hb(i, j)`` per
event pair, with antisymmetry and a full transitive-closure axiomatization
(cubically many clauses), and derive acyclicity from those axioms alone.
RF / WS / FR constraints then imply ``hb`` literals directly.

This reproduces the *algorithmic* content of such encodings; their cost --
formula size cubic in the number of events -- is exactly the behaviour the
paper's Table 1/Figure 7 comparison exposes.  Programs whose closure
encoding would exceed ``MAX_TRANSITIVITY_CLAUSES`` return UNKNOWN, standing
in for the timeouts/memouts the paper reports for Dartagnan on larger
tasks.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.encoding import formula as F
from repro.encoding.bitblast import BitBlaster
from repro.encoding.cnf import CnfBuilder
from repro.frontend import build_symbolic_program
from repro.lang import ast
from repro.ordering.event_graph import Edge, EdgeKind, EventGraph
from repro.ordering.solver import OrderingTheory
from repro.robustness import checkpoint
from repro.sat import SolveResult, Solver
from repro.verify.result import Verdict, VerificationResult
from repro.verify.witness import model_trace

__all__ = ["verify_closure", "MAX_TRANSITIVITY_CLAUSES"]

#: Guard against cubic blow-up: above this many transitivity clauses the
#: engine gives up (UNKNOWN), mirroring the baseline's scaling wall
#: (building the closure axioms alone would exceed any realistic budget).
MAX_TRANSITIVITY_CLAUSES = 400_000


def verify_closure(
    program: ast.Program, config, telemetry=None
) -> VerificationResult:
    checkpoint("engine")
    sym = build_symbolic_program(program, unwind=config.unwind, width=config.width)
    if not sym.error_disjuncts:
        return VerificationResult(Verdict.SAFE, config.name)

    mem = sym.memory_events()
    n_total = len(sym.events)
    if len(mem) ** 3 > MAX_TRANSITIVITY_CLAUSES:
        return VerificationResult(
            Verdict.UNKNOWN,
            config.name,
            stats={"reason_too_large": len(mem)},
        )

    po_reach = OrderingTheory._compute_po_reachability(n_total, sym.po_edges)
    solver = Solver()
    builder = CnfBuilder(solver)
    blaster = BitBlaster(builder)

    for constraint in sym.constraints:
        blaster.assert_term(constraint)
    builder.add_clause([blaster.blast_bool(d) for d in sym.error_disjuncts])

    guard_lits = {ev.eid: blaster.blast_bool(ev.guard) for ev in mem}
    width = sym.width

    # --- happens-before variables -------------------------------------
    hb_cache: Dict[Tuple[int, int], int] = {}

    def hb(i: int, j: int) -> int:
        if (po_reach[i] >> j) & 1:
            return builder.true_lit
        if (po_reach[j] >> i) & 1:
            return builder.false_lit
        lit = hb_cache.get((i, j))
        if lit is None:
            lit = solver.new_var()
            hb_cache[(i, j)] = lit
        return lit

    eids = [ev.eid for ev in mem]

    # Antisymmetry (irreflexivity is implicit: hb(i, i) is never created).
    for i, j in itertools.combinations(eids, 2):
        a, b = hb(i, j), hb(j, i)
        if not builder.is_const(a) and not builder.is_const(b):
            builder.add_clause([-a, -b])

    # Transitivity closure axioms.
    n_trans = 0
    for i in eids:
        for j in eids:
            if i == j:
                continue
            hij = hb(i, j)
            if hij == builder.false_lit:
                continue
            for k in eids:
                if k == i or k == j:
                    continue
                hjk = hb(j, k)
                hik = hb(i, k)
                if hjk == builder.false_lit or hik == builder.true_lit:
                    continue
                builder.add_clause([-hij, -hjk, hik])
                n_trans += 1
                if n_trans & 0xFFF == 0:
                    # The cubic closure axioms are the dominant cost; keep
                    # the construction under the deadline/memory budget.
                    checkpoint("engine")

    # --- RF / WS / FR over hb ------------------------------------------
    def value_var(ev):
        return F.bv_var(ev.ssa_name, width)

    rf_by_read: Dict[int, Dict[int, int]] = {}
    ws_var: Dict[Tuple[int, int], int] = {}
    rf_count = ws_count = 0

    for addr in sym.addresses:
        reads = sym.reads_of(addr)
        writes = sym.writes_of(addr)
        for r in reads:
            g_r = guard_lits[r.eid]
            rf_lits: List[int] = []
            rf_by_read[r.eid] = {}
            for w in writes:
                if (po_reach[r.eid] >> w.eid) & 1:
                    continue
                var = solver.new_var()
                rf_by_read[r.eid][w.eid] = var
                builder.imply(var, g_r)
                builder.imply(var, guard_lits[w.eid])
                blaster.imply_term(var, F.eq(value_var(r), value_var(w)))
                builder.imply(var, hb(w.eid, r.eid))
                rf_lits.append(var)
                rf_count += 1
            builder.imply_or(g_r, rf_lits)
        for i, w1 in enumerate(writes):
            for w2 in writes[i + 1:]:
                v12 = solver.new_var()
                v21 = solver.new_var()
                ws_var[(w1.eid, w2.eid)] = v12
                ws_var[(w2.eid, w1.eid)] = v21
                g1, g2 = guard_lits[w1.eid], guard_lits[w2.eid]
                for v, (a, b) in ((v12, (w1, w2)), (v21, (w2, w1))):
                    builder.imply(v, g1)
                    builder.imply(v, g2)
                    builder.imply(v, hb(a.eid, b.eid))
                builder.add_clause([-g1, -g2, v12, v21])
                ws_count += 2
        # From-read, directly over hb.
        for r in reads:
            for w0 in writes:
                rf = rf_by_read[r.eid].get(w0.eid)
                if rf is None:
                    continue
                for wk in writes:
                    if wk.eid == w0.eid or wk.eid == r.eid:
                        continue
                    ws = ws_var.get((w0.eid, wk.eid))
                    if ws is None:
                        continue
                    target = hb(r.eid, wk.eid)
                    builder.add_clause([-rf, -ws, target])
        # RMW atomicity.
        for group in sym.rmw_groups:
            if group.addr != addr:
                continue
            for w0 in writes:
                rf = rf_by_read.get(group.read_eid, {}).get(w0.eid)
                if rf is None or w0.eid == group.write_eid:
                    continue
                for wx in writes:
                    if wx.eid in (w0.eid, group.write_eid):
                        continue
                    ws_a = ws_var.get((w0.eid, wx.eid))
                    ws_b = ws_var.get((wx.eid, group.write_eid))
                    if ws_a is not None and ws_b is not None:
                        builder.add_clause([-rf, -ws_a, -ws_b])

    answer = solver.solve()
    stats = dict(solver.stats.as_dict())
    stats.update(
        {
            "hb_vars": len(hb_cache),
            "transitivity_clauses": n_trans,
            "rf_vars": rf_count,
            "ws_vars": ws_count,
        }
    )
    if answer == SolveResult.UNSAT:
        return VerificationResult(Verdict.SAFE, config.name, stats=stats)

    graph = _model_graph(sym, solver, rf_by_read, ws_var)
    witness = model_trace(sym, solver, blaster, guard_lits, graph)
    return VerificationResult(Verdict.UNSAFE, config.name, witness=witness, stats=stats)


def _model_graph(sym, solver, rf_by_read, ws_var) -> EventGraph:
    """The model's execution as an event graph: program order, the true
    RF and WS atoms and the FR orders they derive.  Each of them implies
    its ``hb`` literal, so the graph is acyclic."""
    graph = EventGraph(len(sym.events))
    orders = [(a, b, EdgeKind.PO) for a, b in sym.po_edges]
    ws_after: Dict[int, List[int]] = {}
    for (w1, w2), var in ws_var.items():
        if solver.model_lit(var):
            orders.append((w1, w2, EdgeKind.WS))
            ws_after.setdefault(w1, []).append(w2)
    for r, sources in rf_by_read.items():
        for w, var in sources.items():
            if solver.model_lit(var):
                orders.append((w, r, EdgeKind.RF))
                orders += [
                    (r, wk, EdgeKind.FR) for wk in ws_after.get(w, ()) if wk != r
                ]
    for a, b, kind in orders:
        graph.activate(Edge(a, b, kind))
    return graph
