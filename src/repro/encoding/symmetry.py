"""SYMMETRY: one order for the first events of interchangeable threads.

T_ord refutes acyclicity interleaving by interleaving, so n threads with
identical bodies make the search refute each of the n! orders of their
critical sections on its own; Hadarean, Horn and King show such
refutations are exponential over the formula as given.  A symmetry
breaking edge (Crawford, Ginsberg, Luks and Roy, KR 1996) removes all but
one of those orders.

A *swap* of threads ``t`` and ``u`` exchanges their events position by
position, their SSA names and every SAT variable built from them:

* an ordering variable maps to the variable of the same kind on the
  swapped endpoints;
* the bits of a named SSA variable map to the bits of the renamed name;
* a gate output maps to the gate with the mapped inputs
  (:meth:`repro.encoding.cnf.CnfBuilder.gates`);
* every other variable (the constant, unwinding activation literals) is
  fixed.

:func:`thread_swaps` keeps a swap only if it is an involution that maps
the clauses given to the solver, the registered ordering edges, program
order reachability among memory events and each bound's unwinding
literals onto themselves.  Then every model of the formula has a twin
with the two threads' roles exchanged, and ordering the threads' first
events (both unconditional) keeps one of the two.  Swaps of adjacent
threads of a candidate group chain, so a group's threads are all ordered
at once: any execution can be renamed, one adjacent swap at a time, into
one whose first events come in group order.  Satisfiability is kept, the
set of models is not; an UNSAFE witness is still a real execution.

The edges join the ordering theory's skeleton after the formula is
complete; the audit's proof checker re-checks each swap against its own
input log before it uses them (``docs/ORACLE.md``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.frontend.program import EventKind, SymbolicProgram

__all__ = ["InputRecorder", "ThreadSwap", "thread_swaps"]


class ThreadSwap:
    """A verified swap of two threads and the edge it justifies.

    ``events`` and ``variables`` list the moved event ids and variables,
    each with its image (a variable's image is a literal)."""

    __slots__ = ("edge", "events", "variables")

    def __init__(
        self,
        edge: Tuple[int, int],
        events: Dict[int, int],
        variables: Dict[int, int],
    ) -> None:
        self.edge = edge
        self.events = events
        self.variables = variables


class InputRecorder:
    """Records every clause given to ``solver.add_clause`` until
    :meth:`close`, which returns them as a set of literal sets."""

    def __init__(self, solver) -> None:
        self.solver = solver
        self._shadow = solver.__dict__.get("add_clause")
        self._given: List[Sequence[int]] = []
        add = solver.add_clause
        record = self._given.append

        def recording_add_clause(lits):
            record(lits)
            return add(lits)

        solver.add_clause = recording_add_clause

    def close(self) -> Set[FrozenSet[int]]:
        if self._shadow is None:
            del self.solver.add_clause
        else:
            self.solver.add_clause = self._shadow
        given, self._given = self._given, []
        return set(map(frozenset, given))


def thread_swaps(
    enc,
    builder,
    groups: Sequence[Sequence[str]],
    clauses: Set[FrozenSet[int]],
    unwind_lits: Dict[int, Set[int]],
) -> List[ThreadSwap]:
    """The verified swaps of adjacent threads of each candidate group.

    ``enc`` is the encoded program, ``builder`` its CNF builder,
    ``clauses`` every clause given to the solver and ``unwind_lits`` the
    blasted unwinding conditions per bound."""
    sym: SymbolicProgram = enc.symbolic
    threads = {t.name: t.events for t in sym.threads}
    free = _free_vars_by_thread(sym)
    edges = enc.theory.ordering_edges()
    edge_var = {edge: var for var, edge in edges.items()}
    named = enc.blaster.named_bits()
    by_var = builder.gates()
    gates = [(var, *by_var[var]) for var in sorted(by_var)]
    ites: Dict[Tuple[int, ...], List[int]] = {}
    for var, op, ins in gates:
        if op == "ite":
            ites.setdefault(ins, []).append(var)
    memory = [e.eid for e in sym.memory_events()]
    reach = enc.theory.po_reach
    mem_mask = 0
    for eid in memory:
        mem_mask |= 1 << eid

    found: List[ThreadSwap] = []
    for group in groups:
        for t, u in zip(group, group[1:]):
            te, ue = threads[t], threads[u]
            ft, fu = free.get(t, []), free.get(u, [])
            if len(ft) != len(fu):
                continue
            emap: Dict[int, int] = {}
            rename: Dict[str, str] = dict(zip(ft, fu))
            rename.update(zip(fu, ft))
            for a, b in zip(te, ue):
                if a.kind != EventKind.ANCHOR:
                    emap[a.eid], emap[b.eid] = b.eid, a.eid
                    rename[a.ssa_name] = b.ssa_name
                    rename[b.ssa_name] = a.ssa_name
            if not _reach_invariant(reach, memory, mem_mask, emap):
                continue
            lmap = _literal_map(
                builder, edges, edge_var, emap, named, rename, gates, ites
            )
            if lmap is None:
                continue
            if not _clauses_invariant(clauses, lmap):
                continue
            if any(
                {lmap.get(lit, lit) for lit in lits} != lits
                for lits in unwind_lits.values()
            ):
                continue
            first_t = next(e.eid for e in te if e.kind != EventKind.ANCHOR)
            found.append(
                ThreadSwap(
                    (first_t, emap[first_t]),
                    emap,
                    {v: im for v, im in lmap.items() if v > 0},
                )
            )
    return found


def _free_vars_by_thread(sym: SymbolicProgram) -> Dict[str, List[str]]:
    """Each thread's ``nondet()`` and uninitialised-local variables, in
    creation order (locals are named ``<thread>.<local>#k``)."""
    owner = {name: thread for thread, name, _ in sym.nondet_sites}
    out: Dict[str, List[str]] = {}
    for name in sym.free_vars:
        thread = owner.get(name) or name.rsplit("#", 1)[0].rsplit(".", 1)[0]
        out.setdefault(thread, []).append(name)
    return out


def _reach_invariant(
    reach: List[int], memory: List[int], mem_mask: int, emap: Dict[int, int]
) -> bool:
    """Program-order reachability among memory events is unchanged when
    the events of ``emap`` are renamed."""
    moved_mask = 0
    for eid in emap:
        moved_mask |= 1 << eid
    for x in memory:
        mask = reach[x] & mem_mask
        image = mask & ~moved_mask
        if mask & moved_mask:
            for y, z in emap.items():
                if (mask >> y) & 1:
                    image |= 1 << z
        if image != reach[emap.get(x, x)] & mem_mask:
            return False
    return True


def _literal_map(
    builder, edges, edge_var, emap, named, rename, gates, ites
) -> Optional[Dict[int, int]]:
    """The swap as a literal map (moved literals of both signs), or None
    when it is not an involution of the variables.  ``gates`` lists
    ``(out, op, inputs)`` by increasing output variable."""
    lm: Dict[int, int] = {}
    get = lm.get

    def put(lit: int, image: int) -> bool:
        old = get(lit)
        if old is None:
            lm[lit] = image
            lm[-lit] = -image
            return True
        return old == image

    t = builder.true_lit
    for var, (kind, a, b) in edges.items():
        image = edge_var.get((kind, emap.get(a, a), emap.get(b, b)))
        if image is None or not put(var, image):
            return None
    for name, other in rename.items():
        bits, images = named.get(name), named.get(other)
        if bits is None and images is None:
            continue  # neither access reached the formula
        if bits is None or images is None or len(bits) != len(images):
            return None
        for a, b in zip(bits, images):
            if abs(a) == t:
                if a != b:
                    return None
            elif not put(a, b):
                return None
    and_cache = builder._and_cache
    xor_cache = builder._xor_cache
    for var, op, ins in gates:
        mapped = tuple(map(get, ins, ins))
        if mapped == ins:
            image = var
        elif op == "and":
            image = and_cache.get(tuple(sorted(mapped, key=abs)))
        elif op == "xor":
            image = xor_cache.get((min(mapped), max(mapped)))
        else:
            twins = ites.get(mapped, ())
            k = ites[ins].index(var)
            image = twins[k] if k < len(twins) else None
        if image is None or not put(var, image):
            return None
    moved = {}
    for lit, image in lm.items():
        if image != lit:
            if get(image, image) != lit:
                return None
            moved[lit] = image
    return moved


def _clauses_invariant(clauses: Set[FrozenSet[int]], lmap: Dict[int, int]) -> bool:
    """The literal map is a bijection, so the clause set is invariant iff
    the image of each clause is a clause."""
    get = lmap.get
    return all(frozenset(map(get, c, c)) in clauses for c in clauses)
