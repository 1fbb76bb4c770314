"""SYMMETRY: one order for the first events of interchangeable threads.

T_ord refutes acyclicity interleaving by interleaving, so n threads with
identical bodies make the search refute each of the n! orders of their
critical sections on its own; Hadarean, Horn and King show such
refutations are exponential over the formula as given.  A symmetry
breaking edge (Crawford, Ginsberg, Luks and Roy, KR 1996) removes all but
one of those orders.

A *swap* of threads ``t`` and ``u`` exchanges their events position by
position.  The two may be clones up to the shared variables they own
(``fib``'s ``a`` and ``b``): the swap then also renames addresses by an
involution ``pi`` (:func:`repro.analysis.prune.address_swap`) and, in
every other thread, ``main`` included, exchanges the k-th event on ``x``
with the k-th event on ``pi(x)``.  It renames the moved events' SSA names
and maps every SAT variable built from them:

* an ordering variable maps to the variable of the same kind on the
  swapped endpoints;
* the bits of a named SSA variable map to the bits of the renamed name;
* a gate output maps to the gate with the mapped inputs
  (:meth:`repro.encoding.cnf.CnfBuilder.gates`);
* every other variable (the constant, unwinding activation literals) is
  fixed.

:func:`thread_swaps` keeps a swap only if it is an involution that maps
the encoding, the registered ordering edges, program order reachability
among memory events and each bound's unwinding literals onto themselves.
Only the clauses given to the solver outside a definition are mapped
one by one.  A definition -- a gate's, or the per-bit value equality
each read-from variable implies -- is a function of the literals it
relates, so it maps onto the definition of the mapped literals, as long
as a read-from endpoint that stays put keeps its value bits; these are
most of the clauses.  A renaming swap may reverse program order
between two *initial* events (ordered with every memory event, with
only initial ones before them) or two *final* ones (the mirror image)
on different addresses, such as ``main``'s initial writes to ``a`` and
``b``, when it maps the initial and the final events onto themselves:
no ordering edge can join such a pair, so it lies on no cycle
(``docs/ORACLE.md`` has the argument).  Then every model of the formula
has a twin with the two threads' roles exchanged, and ordering the threads' first
events (both unconditional) keeps one of the two.  Swaps of adjacent
threads of a candidate group chain, so a group's threads are all ordered
at once: any execution can be renamed, one adjacent swap at a time, into
one whose first events come in group order.  Satisfiability is kept, the
set of models is not; an UNSAFE witness is still a real execution.

The edges join the ordering theory's skeleton after the formula is
complete, unless unit propagation already refutes it; the audit's proof
checker re-checks each swap against its own input log before it uses
them (``docs/ORACLE.md``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.prune import address_swap
from repro.frontend.program import Event, EventKind, SymbolicProgram
from repro.ordering import EdgeKind

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
    :meth:`close`, which returns them in order.  ``refuted`` tells
    whether one of them made unit propagation refute the formula."""

    def __init__(self, solver) -> None:
        self.solver = solver
        self.refuted = False
        self._shadow = solver.__dict__.get("add_clause")
        self._given: List[Sequence[int]] = []
        add = solver.add_clause
        record = self._given.append

        def recording_add_clause(lits):
            record(lits)
            ok = add(lits)
            if not ok:
                self.refuted = True
            return ok

        solver.add_clause = recording_add_clause

    def close(self) -> List[Sequence[int]]:
        if self._shadow is None:
            del self.solver.add_clause
        else:
            self.solver.add_clause = self._shadow
        given, self._given = self._given, []
        return given


def thread_swaps(
    enc,
    builder,
    groups: Sequence[Sequence[str]],
    clauses: List[Sequence[int]],
    unwind_lits: Dict[int, Set[int]],
) -> List[ThreadSwap]:
    """The verified swaps of adjacent threads of each candidate group.

    ``enc`` is the encoded program, ``builder`` its CNF builder,
    ``clauses`` every clause given to the solver but the definitions and
    ``unwind_lits`` the blasted unwinding conditions per bound."""
    sym: SymbolicProgram = enc.symbolic
    threads = {t.name: t.events for t in sym.threads}
    free = _free_vars_by_thread(sym)
    memory = [e.eid for e in sym.memory_events()]
    reach = enc.theory.po_reach
    mem_mask = 0
    for eid in memory:
        mem_mask |= 1 << eid
    chains = _ChainEnds(sym, reach, memory, mem_mask)
    on_addr: Optional[Dict[str, Dict[str, List[Event]]]] = None
    formula: Optional[_Formula] = None
    found: List[ThreadSwap] = []
    for group in groups:
        for t, u in zip(group, group[1:]):
            te, ue = threads[t], threads[u]
            ft, fu = free.get(t, []), free.get(u, [])
            pi = address_swap(te, ue)
            if len(ft) != len(fu) or pi is None:
                continue
            emap: Dict[int, int] = {}
            rename: Dict[str, str] = dict(zip(ft, fu))
            rename.update(zip(fu, ft))
            pairs = [(a, b) for a, b in zip(te, ue) if a.kind != EventKind.ANCHOR]
            if pi:
                if on_addr is None:
                    on_addr = _events_by_address(sym)
                others = _renamed_pairs(on_addr, (t, u), pi)
                if others is None:
                    continue
                pairs += others
            for a, b in pairs:
                emap[a.eid], emap[b.eid] = b.eid, a.eid
                rename[a.ssa_name] = b.ssa_name
                rename[b.ssa_name] = a.ssa_name
            first_t = pairs[0][0].eid
            first_u = emap[first_t]
            if (reach[first_t] >> first_u | reach[first_u] >> first_t) & 1:
                continue  # program order already orders the two threads
            if formula is None:
                formula = _Formula(enc, builder, clauses)
            lmap = formula.literal_map(emap, rename)
            if lmap is None:
                continue
            if not _reach_invariant(reach, memory, mem_mask, emap, chains):
                continue
            if not formula.clauses_invariant(lmap, emap):
                continue
            if any(
                {lmap.get(lit, lit) for lit in lits} != lits
                for lits in unwind_lits.values()
            ):
                continue
            found.append(
                ThreadSwap(
                    (first_t, first_u),
                    emap,
                    {v: im for v, im in lmap.items() if v > 0},
                )
            )
    return found


def _events_by_address(sym: SymbolicProgram) -> Dict[str, Dict[str, List[Event]]]:
    """Each thread's memory events by address, in program order."""
    out: Dict[str, Dict[str, List[Event]]] = {}
    for thread in sym.threads:
        on = out[thread.name] = {}
        for e in thread.events:
            if e.addr is not None:
                on.setdefault(e.addr, []).append(e)
    return out


def _renamed_pairs(
    on_addr: Dict[str, Dict[str, List[Event]]],
    swapped: Tuple[str, str],
    pi: Dict[str, str],
) -> Optional[List[Tuple[Event, Event]]]:
    """The events of every thread but the two ``swapped`` ones that the
    address renaming ``pi`` exchanges: the k-th event of a thread on
    ``x`` with its k-th event on ``pi(x)``.  None when some thread has a
    different number of events on the two, or events of another kind."""
    pairs: List[Tuple[Event, Event]] = []
    for name, on in on_addr.items():
        if name in swapped:
            continue
        for x, y in pi.items():
            if x < y:
                xs, ys = on.get(x, ()), on.get(y, ())
                if len(xs) != len(ys):
                    return None
                for a, b in zip(xs, ys):
                    if a.kind != b.kind:
                        return None
                    pairs.append((a, b))
    return pairs


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
    reach: List[int],
    memory: List[int],
    mem_mask: int,
    emap: Dict[int, int],
    chains: "_ChainEnds",
) -> bool:
    """Program-order reachability among memory events is unchanged when
    the events of ``emap`` are renamed, except between two initial or two
    final events on different addresses, provided the renaming maps the
    initial and the final events onto themselves (``docs/ORACLE.md``
    proves such pairs cannot lie on a cycle)."""
    moved_mask = 0
    for eid in emap:
        moved_mask |= 1 << eid
    images: Dict[int, int] = {0: 0}
    kept = None
    for x in memory:
        mask = reach[x] & mem_mask
        moved = mask & moved_mask
        image = images.get(moved)
        if image is None:
            image, rest = 0, moved
            while rest:
                low = rest & -rest
                rest ^= low
                image |= 1 << emap[low.bit_length() - 1]
            images[moved] = image
        y = emap.get(x, x)
        diff = (image | mask & ~moved_mask) ^ (reach[y] & mem_mask)
        if diff:
            if kept is None:
                kept = chains.kept(emap)
            if not kept or diff & ~chains.exempt(y):
                return False
    return True


class _ChainEnds:
    """The initial and the final memory events, as bitmasks computed on
    first use.  An initial event is PO-comparable with every memory event
    and only initial ones come before it; a final event is the mirror
    image."""

    def __init__(
        self, sym: SymbolicProgram, reach: List[int], memory: List[int], mem_mask: int
    ) -> None:
        self.sym, self.reach, self.memory, self.mem_mask = sym, reach, memory, mem_mask
        self.masks: Optional[Tuple[int, int]] = None
        self.on: Dict[str, int] = {}

    def _compute(self) -> Tuple[int, int]:
        reach, memory, mem_mask = self.reach, self.memory, self.mem_mask
        after = {x: reach[x] & mem_mask for x in memory}
        size = {x: bin(after[x]).count("1") for x in memory}
        order = sorted(memory, key=size.__getitem__, reverse=True)
        initial, rest = 0, mem_mask
        for x in order:
            rest ^= 1 << x
            if after[x] != rest:
                break
            initial |= 1 << x
        # The tail chain: each event's successors are the events after it
        # in the chain.  An event outside it reaches the chain's last k
        # events for some k; the final events are the last k for the
        # least such k.
        chain: List[int] = []
        tail = 0
        for y in reversed(order):
            if after[y] != tail:
                break
            chain.append(y)
            tail |= 1 << y
        k = min(
            (bin(after[x] & tail).count("1") for x in memory if not tail >> x & 1),
            default=len(chain),
        )
        final = 0
        for y in chain[:k]:
            final |= 1 << y
        for x in memory:
            addr = self.sym.events[x].addr
            self.on[addr] = self.on.get(addr, 0) | 1 << x
        self.masks = initial, final
        return self.masks

    def kept(self, emap: Dict[int, int]) -> bool:
        """The renaming maps the initial and the final events onto
        themselves."""
        for chain in self.masks or self._compute():
            rest = chain
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                if not chain >> emap.get(x, x) & 1:
                    return False
        return True

    def exempt(self, y: int) -> int:
        """The events whose program order with ``y`` a kept renaming may
        reverse: on another address, and initial with ``y`` or final with
        it."""
        initial, final = self.masks or self._compute()
        mask = 0
        if initial >> y & 1:
            mask |= initial
        if final >> y & 1:
            mask |= final
        return mask & ~self.on[self.sym.events[y].addr]


class _Formula:
    """The encoding as the swap checks read it: the ordering variables by
    endpoint, the named bits, the gates, the value bits of the read-from
    endpoints and (once a literal map needs them) the given clauses as
    literal sets."""

    def __init__(self, enc, builder, clauses: List[Sequence[int]]) -> None:
        self.builder = builder
        self.clauses = clauses
        self.named = enc.blaster.named_bits()
        self.edges = enc.theory.ordering_edges()
        self.edge_var = {edge: var for var, edge in self.edges.items()}
        self.edges_at: Dict[int, List[int]] = {}
        for var, (_, a, b) in self.edges.items():
            self.edges_at.setdefault(a, []).append(var)
            self.edges_at.setdefault(b, []).append(var)
        self.events = enc.symbolic.events
        self._rf_values: Optional[List[Tuple[int, List[int]]]] = None
        by_var = builder.gates()
        #: ``(out, op, inputs)`` by increasing output variable.
        self.gates = [(var, *by_var[var]) for var in sorted(by_var)]
        self.ites: Dict[Tuple[int, ...], List[int]] = {}
        for var, op, ins in self.gates:
            if op == "ite":
                self.ites.setdefault(ins, []).append(var)
        self._keys: Optional[List[FrozenSet[int]]] = None
        self._key_set: Set[FrozenSet[int]] = set()

    def literal_map(
        self, emap: Dict[int, int], rename: Dict[str, str]
    ) -> Optional[Dict[int, int]]:
        """The swap of events ``emap`` and SSA names ``rename`` as a
        literal map (moved literals of both signs), or None when it is not
        an involution of the variables."""
        lm: Dict[int, int] = {}
        get = lm.get

        def pair(x: int, y: int) -> bool:
            """Record ``x <-> y``; False when either maps elsewhere."""
            old = get(x)
            if old is None:
                if y in lm:
                    return False
                lm[x], lm[-x], lm[y], lm[-y] = y, -y, x, -x
                return True
            return old == y

        t = self.builder.true_lit
        named = self.named
        for name, other in rename.items():
            if other < name:
                continue  # ``rename`` lists both directions
            bits, images = named.get(name), named.get(other)
            if bits is None and images is None:
                continue  # neither access reached the formula
            if bits is None or images is None or len(bits) != len(images):
                return None
            for a, b in zip(bits, images):
                if abs(a) == t or abs(b) == t:
                    if a != b:
                        return None
                elif not pair(a, b):
                    return None
        edges, edge_var = self.edges, self.edge_var
        for eid in emap:  # an edge between unmoved events is fixed
            for var in self.edges_at.get(eid, ()):
                if var in lm:
                    continue  # paired already: both ends move
                kind, a, b = edges[var]
                image = edge_var.get((kind, emap.get(a, a), emap.get(b, b)))
                if image is None or not pair(var, image):
                    return None
        and_cache = self.builder._and_cache
        xor_cache = self.builder._xor_cache
        ites = self.ites
        for var, op, ins in self.gates:
            mapped = tuple(map(get, ins, ins))
            if mapped == ins:  # a fixed gate: so is its output
                if get(var, var) != var:
                    return None
                continue
            if op == "and":
                image = and_cache.get(tuple(sorted(mapped, key=abs)))
            elif op == "xor":
                image = xor_cache.get((min(mapped), max(mapped)))
            else:
                twins = ites.get(mapped, ())
                k = ites[ins].index(var)
                image = twins[k] if k < len(twins) else None
            if image is None:
                return None
            old = get(var)
            if old is None:
                lm[var], lm[-var] = image, -image
            elif old != image:
                return None
        moved = {}
        for lit, image in lm.items():
            if image != lit:
                if get(image, image) != lit:
                    return None
                moved[lit] = image
        return moved

    def _read_from_values(self) -> List[Tuple[int, List[int]]]:
        """``(event, value variables)`` per read-from endpoint."""
        ends = {
            x for kind, a, b in self.edges.values() if kind == EdgeKind.RF for x in (a, b)
        }
        named, events = self.named, self.events
        self._rf_values = [
            (eid, [abs(bit) for bit in named.get(events[eid].ssa_name, ())])
            for eid in ends
        ]
        return self._rf_values

    def clauses_invariant(self, lmap: Dict[int, int], emap: Dict[int, int]) -> bool:
        """Whether the literal map, a bijection, maps the encoding onto
        itself.  The definitions (gates and each read-from variable's
        value equality, :meth:`repro.encoding.cnf.CnfBuilder.define`)
        are functions of the literals they relate: a gate maps to the gate
        with the mapped inputs, and ``rf(w, r)``'s equality of ``w``'s and
        ``r``'s value bits to the one of the swapped endpoints, as long as
        an endpoint that stays put keeps its value bits too.  For the
        given clauses, the image of each must be a clause.  A clause
        without a moved literal is its own image, and a clause found as
        the image of another maps back to it, so neither is mapped."""
        moved = lmap.keys()
        for eid, bits in self._rf_values or self._read_from_values():
            if eid not in emap and not moved.isdisjoint(bits):
                return False
        keys = self._keys
        if keys is None:
            keys = self._keys = list(map(frozenset, self.clauses))
            self._key_set = set(keys)
        get = lmap.get
        key_set = self._key_set
        images: Set[FrozenSet[int]] = set()
        for c in keys:
            if c in images or moved.isdisjoint(c):
                continue
            image = frozenset(map(get, c, c))
            if image not in key_set:
                return False
            images.add(image)
        return True
