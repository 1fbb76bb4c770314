"""Flat-array SAT kernel: clause arena, watcher pairs, indexed VSIDS heap.

This module is the *hardware-shaped* half of the CDCL core (ROADMAP item
2).  Everything the inner propagation loop touches lives in flat parallel
integer containers instead of per-clause Python objects:

* :class:`ClauseArena` -- all clauses in one flat word list.  A clause is
  an integer offset (*cref*); word 0 packs ``size << 2 | learned << 1 |
  dead``, word 1 is a stable clause id (*cid*), words 2.. are the
  literals.  Activities live in a parallel ``array('d')`` indexed by cid,
  and ``cid2ref`` maps stable ids to current offsets so compaction can
  slide live clauses down without invalidating handles held above the
  kernel.
* watcher lists -- one flat pair-list per literal: ``(tag, payload)``
  where ``tag > 0`` is ``cref + 1`` with a *blocker* literal payload
  (MiniSat/Glucose idiom: a satisfied blocker skips the clause without
  touching the arena), and ``tag < 0`` is ``-(cref + 1)`` for a *binary*
  clause whose payload is the only other literal -- binary clauses
  propagate without ever loading clause data.
* :class:`VarOrderHeap` -- an indexed binary max-heap with a position
  map.  Activity bumps ``decrease_key`` (sift up -- activities only
  grow) in place, so decisions never wade through stale tuples the way
  the old lazy ``(-activity, var)`` heap did.
* :class:`BoolKernel` -- assignment/level/reason/phase/trail as parallel
  lists grown by ``new_var``, plus the two-watched-literal propagation
  loop itself.

Storage-type note (measured on CPython, see ``docs/SATCORE.md``): the
layout is designed for 32-bit words, but the *hot* containers are plain
Python lists because ``array('i')`` item access pays boxing costs
(~1.8x reads, ~5x writes vs. a list of small ints).

Reason encoding (``BoolKernel.reason[v]``):

* ``-1`` -- no reason (decision or level-0 fact),
* ``>= 0`` -- arena cref of the propagating clause,
* ``<= -2`` -- index ``-2 - r`` into the transient theory-reason pool
  (``BoolKernel.treason``); slots are recycled on backjump so theory
  propagation reasons never leak arena space.  A slot holds the reason's
  literal list or a :class:`repro.sat.theory.Explanation`; whoever reads
  an explanation first materialises it and stores the list back in the
  slot, so each reason is built at most once.

The kernel interface (the methods of the classes below) is deliberately
narrow: DPLL(T) logic, conflict analysis, assumptions, sharing, audit
and telemetry all live in :class:`repro.sat.solver.Solver` on top.  A
mypyc/Cython/numpy backend replaces this module, not the solver.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.sat.theory import Reason

__all__ = ["ClauseArena", "VarOrderHeap", "BoolKernel", "NO_REASON"]

#: Sentinel for "no reason clause" in :attr:`BoolKernel.reason`.
NO_REASON = -1

#: Words of clause metadata preceding the literals.
_HEADER_WORDS = 2

_DEAD = 1
_LEARNED = 2


class ClauseArena:
    """All clauses as one flat word list; clauses are integer offsets."""

    __slots__ = ("data", "activity", "cid2ref", "dead_words")

    def __init__(self) -> None:
        #: Flat clause words: ``[header, cid, lit0, lit1, ...] ...``.
        self.data: List[int] = []
        #: Per-cid clause activity (parallel array, learned clauses only
        #: ever have non-zero entries).
        self.activity = array("d")
        #: Stable clause id -> current cref (-1 once freed).
        self.cid2ref: List[int] = []
        #: Words occupied by freed clauses (compaction trigger).
        self.dead_words = 0

    def alloc(self, lits: List[int], learned: bool) -> int:
        """Append a clause; returns its cref (arena offset)."""
        data = self.data
        cref = len(data)
        cid = len(self.cid2ref)
        data.append(len(lits) << 2 | (_LEARNED if learned else 0))
        data.append(cid)
        data.extend(lits)
        self.activity.append(0.0)
        self.cid2ref.append(cref)
        return cref

    def free(self, cref: int) -> None:
        """Mark a clause dead; space is reclaimed by :meth:`compact`."""
        header = self.data[cref]
        self.data[cref] = header | _DEAD
        self.cid2ref[self.data[cref + 1]] = -1
        self.dead_words += (header >> 2) + _HEADER_WORDS

    def size(self, cref: int) -> int:
        return self.data[cref] >> 2

    def lits(self, cref: int) -> List[int]:
        """The clause's literals as a fresh list (cold-path accessor)."""
        base = cref + _HEADER_WORDS
        return self.data[base : base + (self.data[cref] >> 2)]

    def cid(self, cref: int) -> int:
        return self.data[cref + 1]

    def compact(self) -> Dict[int, int]:
        """Slide live clauses down in place; returns {old cref: new cref}.

        ``cid2ref`` is updated here; the caller must remap every other
        cref it holds (watcher tags, reason refs, clause lists) using the
        returned relocation map.
        """
        data = self.data
        reloc: Dict[int, int] = {}
        out: List[int] = []
        i = 0
        n = len(data)
        while i < n:
            header = data[i]
            nwords = (header >> 2) + _HEADER_WORDS
            if not header & _DEAD:
                reloc[i] = len(out)
                self.cid2ref[data[i + 1]] = len(out)
                out.extend(data[i : i + nwords])
            i += nwords
        data[:] = out
        self.dead_words = 0
        return reloc


class VarOrderHeap:
    """Indexed binary max-heap over variable activities.

    ``pos[v]`` is the heap slot of variable ``v`` (-1 when absent), so a
    bump re-sifts the live entry instead of pushing a stale duplicate.
    Activities only increase between rebuilds, hence a bump only ever
    sifts up (the classic ``decrease_key`` on a max-heap); the solver's
    conflict analysis does it inline, counting each bump of a variable
    below the root as one operation.
    """

    __slots__ = ("activity", "heap", "pos", "n_ops")

    def __init__(self, activity: List[float]) -> None:
        #: Shared with the solver: ``activity[v]`` keys the heap order.
        self.activity = activity
        self.heap: List[int] = []
        self.pos: List[int] = [-1]  # index 0 unused (vars are 1-based)
        #: Exact count of structural heap operations (inserts, pops,
        #: effective bumps) -- reported as the ``heap_ops`` stat.
        self.n_ops = 0

    def __len__(self) -> int:
        return len(self.heap)

    def pop(self) -> int:
        """Remove and return the max-activity variable (0 when empty)."""
        heap = self.heap
        if not heap:
            return 0
        pos = self.pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        self.n_ops += 1
        return top

    def _sift_up(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        v = heap[i]
        a = act[v]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos[pv] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            child = left
            right = left + 1
            if right < n and act[heap[right]] > act[heap[left]]:
                child = right
            cv = heap[child]
            if a >= act[cv]:
                break
            heap[i] = cv
            pos[cv] = i
            i = child
        heap[i] = v
        pos[v] = i

    def check(self) -> None:
        """Audit helper: heap property + position map consistency."""
        for i, v in enumerate(self.heap):
            assert self.pos[v] == i, f"pos[{v}]={self.pos[v]} != {i}"
            if i > 0:
                p = self.heap[(i - 1) >> 1]
                assert self.activity[p] >= self.activity[v], "heap order"


class BoolKernel:
    """Flat-state Boolean engine: parallel arrays + watched-literal loop."""

    __slots__ = (
        "nvars",
        "arena",
        "assign",
        "level",
        "reason",
        "phase",
        "trail",
        "trail_lim",
        "qhead",
        "watch",
        "activity",
        "heap",
        "treason",
        "treason_free",
        "n_props",
        "n_visits",
        "n_blocked",
        "max_trail",
    )

    def __init__(self) -> None:
        self.nvars = 0
        self.arena = ClauseArena()
        # Parallel per-variable arrays (1-based; slot 0 unused).
        self.assign: List[int] = [0]  # 0 unassigned / 1 true / -1 false
        self.level: List[int] = [0]
        self.reason: List[int] = [NO_REASON]
        self.phase: List[int] = [0]  # saved phase: 1 true / 0 false
        self.activity: List[float] = [0.0]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        # Per-literal watcher pair-lists, indexed by widx(lit) = 2v | neg.
        self.watch: List[List[int]] = [[], []]
        self.heap = VarOrderHeap(self.activity)
        # Transient theory-reason pool (see module docstring).
        self.treason: List[Optional[Reason]] = []
        self.treason_free: List[int] = []
        # Exact operation counters (stats satellite).
        self.n_props = 0
        self.n_visits = 0
        self.n_blocked = 0
        self.max_trail = 0

    # ------------------------------------------------------------------
    # Growth / clause plumbing
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(NO_REASON)
        self.phase.append(0)
        self.activity.append(0.0)
        self.watch.append([])
        self.watch.append([])
        # A fresh variable has activity 0 and no activity is negative,
        # so it belongs at the end of the heap: the insert needs no sift.
        heap = self.heap
        heap.pos.append(len(heap.heap))
        heap.heap.append(self.nvars)
        heap.n_ops += 1
        return self.nvars

    @staticmethod
    def widx(lit: int) -> int:
        return 2 * lit if lit > 0 else 1 - 2 * lit

    def attach(self, cref: int) -> None:
        """Install watches on the clause's first two literals."""
        data = self.arena.data
        base = cref + _HEADER_WORDS
        l0 = data[base]
        l1 = data[base + 1]
        if data[cref] >> 2 == 2:
            tag = -(cref + 1)  # binary: payload is the *other* literal
            w0 = self.watch[2 * l0 if l0 > 0 else 1 - 2 * l0]
            w0.append(tag)
            w0.append(l1)
            w1 = self.watch[2 * l1 if l1 > 0 else 1 - 2 * l1]
            w1.append(tag)
            w1.append(l0)
        else:
            tag = cref + 1
            w0 = self.watch[2 * l0 if l0 > 0 else 1 - 2 * l0]
            w0.append(tag)
            w0.append(l1)  # blocker: the other watched literal
            w1 = self.watch[2 * l1 if l1 > 0 else 1 - 2 * l1]
            w1.append(tag)
            w1.append(l0)

    def detach(self, cref: int) -> None:
        data = self.arena.data
        base = cref + _HEADER_WORDS
        for lit in (data[base], data[base + 1]):
            wl = self.watch[2 * lit if lit > 0 else 1 - 2 * lit]
            for i in range(0, len(wl), 2):
                tag = wl[i]
                if tag == cref + 1 or tag == -(cref + 1):
                    del wl[i : i + 2]
                    break

    def reason_lits(self, ref: int) -> Optional[List[int]]:
        """Cold-path accessor: the literals behind a reason ref (a theory
        explanation is materialised and stored back)."""
        if ref == NO_REASON:
            return None
        if ref >= 0:
            return self.arena.lits(ref)
        lits = self.treason[-2 - ref]
        if type(lits) is not list:
            lits = self.treason[-2 - ref] = lits.lits()
        return lits

    # ------------------------------------------------------------------
    # Assignment / trail
    # ------------------------------------------------------------------

    def value(self, lit: int) -> int:
        v = self.assign[lit if lit > 0 else -lit]
        return v if lit > 0 else -v

    def enqueue(self, lit: int, reason_ref: int) -> bool:
        """Assign ``lit`` (cold path -- propagate() inlines this).

        Returns False when ``lit`` is already false."""
        if lit > 0:
            v = lit
            cur = self.assign[v]
            if cur:
                return cur == 1
            self.assign[v] = 1
            self.phase[v] = 1
        else:
            v = -lit
            cur = self.assign[v]
            if cur:
                return cur == -1
            self.assign[v] = -1
            self.phase[v] = 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ref
        self.trail.append(lit)
        self.n_props += 1
        if len(self.trail) > self.max_trail:
            self.max_trail = len(self.trail)
        return True

    def cancel_until(self, target_level: int) -> None:
        """Undo the trail down to ``target_level`` decision levels."""
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        bound = trail_lim[target_level]
        trail = self.trail
        assign = self.assign
        reason = self.reason
        treason = self.treason
        treason_free = self.treason_free
        # Heap reinsertion is inlined: a method call per unwound variable
        # dominates deep backjumps otherwise.  Newly freed variables carry
        # no fresh bumps, so the sift-up almost always terminates on the
        # first parent comparison; full _sift_up only runs when the slot
        # actually rises.
        heap_obj = self.heap
        heap = heap_obj.heap
        pos = heap_obj.pos
        act = heap_obj.activity
        n_ins = 0
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            v = lit if lit > 0 else -lit
            assign[v] = 0
            r = reason[v]
            if r < NO_REASON:  # recycle the transient theory reason
                slot = -2 - r
                treason[slot] = None
                treason_free.append(slot)
            reason[v] = NO_REASON
            if pos[v] == -1:
                idx = len(heap)
                heap.append(v)
                pos[v] = idx
                n_ins += 1
                if idx > 0 and act[heap[(idx - 1) >> 1]] < act[v]:
                    heap_obj._sift_up(idx)
        heap_obj.n_ops += n_ins
        del trail[bound:]
        del trail_lim[target_level:]
        if self.qhead > bound:
            self.qhead = bound

    # ------------------------------------------------------------------
    # Propagation (the hot loop)
    # ------------------------------------------------------------------

    def propagate(self) -> int:
        """Two-watched-literal unit propagation to fixpoint.

        Returns the cref of a falsified clause, or -1 at fixpoint.  The
        loop binds every container to a local and inlines value lookups
        and enqueues: on CPython, attribute loads and function calls
        dominate otherwise.
        """
        assign = self.assign
        level = self.level
        reason = self.reason
        phase = self.phase
        watch = self.watch
        trail = self.trail
        data = self.arena.data
        dl = len(self.trail_lim)
        qhead = self.qhead
        n_props = 0
        n_visits = 0
        n_blocked = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            # Watchers of the literal that just became false (= -lit).
            watchers = watch[2 * lit + 1] if lit > 0 else watch[-2 * lit]
            n = len(watchers)
            n_visits += n >> 1
            i = 0
            j = 0
            while i < n:
                tag = watchers[i]
                blocker = watchers[i + 1]
                i += 2
                bv = assign[blocker] if blocker > 0 else -assign[-blocker]
                if bv == 1:
                    # Satisfied via the blocker: clause data never loaded.
                    watchers[j] = tag
                    watchers[j + 1] = blocker
                    j += 2
                    n_blocked += 1
                    continue
                if tag < 0:
                    # Binary clause: blocker is the only other literal.
                    watchers[j] = tag
                    watchers[j + 1] = blocker
                    j += 2
                    if bv == -1:
                        while i < n:  # conflict: restore remaining watchers
                            watchers[j] = watchers[i]
                            watchers[j + 1] = watchers[i + 1]
                            i += 2
                            j += 2
                        del watchers[j:]
                        self.qhead = len(trail)
                        self.n_props += n_props
                        self.n_visits += n_visits
                        self.n_blocked += n_blocked
                        return -tag - 1
                    # Unit: enqueue the blocker (inlined).
                    if blocker > 0:
                        assign[blocker] = 1
                        phase[blocker] = 1
                        level[blocker] = dl
                        reason[blocker] = -tag - 1
                    else:
                        bvar = -blocker
                        assign[bvar] = -1
                        phase[bvar] = 0
                        level[bvar] = dl
                        reason[bvar] = -tag - 1
                    trail.append(blocker)
                    n_props += 1
                    continue
                cref = tag - 1
                base = cref + 2
                # Ensure the falsified literal sits at base+1.
                first = data[base]
                if first == neg:
                    first = data[base + 1]
                    data[base] = first
                    data[base + 1] = neg
                fv = assign[first] if first > 0 else -assign[-first]
                if fv == 1:
                    watchers[j] = tag
                    watchers[j + 1] = first  # refresh the blocker
                    j += 2
                    continue
                # Look for a new non-false literal to watch.
                end = base + (data[cref] >> 2)
                k = base + 2
                moved = False
                while k < end:
                    lk = data[k]
                    kv = assign[lk] if lk > 0 else -assign[-lk]
                    if kv != -1:
                        data[base + 1] = lk
                        data[k] = neg
                        wl = watch[2 * lk if lk > 0 else 1 - 2 * lk]
                        wl.append(tag)
                        wl.append(first)
                        moved = True
                        break
                    k += 1
                if moved:
                    continue
                # Unit or falsified: the clause stays watched here.
                watchers[j] = tag
                watchers[j + 1] = first
                j += 2
                if fv == -1:
                    while i < n:  # conflict: restore remaining watchers
                        watchers[j] = watchers[i]
                        watchers[j + 1] = watchers[i + 1]
                        i += 2
                        j += 2
                    del watchers[j:]
                    self.qhead = len(trail)
                    self.n_props += n_props
                    self.n_visits += n_visits
                    self.n_blocked += n_blocked
                    return cref
                # Unit: enqueue `first` (inlined).
                if first > 0:
                    assign[first] = 1
                    phase[first] = 1
                    level[first] = dl
                    reason[first] = cref
                else:
                    fvar = -first
                    assign[fvar] = -1
                    phase[fvar] = 0
                    level[fvar] = dl
                    reason[fvar] = cref
                trail.append(first)
                n_props += 1
            del watchers[j:]
        self.qhead = qhead
        self.n_props += n_props
        self.n_visits += n_visits
        self.n_blocked += n_blocked
        if len(trail) > self.max_trail:
            self.max_trail = len(trail)
        return -1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact_arena(self, clause_lists: List[List[int]]) -> None:
        """Compact the arena and remap every cref the kernel state holds.

        ``clause_lists`` are additional cref lists owned by the caller
        (problem/learned clause indices); they are remapped in place.
        """
        reloc = self.arena.compact()
        for refs in clause_lists:
            for i, cref in enumerate(refs):
                refs[i] = reloc[cref]
        reason = self.reason
        for v in range(1, self.nvars + 1):
            r = reason[v]
            if r >= 0:
                reason[v] = reloc[r]
        for wl in self.watch:
            for i in range(0, len(wl), 2):
                tag = wl[i]
                if tag > 0:
                    wl[i] = reloc[tag - 1] + 1
                else:
                    wl[i] = -(reloc[-tag - 1] + 1)
