"""Packed search kernel for the ordering-consistency graph.

This is the T_ord twin of :mod:`repro.sat.kernel`: the narrow, integer-only
surface behind which the hot cycle-detection searches run.  Everything here
operates on the packed parallel arrays owned by
:class:`repro.ordering.event_graph.EventGraph`:

* visited state as epoch stamps (``vis_b``/``vis_f``) -- a search is opened
  with ``g.new_epoch()`` and a node is visited iff its stamp equals that
  epoch, so no per-search set/dict is ever allocated;
* parents captured as packed edge ids in parallel int lists (-1 marks the
  search root) instead of per-insertion ``{node: Edge}`` dicts;
* derivation-reason literals in the flat pool ``rpool`` addressed by
  ``rstart``/``rlen`` offset slices.

The two functions below implement the bounded two-way search of
Pearce–Kelly-style incremental cycle detection (paper Section 5.2).  The
unbounded Tarjan-baseline searches reuse them with slack bounds
(``lb=0`` / ``ub=n``), so both detectors share one kernel.

Interface contract: callers pass plain ints and receive parallel int
lists; no ``Edge`` objects cross this boundary outward.  That keeps the
surface narrow enough for a compiled (mypyc/Cython/numpy) backend to
replace this module wholesale.  Two storage choices here are measured,
not assumed (numbers in ``docs/SATCORE.md``):

* hot containers are plain Python lists rather than ``array('l')`` -- on
  CPython, ``array`` element access pays a box/unbox per read/write and
  measures ~2x slower reads / ~5x slower writes than list indexing;
* adjacency iteration walks the graph's ``Edge``-object lists (slot
  attribute loads) rather than parallel ``(dst, eid)`` int lists --
  CPython's specialized ``LOAD_ATTR`` on ``__slots__`` measures ~30%
  faster than the double ``BINARY_SUBSCR`` a packed pair scan needs.  A
  compiled backend loses both CPython quirks and would switch the scan to
  the int pairs (``Edge.idx`` gives the mapping); the kernel interface
  does not change either way.

Also the home of :func:`path_reason`, which re-assembles derivation-reason
clauses by walking a parent map over the packed pool -- used by unit-edge
propagation in :mod:`repro.ordering.solver` and by the IDL baseline's
conflict clauses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["bounded_backward", "bounded_forward", "path_reason"]


def bounded_backward(
    g, u: int, lb: int, epoch: int
) -> Tuple[List[int], List[int]]:
    """DFS over incoming active edges from ``u``, pruned to ``ord >= lb``.

    Stamps ``vis_b`` with ``epoch`` and returns the discovered node set B
    and the parallel list of parent edge ids (-1 for ``u``).  Discovery
    order; ``u`` is first.
    """
    ord_ = g.ord
    vis_b = g.vis_b
    inc = g.inc
    vis_b[u] = epoch
    nodes = [u]
    pars = [-1]
    stack = [u]
    while stack:
        x = stack.pop()
        for e in inc[x]:
            y = e.src
            if vis_b[y] != epoch and ord_[y] >= lb:
                vis_b[y] = epoch
                nodes.append(y)
                pars.append(e.idx)
                stack.append(y)
    return nodes, pars


def bounded_forward(
    g, v: int, ub: int, epoch: int
) -> Tuple[List[int], List[int], bool]:
    """DFS over outgoing active edges from ``v``, pruned to ``ord <= ub``.

    Stamps ``vis_f`` with ``epoch``.  If the search reaches a node
    already stamped by this epoch's *backward* pass (``vis_b``), a cycle
    closed: that node is appended (with its parent edge id) and the final
    flag is True.  Otherwise returns the full forward set F with flag
    False.
    """
    ord_ = g.ord
    vis_b = g.vis_b
    vis_f = g.vis_f
    out = g.out
    vis_f[v] = epoch
    nodes = [v]
    pars = [-1]
    stack = [v]
    while stack:
        x = stack.pop()
        for e in out[x]:
            y = e.dst
            if vis_b[y] == epoch:
                # Cycle: the forward frontier touched the backward set.
                nodes.append(y)
                pars.append(e.idx)
                return nodes, pars, True
            if vis_f[y] != epoch and ord_[y] <= ub:
                vis_f[y] = epoch
                nodes.append(y)
                pars.append(e.idx)
                stack.append(y)
    return nodes, pars, False


def path_reason(
    g, node: int, pmap: Dict[int, int], backward: bool, memo: Dict[int, List[int]]
) -> List[int]:
    """Derivation-reason literals along a search-tree path.

    Walks parent edge ids from ``node`` towards the search root through
    ``pmap`` (node -> parent eid, -1/absent at the root), collecting each
    edge's reason literals from the flat pool.  ``backward=True`` follows
    ``e_dst`` (backward-search tree, paths run node -> ... -> u);
    ``backward=False`` follows ``e_src`` (forward tree).

    ``memo`` maps tree nodes to their path's literals and is filled for
    every node walked, so calls on one tree share their common prefixes.
    The returned lists are shared (a reason-free edge such as PO reuses
    its parent's list): callers must not mutate them.
    """
    rstart = g.rstart
    rlen = g.rlen
    rpool = g.rpool
    step = g.e_dst if backward else g.e_src
    chain = []
    lits = memo.get(node)
    while lits is None:
        eid = pmap.get(node, -1)
        if eid < 0:
            lits = memo[node] = []
            break
        chain.append((node, eid))
        node = step[eid]
        lits = memo.get(node)
    for node, eid in reversed(chain):
        n = rlen[eid]
        if n:
            start = rstart[eid]
            lits = lits + rpool[start : start + n]
        memo[node] = lits
    return lits
