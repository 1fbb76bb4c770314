"""Search kernel for the ordering-consistency graph.

The two bounded searches below implement the two-way search of
Pearce–Kelly-style incremental cycle detection (paper Section 5.2).  They
walk the :class:`repro.ordering.event_graph.EventGraph` ``Edge``-object
adjacency and keep visited state as epoch stamps (``vis_b``/``vis_f``): a
search is opened with ``g.new_epoch()`` and a node is visited iff its stamp
equals that epoch, so no per-search set/dict is ever allocated.  Each
search returns its nodes in discovery order with the parallel list of
their parent edges (``None`` at the search root).  The unbounded
Tarjan-baseline searches reuse them with slack bounds (``lb=0`` /
``ub=n``), so both detectors share one kernel.  On CPython the slot
attribute loads of an ``Edge`` scan measure faster than a packed int-pair
scan (``docs/SATCORE.md`` §3), so there is no packed edge copy.

Also the home of :func:`path_reason`, which re-assembles derivation-reason
clauses by walking a search tree's parent edges -- used by unit-edge
propagation in :mod:`repro.ordering.solver` and by the IDL baseline's
conflict clauses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ordering.event_graph import Edge

__all__ = ["bounded_backward", "bounded_forward", "path_reason"]


def bounded_backward(
    g, u: int, lb: int, epoch: int
) -> Tuple[List[int], List[Optional[Edge]]]:
    """DFS over incoming active edges from ``u``, pruned to ``ord >= lb``.

    Stamps ``vis_b`` with ``epoch`` and returns the discovered node set B
    and the parallel list of parent edges (None for ``u``).  Discovery
    order; ``u`` is first.
    """
    ord_ = g.ord
    vis_b = g.vis_b
    inc = g.inc
    vis_b[u] = epoch
    nodes = [u]
    pars = [None]
    stack = [u]
    while stack:
        x = stack.pop()
        for e in inc[x]:
            y = e.src
            if vis_b[y] != epoch and ord_[y] >= lb:
                vis_b[y] = epoch
                nodes.append(y)
                pars.append(e)
                stack.append(y)
    return nodes, pars


def bounded_forward(
    g, v: int, ub: int, epoch: int
) -> Tuple[List[int], List[Optional[Edge]], bool]:
    """DFS over outgoing active edges from ``v``, pruned to ``ord <= ub``.

    Stamps ``vis_f`` with ``epoch``.  If the search reaches a node
    already stamped by this epoch's *backward* pass (``vis_b``), a cycle
    closed: that node is appended (with its parent edge) and the final
    flag is True.  Otherwise returns the full forward set F with flag
    False.
    """
    ord_ = g.ord
    vis_b = g.vis_b
    vis_f = g.vis_f
    out = g.out
    vis_f[v] = epoch
    nodes = [v]
    pars = [None]
    stack = [v]
    while stack:
        x = stack.pop()
        for e in out[x]:
            y = e.dst
            if vis_b[y] == epoch:
                # Cycle: the forward frontier touched the backward set.
                nodes.append(y)
                pars.append(e)
                return nodes, pars, True
            if vis_f[y] != epoch and ord_[y] <= ub:
                vis_f[y] = epoch
                nodes.append(y)
                pars.append(e)
                stack.append(y)
    return nodes, pars, False


def path_reason(
    node: int,
    pmap: Dict[int, Optional[Edge]],
    backward: bool,
    memo: Dict[int, List[int]],
) -> List[int]:
    """Derivation-reason literals along a search-tree path.

    Walks parent edges from ``node`` towards the search root through
    ``pmap`` (node -> parent edge, None/absent at the root), collecting
    each edge's reason literals.  ``backward=True`` follows ``e.dst``
    (backward-search tree, paths run node -> ... -> u);
    ``backward=False`` follows ``e.src`` (forward tree).

    ``memo`` maps tree nodes to their path's literals and is filled for
    every node walked, so calls on one tree share their common prefixes.
    The returned lists are shared (a reason-free edge such as PO reuses
    its parent's list): callers must not mutate them.
    """
    chain = []
    lits = memo.get(node)
    while lits is None:
        e = pmap.get(node)
        if e is None:
            lits = memo[node] = []
            break
        chain.append((node, e))
        node = e.dst if backward else e.src
        lits = memo.get(node)
    for node, e in reversed(chain):
        if e.reason:
            lits = lits + list(e.reason)
        memo[node] = lits
    return lits
