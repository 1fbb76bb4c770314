"""Queries over an :class:`repro.ordering.event_graph.EventGraph` that
only the tests ask: the search itself never walks the whole graph."""

from typing import Iterator, List

from repro.ordering.event_graph import Edge, EventGraph


def active_edges(g: EventGraph) -> Iterator[Edge]:
    for edges in g.out:
        yield from edges


def inactive_edges_between(g: EventGraph, src: int, dst: int) -> List[Edge]:
    return g.inactive_out[src].get(dst, [])


def has_path(g: EventGraph, src: int, dst: int) -> bool:
    """Reachability over active edges (reflexive, non-incremental)."""
    if src == dst:
        return True
    seen = [False] * g.n
    stack = [src]
    seen[src] = True
    while stack:
        u = stack.pop()
        for e in g.out[u]:
            if e.dst == dst:
                return True
            if not seen[e.dst]:
                seen[e.dst] = True
                stack.append(e.dst)
    return False
