"""Counterexample witness extraction.

After a SAT answer, the enabled events are linearized consistently with the
active edges of the event graph (any topological order of the accepted
partial order is a valid SC execution, by Axiom 3) and annotated with the
model values of their SSA variables.

Each step also records its event id and the trace carries the model's
``nondet()`` values (per thread, in static program order), so a witness is
replayable through the SMC interpreter
(:mod:`repro.smc.witness_replay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.encoding import formula as F
from repro.ordering import EdgeKind

__all__ = ["TraceStep", "Trace", "extract_trace", "model_trace"]


@dataclass
class TraceStep:
    thread: str
    kind: str  # R / W
    addr: str
    value: int
    label: str = ""
    #: Event id in the symbolic program (-1 for steps built by hand).
    eid: int = -1

    def __str__(self) -> str:
        op = "read" if self.kind == "R" else "write"
        return f"{self.thread}: {op} {self.addr} = {self.value}"

    def to_dict(self) -> Dict:
        return {
            "thread": self.thread,
            "kind": self.kind,
            "addr": self.addr,
            "value": self.value,
            "label": self.label,
            "eid": self.eid,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TraceStep":
        return cls(
            thread=data["thread"],
            kind=data["kind"],
            addr=data["addr"],
            value=data["value"],
            label=data.get("label", ""),
            eid=data.get("eid", -1),
        )


@dataclass
class Trace:
    """A linearized counterexample execution."""

    steps: List[TraceStep] = field(default_factory=list)
    #: Model values of enabled ``nondet()`` occurrences as
    #: ``(thread, ssa_name, value)``, in static program order per thread.
    nondet_values: List[Tuple[str, str, int]] = field(default_factory=list)

    def __str__(self) -> str:
        lines = ["counterexample trace:"]
        lines += [f"  {i + 1:3d}. {s}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)

    def values_of(self, addr: str) -> List[int]:
        return [s.value for s in self.steps if s.addr == addr]

    def to_dict(self) -> Dict:
        """JSON-ready form (the service wire format); exact inverse of
        :meth:`from_dict` -- replayability of the witness survives the
        round-trip because step event ids and nondet values are kept."""
        return {
            "steps": [s.to_dict() for s in self.steps],
            "nondet_values": [list(t) for t in self.nondet_values],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Trace":
        return cls(
            steps=[TraceStep.from_dict(s) for s in data.get("steps", ())],
            nondet_values=[
                (t[0], t[1], t[2]) for t in data.get("nondet_values", ())
            ],
        )


class _ModelEnv(dict):
    """Formula-evaluation environment backed by the SAT model; variables
    the blaster never saw (unconstrained) default to 0."""

    def __init__(self, blaster) -> None:
        super().__init__()
        self._blaster = blaster

    def __missing__(self, name):
        try:
            value = self._blaster.bv_value(name)
        except Exception:
            try:
                value = self._blaster.bool_value(name)
            except Exception:
                value = 0
        self[name] = value
        return value


def extract_trace(encoded) -> Trace:
    """Build a witness from a satisfied :class:`EncodedProgram`."""
    return model_trace(
        encoded.symbolic, encoded.solver, encoded.blaster,
        encoded.guard_lits, encoded.theory.graph,
    )


def model_trace(sym, solver, blaster, guard_lits, graph) -> Trace:
    """Build a witness from a satisfying model of any SAT engine: the
    events whose guard literal (``guard_lits``) is true, linearized along
    ``graph`` (an event graph whose active edges are the model's orders),
    with the model's values of their SSA variables and ``nondet()``
    sites read through ``blaster``."""
    enabled = []
    for ev in sym.memory_events():
        if solver.model_lit(guard_lits[ev.eid]):
            enabled.append(ev)
    # Guard-disabled events never reach the trace, but they can carry
    # spurious-yet-consistent RF/WS/FR edges (e.g. the IDL baseline's
    # upfront FR encoding leaves disabled-event atoms unconstrained).
    # Those must not constrain the order of the real steps: a disabled
    # group member forced adjacent, or a spurious chain through disabled
    # intermediates wrapped around a contracted region, can manufacture
    # a cycle that the (acyclic) full graph never had.  PO edges stay --
    # program order is static and holds regardless of enablement, and
    # dropping a disabled node's PO edges would sever real same-thread
    # and start/join ordering that routes through it.
    enabled_eids = {ev.eid for ev in enabled}
    disabled_eids = {
        ev.eid for ev in sym.memory_events() if ev.eid not in enabled_eids
    }
    order = _linearize(graph, _atomic_groups(sym), disabled=disabled_eids)
    enabled.sort(key=lambda ev: order[ev.eid])

    width = sym.width
    steps = []
    for ev in enabled:
        raw = blaster.bv_value(ev.ssa_name)
        if raw & (1 << (width - 1)):
            raw -= 1 << width  # display as signed
        steps.append(
            TraceStep(ev.thread, ev.kind, ev.addr, raw, ev.label, eid=ev.eid)
        )

    env = _ModelEnv(blaster)
    nondet_values: List[Tuple[str, str, int]] = []
    for thread, ssa_name, guard in getattr(sym, "nondet_sites", ()):
        try:
            if not F.evaluate(guard, env):
                continue  # the site was not reached in this execution
        except Exception:
            pass  # keep the value: a superfluous entry is harmless
        try:
            value = blaster.bv_value(ssa_name)
        except Exception:
            value = 0  # unconstrained nondet never blasted
        nondet_values.append((thread, ssa_name, value))
    return Trace(steps, nondet_values=nondet_values)


def _atomic_groups(sym) -> List[List[int]]:
    """Event-id groups that must stay adjacent in the linearization:
    lock-acquire RMW pairs and ``atomic`` regions (merged when they
    overlap)."""
    root: Dict[int, int] = {}

    def find(x: int) -> int:
        while root.get(x, x) != x:
            root[x] = root.get(root[x], root[x])
            x = root[x]
        return x

    seen: set = set()

    def union(members) -> None:
        members = list(members)
        seen.update(members)
        base = find(members[0])
        for m in members[1:]:
            root[find(m)] = base

    for group in getattr(sym, "rmw_groups", ()):
        union([group.read_eid, group.write_eid])
    for region in getattr(sym, "atomic_regions", ()):
        if len(region) > 1:
            union(list(region))
    buckets: Dict[int, List[int]] = {}
    for eid in seen:
        buckets.setdefault(find(eid), []).append(eid)
    return [sorted(b) for b in buckets.values() if len(b) > 1]


def _linearize(graph, groups=(), disabled=()) -> Dict[int, int]:
    """Topological order of the active event graph (Kahn).

    ``groups`` lists event ids that must come out *adjacent* (atomic
    regions and lock RMW pairs).  A plain topological sort may legally
    interleave an unordered outside read between a region's read and its
    write -- the partial order allows it, but the trace consumers (witness
    replay, and any reader of the printed trace) treat a region as one
    indivisible step.  Each group is contracted to a super-node before
    sorting; the RMW write-exclusion constraints guarantee no event is
    *ordered* strictly inside a group, so contraction can never create a
    cycle on an accepted event graph.

    ``disabled`` lists event ids whose *non-PO* edges must be ignored
    and which never join a contraction group.  Witness extraction passes
    the guard-disabled memory events here: their RF/WS/FR atoms can be
    set arbitrarily by the model (spurious but consistent, e.g. under
    IDL's upfront FR encoding), and such a chain wrapped around a
    contracted region would manufacture a cycle.  PO edges are kept even
    at disabled events -- program order is static and real, and severing
    it would lose same-thread and start/join ordering that routes
    through disabled nodes.
    """
    n = graph.n
    disabled = set(disabled)
    comp = list(range(n))
    members: Dict[int, List[int]] = {}
    for g in groups:
        g = [e for e in g if 0 <= e < n and e not in disabled]
        if len(g) < 2:
            continue
        base = min(g)
        for e in g:
            comp[e] = base
        members[base] = sorted(g)
    indeg: Dict[int, int] = {}
    out: Dict[int, List[int]] = {}
    for i in range(n):
        indeg.setdefault(comp[i], 0)
    for edges in graph.out:
        for e in edges:
            if e.kind != EdgeKind.PO and (e.src in disabled or e.dst in disabled):
                continue  # spurious atom on a never-executed event
            a, b = comp[e.src], comp[e.dst]
            if a != b:
                out.setdefault(a, []).append(b)
                indeg[b] += 1
    queue = [c for c, d in indeg.items() if d == 0]
    pos: Dict[int, int] = {}
    k = 0
    while queue:
        x = queue.pop()
        for eid in members.get(x, [x]):
            pos[eid] = k
            k += 1
        for b in out.get(x, ()):
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    assert len(pos) == n, "accepted event graph must be acyclic"
    return pos
