"""Map symbolic witnesses back to original Python source locations.

Witness steps carry only the event id (``eid``) of the symbolic program
they were extracted from, not a source position -- positions would bloat
the wire format and the verdict cache.  Event ids, however, are
*deterministic*: :func:`repro.frontend.ssa.build_symbolic_program`
numbers events densely in a fixed traversal order, and the translated
mini program round-trips through ``unparse``/``parse`` (the service
client ships source) onto the identical AST structure.  So rebuilding
the symbolic program locally -- same translation, same ``unwind`` and
``width`` -- reproduces the eid space, and each step's event carries the
``pos`` the translator planted: the *Python* ``(line, col)``.

This holds for locally-computed and service-routed results alike, which
is what lets ``repro verify-py --witness`` print Python source lines for
verdicts that came out of the verdict cache on a remote server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.frontend.ssa import build_symbolic_program
from repro.pyfront.translate import Translation
from repro.verify.witness import Trace, TraceStep

__all__ = [
    "AnnotatedStep",
    "GuideStep",
    "annotate_witness",
    "witness_guide",
    "witness_python_lines",
]


@dataclass(frozen=True)
class AnnotatedStep:
    """One witness step located in the original Python file."""

    step: TraceStep
    line: Optional[int]  # 1-based Python line, None if unlocatable
    col: Optional[int]
    source: str  # the stripped Python source line ("" if unlocatable)

    def render(self, path: str) -> str:
        text = str(self.step)
        if self.line is None:
            return text
        where = f"{path}:{self.line}"
        if self.source:
            return f"{text:<40s}  [{where}] {self.source}"
        return f"{text:<40s}  [{where}]"


def _eid_positions(
    translation: Translation, unwind: int, width: int
) -> Dict[int, Tuple[int, int]]:
    """eid -> Python ``(line, col)`` for the translation's event space.

    ``unwind_assumptions`` is irrelevant here: it only changes the
    constraint set, never the events, so the default rebuild matches
    both the eager and the iterative-deepening encodings.
    """
    sym = build_symbolic_program(translation.program, unwind=unwind, width=width)
    out: Dict[int, Tuple[int, int]] = {}
    for ev in sym.events:
        if ev.pos is not None:
            out[ev.eid] = ev.pos
    return out


def annotate_witness(
    translation: Translation,
    trace: Trace,
    unwind: int = 8,
    width: int = 8,
) -> List[AnnotatedStep]:
    """Annotate every step of ``trace`` with its Python source location.

    Steps whose eid cannot be mapped (hand-built traces with ``eid=-1``,
    or synthesized init writes with no source position) get
    ``line=None`` and render as the bare mini-language step.
    """
    positions = _eid_positions(translation, unwind=unwind, width=width)
    out: List[AnnotatedStep] = []
    for step in trace.steps:
        pos = positions.get(step.eid)
        if pos is None:
            out.append(AnnotatedStep(step, None, None, ""))
        else:
            line, col = pos
            out.append(
                AnnotatedStep(step, line, col, translation.python_line(line))
            )
    return out


@dataclass(frozen=True)
class GuideStep:
    """One shared access the witness-guided concrete trial replays."""

    thread: str
    kind: str  # R / W
    loc: str  # the Python name of the shared global or lock
    line: int  # 1-based Python line of the access
    value: int  # the value read or written in the witness


def witness_guide(translation: Translation, trace: Trace) -> List[GuideStep]:
    """The witness as the access sequence a concrete run must replay
    (steps located at :func:`annotate_witness`'s default bounds).

    Only steps with a Python position take part: the main thread's
    synthesized initial writes have none, and the module-level
    assignments they stand for are not shared accesses.
    """
    python_name = {mini: py for py, mini in translation.mini_names.items()}
    return [
        GuideStep(
            a.step.thread, a.step.kind,
            python_name.get(a.step.addr, a.step.addr), a.line, a.step.value,
        )
        for a in annotate_witness(translation, trace)
        if a.line is not None
    ]


def witness_python_lines(
    translation: Translation,
    trace: Trace,
    unwind: int = 8,
    width: int = 8,
) -> List[str]:
    """The witness rendered as printable lines with Python locations."""
    annotated = annotate_witness(translation, trace, unwind=unwind, width=width)
    lines = ["counterexample trace:"]
    for i, a in enumerate(annotated):
        lines.append(f"  {i + 1:3d}. {a.render(translation.path)}")
    if trace.nondet_values:
        lines.append("  nondet choices (random.randint results):")
        for thread, _ssa, value in trace.nondet_values:
            lines.append(f"    {thread}: {value}")
    return lines
