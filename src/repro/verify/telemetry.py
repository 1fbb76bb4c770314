"""Structured solver telemetry: normalized result stats, the per-layer
span record, and an optional JSONL event trace.

Every :class:`~repro.verify.result.VerificationResult` carries a ``stats``
dict normalized by :func:`normalize_stats`: the canonical counters in
:data:`STAT_KEYS` are always present (zero when an engine does not track
them), and engine-specific extras are preserved.  Portfolio runs can
therefore be compared column-by-column without per-engine special cases.
The canonical counters are declared once, by the components that own
them: the fields of :class:`~repro.sat.solver.SolverStats` and
:class:`~repro.encoding.encoder.EncodingStats`, plus the stateless
engines' and the verification service's keys.

The SMT engine times its layers with one :class:`Spans` record:
``frontend``, ``encode`` and ``solve``, plus ``witness`` on UNSAFE, each
measured exactly once.  Two children are read from counters their
components already keep: ``analysis`` (the encoder's prune-plan build
time, part of ``encode``) and ``theory`` (the SAT core's time inside the
theory callbacks, part of ``solve``).  The record lands in ``stats`` as
``time_<name>_s`` and in the trace as one ``phase`` event per entry, with
the same numbers.

Setting ``VerifierConfig(trace_jsonl=PATH)`` additionally streams a
line-per-event JSONL trace while the engine runs.  Schema: every line is a
JSON object

``{"t": <seconds since trace start>, "event": <name>, ...fields}``

with these events:

================== ============================================= =========
event              emitted by                                    fields
================== ============================================= =========
verify_start       :func:`repro.verify.verify`                   engine, config
phase              the SMT engine's :class:`Spans`, once per     name, wall_s
                   entry as it closes (frontend, encode,
                   analysis, solve, theory, witness)
solve_start        the SAT core, entering CDCL search            nvars, clauses
restart            the SAT core, per Luby restart                index, conflicts
theory_conflict    the DPLL(T) loop, per theory conflict         level, clauses
theory_propagation the DPLL(T) loop, per propagation batch       count
icd_reorder        the incremental cycle detector, per reorder   back, fwd
bound              the SMT engine, per unwind-schedule bound     bound, answer, wall_s, conflicts
solve_end          the SAT core, leaving CDCL search             result + counters
verify_end         :func:`repro.verify.verify`                   verdict, wall_time_s
================== ============================================= =========

Every engine runner receives the active :class:`TraceWriter` as its
``telemetry`` argument and may emit its own events; the schema above is
a guaranteed core, not a closed set.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.encoding.encoder import EncodingStats
from repro.sat.solver import SolverStats

__all__ = [
    "STAT_KEYS",
    "normalize_stats",
    "Spans",
    "TraceWriter",
    "attach_telemetry",
    "read_trace",
]

#: Canonical counters present in every normalized ``stats`` dict; engines
#: that do not track a counter report 0.
STAT_KEYS = (
    *(f.name for f in fields(SolverStats)),
    *(f.name for f in fields(EncodingStats)),
    # stateless exploration (repro.smc, repro.baselines.lazyseq)
    "traces",
    "transitions",
    # verification service (repro.service); zero for in-process runs
    "cache_hit",
    "queue_wait_s",
    "worker_recycles",
)


def _coerce_number(value):
    """Coerce ``value`` to an int/float, or return None if impossible.

    Rejects NaN (it breaks column-wise comparison) and anything that is
    not a number or a numeric string; bools become 0/1."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value if value == value else None  # NaN != NaN
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
        try:
            f = float(value)
        except ValueError:
            return None
        return f if f == f else None
    return None


def normalize_stats(raw: Optional[Mapping]) -> Dict[str, float]:
    """Return ``raw`` with every :data:`STAT_KEYS` counter present
    (defaulting to 0) and all engine-specific extras preserved.

    The canonical counters are guaranteed *numeric*: engines cannot
    poison batch comparisons by reporting ``None`` or free-form strings
    under a canonical key.  Numeric strings are coerced; non-coercible
    values are dropped back to 0 and flagged in ``stats_dropped`` so the
    loss is visible instead of silent."""
    out: Dict[str, float] = {key: 0 for key in STAT_KEYS}
    if not raw:
        return out
    dropped: List[str] = []
    for key, value in raw.items():
        if key in out:
            num = _coerce_number(value)
            if num is None:
                dropped.append(key)
            else:
                out[key] = num
        else:
            out[key] = value
    if dropped:
        out["stats_dropped"] = sorted(dropped)
    return out


class Spans:
    """One verification's layer timings, each measured exactly once.

    :meth:`span` times a layer; ``children`` name durations the layer's
    components already measured, read when the layer closes normally.
    Each entry is recorded rounded, streamed to the trace as a ``phase``
    event, and serialised by :meth:`as_stats`, so both outputs carry the
    same numbers."""

    __slots__ = ("wall_s", "_writer")

    def __init__(self, writer: Optional["TraceWriter"] = None) -> None:
        #: Seconds per entry, in the order the entries closed.
        self.wall_s: Dict[str, float] = {}
        self._writer = writer

    @contextmanager
    def span(self, name: str, **children: Callable[[], float]) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, time.perf_counter() - start)
        for child, read in children.items():
            self._record(child, read())

    def _record(self, name: str, seconds: float) -> None:
        self.wall_s[name] = wall_s = round(seconds, 6)
        if self._writer is not None:
            self._writer.emit("phase", name=name, wall_s=wall_s)

    def as_stats(self) -> Dict[str, float]:
        return {f"time_{name}_s": s for name, s in self.wall_s.items()}


class TraceWriter:
    """Appends JSONL telemetry events to a file.

    Cheap enough for per-conflict granularity; the hot propagation loops
    only report aggregates.  Usable as a context manager."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "w")
        self._t0 = time.monotonic()

    def emit(self, event: str, **fields) -> None:
        record = {"t": round(time.monotonic() - self._t0, 6), "event": event}
        record.update(fields)
        self._file.write(json.dumps(record) + "\n")
        # Flush per line: portfolio workers are SIGTERM'd (or SIGKILL'd
        # when hung) the moment a sibling wins, and an unflushed buffer
        # would silently drop the loser's entire trace.
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str) -> Iterator[Dict]:
    """Yield the JSONL records of a telemetry trace.

    Tolerates a truncated final line: a worker killed mid-``emit`` (e.g.
    SIGKILL after a hang) leaves at most one partial record at the end of
    the file, which is skipped.  A malformed record anywhere *else* still
    raises -- that indicates corruption, not truncation."""
    with open(path) as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                return  # truncated final line (killed writer)
            raise


def attach_telemetry(encoded, writer: Optional[TraceWriter]) -> None:
    """Wire a :class:`TraceWriter` into an encoded program's SAT core and
    theory solver (both expose an optional ``telemetry`` attribute)."""
    if writer is None:
        return
    solver = getattr(encoded, "solver", None)
    if solver is not None:
        solver.telemetry = writer
    theory = getattr(encoded, "theory", None)
    if theory is not None and hasattr(theory, "telemetry"):
        theory.telemetry = writer
