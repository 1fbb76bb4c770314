"""Deterministic fault injection at named pipeline checkpoints.

The robustness test suite needs to *prove* every degradation path: engine
crashes, hangs, memory spikes, and workers killed mid-run.  This module
injects those faults deterministically at the same named checkpoints the
budget layer already visits (:func:`repro.robustness.checkpoint`), driven
either by the ``REPRO_FAULTS`` environment variable (which propagates into
portfolio worker processes) or programmatically via
:func:`install_faults`.

Spec syntax -- a comma-separated list of ``action@checkpoint[:arg]``::

    REPRO_FAULTS="crash@encode"            # raise FaultInjected at encode
    REPRO_FAULTS="delay@solve:0.5"         # sleep 0.5s at each solve check
    REPRO_FAULTS="memspike@frontend:64"    # allocate+hold 64MB of ballast
    REPRO_FAULTS="kill@portfolio_worker"   # SIGKILL the current process
    REPRO_FAULTS="sigstop@portfolio_worker"   # freeze (for hang detection)
    REPRO_FAULTS="ignoreterm@portfolio_worker" # ignore SIGTERM (escalation)
    REPRO_FAULTS="oom@engine"              # raise MemoryError
    REPRO_FAULTS="crash@encode,delay@solve:0.1"   # multiple faults
    REPRO_FAULTS="kill@service_worker"     # kill a service worker mid-job
    REPRO_FAULTS="drop@service_response"   # close the connection, no answer
    REPRO_FAULTS="delay@service_response:0.2"  # slow every response
    REPRO_FAULTS="torn@cache_write"        # write half a journal record
    REPRO_FAULTS="crash@cache_compact"     # die between snapshot and rotate

Checkpoint names in the shipped pipeline (:data:`CHECKPOINTS`):
``frontend``, ``analysis``, ``encode``, ``theory``, ``solve``, ``engine``,
``explore``, ``portfolio_worker``.  The verification service adds its own
daemon-side checkpoints: ``service_worker`` (a pool worker, right after
picking a job up), ``service_response`` (the server, right before writing
a response line), ``cache_write`` (the persistent verdict cache, before
appending a journal record) and ``cache_compact`` (between writing the
compaction snapshot and rotating the journal).  A spec naming any other
checkpoint is rejected, so a misspelt name fails loudly instead of
injecting nothing.  Faults fire on *every* hit of their checkpoint
(checkpoints in hot loops are throttled by the caller), so behaviour is
reproducible run-to-run.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CHECKPOINTS",
    "ENV_VAR",
    "FaultInjected",
    "DropConnection",
    "TornWrite",
    "parse_faults",
    "install_faults",
    "clear_faults",
    "active_spec",
    "fault_point",
]

ENV_VAR = "REPRO_FAULTS"

#: Recognised fault actions (validated by :func:`parse_faults`).
_ACTIONS = (
    "crash",
    "raise",
    "delay",
    "hang",
    "memspike",
    "oom",
    "kill",
    "sigstop",
    "ignoreterm",
    "drop",
    "torn",
)

#: Every checkpoint name the source passes to ``checkpoint()`` /
#: ``fault_point()`` (validated by :func:`parse_faults`).
CHECKPOINTS = (
    "frontend",
    "analysis",
    "encode",
    "theory",
    "solve",
    "engine",
    "explore",
    "portfolio_worker",
    "service_worker",
    "service_response",
    "cache_write",
    "cache_compact",
)


class FaultInjected(RuntimeError):
    """Raised by ``crash``/``raise`` faults; contained by the crash guard
    like any other engine exception."""

    def __init__(self, checkpoint: str) -> None:
        self.checkpoint = checkpoint
        super().__init__(f"injected fault at checkpoint {checkpoint!r}")


class DropConnection(FaultInjected):
    """Raised by ``drop`` faults: the service transport interprets it as
    "sever this connection without answering" (chaos testing of client
    reconnect/retry paths)."""


class TornWrite(FaultInjected):
    """Raised by ``torn`` faults: the persistent cache interprets it as
    "write a partial journal record, as if the process died mid-write"
    (chaos testing of crash recovery)."""


# Programmatic override (takes precedence over the environment variable).
_installed: Optional[str] = None
# Parse cache: spec string -> checkpoint -> [(action, arg), ...].
_cache: Dict[str, Dict[str, List[Tuple[str, Optional[str]]]]] = {}
# Ballast held by memspike faults (released by clear_faults()).
_ballast: List[bytearray] = []


def parse_faults(spec: str) -> Dict[str, List[Tuple[str, Optional[str]]]]:
    """Parse a fault spec into ``{checkpoint: [(action, arg), ...]}``.

    Raises :class:`ValueError` on malformed entries, unknown actions or
    unknown checkpoints.
    """
    table: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "@" not in entry:
            raise ValueError(
                f"malformed fault {entry!r}: expected action@checkpoint[:arg]"
            )
        action, _, rest = entry.partition("@")
        checkpoint, _, arg = rest.partition(":")
        action = action.strip()
        checkpoint = checkpoint.strip()
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r}; known: {', '.join(_ACTIONS)}"
            )
        if not checkpoint:
            raise ValueError(f"malformed fault {entry!r}: empty checkpoint")
        if checkpoint not in CHECKPOINTS:
            raise ValueError(
                f"unknown fault checkpoint {checkpoint!r} in {entry!r}; "
                f"known: {', '.join(CHECKPOINTS)}"
            )
        table.setdefault(checkpoint, []).append((action, arg or None))
    return table


def install_faults(spec: Optional[str]) -> None:
    """Install a fault spec for this process (overrides ``REPRO_FAULTS``).

    ``install_faults(None)`` removes the override (the environment variable,
    if set, applies again); use :func:`clear_faults` for a full reset.
    """
    global _installed
    if spec is not None:
        parse_faults(spec)  # validate eagerly
    _installed = spec


def clear_faults() -> None:
    """Remove any programmatic spec and release memspike ballast."""
    global _installed
    _installed = None
    _ballast.clear()


def active_spec() -> Optional[str]:
    """The fault spec in effect (programmatic override, else environment)."""
    if _installed is not None:
        return _installed
    return os.environ.get(ENV_VAR) or None


def fault_point(checkpoint: str) -> None:
    """Fire any faults registered for ``checkpoint``.  No-op (one dict
    lookup) when no spec is active.  A malformed ``REPRO_FAULTS`` spec
    raises :class:`ValueError` here (inside an engine, the crash guard
    turns it into an ``ERROR`` result carrying the message)."""
    spec = _installed if _installed is not None else os.environ.get(ENV_VAR)
    if not spec:
        return
    table = _cache.get(spec)
    if table is None:
        table = _cache[spec] = parse_faults(spec)
    actions = table.get(checkpoint)
    if not actions:
        return
    for action, arg in actions:
        _fire(action, arg, checkpoint)


def _fire(action: str, arg: Optional[str], checkpoint: str) -> None:
    if action in ("crash", "raise"):
        raise FaultInjected(checkpoint)
    if action == "drop":
        raise DropConnection(checkpoint)
    if action == "torn":
        raise TornWrite(checkpoint)
    if action in ("delay", "hang"):
        time.sleep(float(arg) if arg else 1.0)
    elif action == "memspike":
        mb = float(arg) if arg else 32.0
        _ballast.append(bytearray(int(mb * 1e6)))
    elif action == "oom":
        raise MemoryError(f"injected memory exhaustion at {checkpoint!r}")
    elif action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "sigstop":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif action == "ignoreterm":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
