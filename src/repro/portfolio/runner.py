"""The multiprocess portfolio runner: first conclusive verdict wins.

Each configuration runs :func:`repro.verify.verify` in its own worker
process (engines are CPU-bound pure Python, so processes -- not threads --
are the only way to use more than one core).  As soon as one worker
reports SAFE or UNSAFE, the remaining workers are cancelled with SIGTERM;
ties between workers that have finished by the time the first conclusive
verdict is seen are broken in favour of the earliest configuration in the
portfolio.  With ``jobs=1`` the portfolio degrades gracefully to serial
execution in portfolio order, stopping at the first conclusive verdict --
same winner rule, no processes.

The parallel race runs on the shared supervised pool
(:class:`repro.robustness.pool.WorkerPool`), one fresh process per
configuration, so it inherits the pool's hardening: a worker that **dies
without reporting** or stops heartbeating for ``hang_timeout_s`` comes back
as ``status="error"`` instead of stalling the race, and losers are
cancelled with SIGTERM, then SIGKILL after ``term_grace_s``.

With ``share_clauses=True`` the members whose configs produce the
identical CNF encoding (grouped by
:func:`repro.portfolio.sharing.encoding_signature`) exchange short learned
clauses while they race: a worker posts each batch to the parent, which
relays it to the import queues of the publisher's group siblings, who pull
them in at their next restart boundary.  Sharing never changes a verdict
-- only which engine reaches it first -- because shared clauses are
consequences of the common formula.
"""

from __future__ import annotations

import functools
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.lang import ast
from repro.portfolio.sharing import share_groups
from repro.robustness import pool as pool_mod
from repro.robustness.faults import fault_point
from repro.sat import sharing as sat_sharing
from repro.verify import Verdict, VerificationResult, VerifierConfig, verify
from repro.verify.config import PRESETS

__all__ = ["EngineRun", "PortfolioResult", "verify_portfolio"]

_CONCLUSIVE = (Verdict.SAFE, Verdict.UNSAFE)


@dataclass
class EngineRun:
    """Outcome of one portfolio member.

    ``status`` is one of:

    * ``"conclusive"`` -- returned SAFE or UNSAFE;
    * ``"unknown"`` -- ran to completion but exhausted its budget;
    * ``"cancelled"`` -- lost the race and was terminated (or never
      started because a winner emerged first);
    * ``"error"`` -- the engine raised or the worker died.
    """

    config_name: str
    status: str
    verdict: Optional[str] = None
    wall_time_s: float = 0.0
    result: Optional[VerificationResult] = None
    error: Optional[str] = None


@dataclass
class PortfolioResult:
    """Aggregate outcome of :func:`verify_portfolio`.

    ``verdict`` is the winner's verdict, or UNKNOWN when no member was
    conclusive.  ``runs`` is aligned with the input configuration list.
    """

    verdict: str
    winner: Optional[str]
    result: Optional[VerificationResult]
    runs: List[EngineRun] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Learned clauses that crossed the sharing medium (0 unless the
    #: portfolio ran with ``share_clauses=True``).
    shared_clauses: int = 0

    @property
    def is_safe(self) -> bool:
        return self.verdict == Verdict.SAFE

    @property
    def is_unsafe(self) -> bool:
        return self.verdict == Verdict.UNSAFE

    def __str__(self) -> str:
        head = f"[portfolio] {self.verdict.upper()} in {self.wall_time_s:.3f}s"
        if self.winner is not None:
            head += f" (winner: {self.winner})"
        if self.shared_clauses:
            head += f" [{self.shared_clauses} clauses shared]"
        lines = [head]
        for run in self.runs:
            verdict = run.verdict or "-"
            lines.append(
                f"  {run.config_name:<14} {run.status:<11} {verdict:<8}"
                f" {run.wall_time_s:.3f}s"
            )
        return "\n".join(lines)


def _coerce_config(item: Union[str, VerifierConfig]) -> VerifierConfig:
    if isinstance(item, VerifierConfig):
        return item
    if isinstance(item, str):
        try:
            return PRESETS[item]()
        except KeyError:
            raise ValueError(
                f"unknown preset {item!r}; available presets: "
                f"{', '.join(sorted(PRESETS))}"
            ) from None
    raise TypeError(
        f"portfolio entries must be VerifierConfig or preset names, "
        f"got {type(item).__name__}"
    )


def _source_of(program: Union[str, ast.Program]) -> str:
    """Normalize to source text (cheap to pickle, workers re-parse)."""
    if isinstance(program, str):
        return program
    from repro.lang.unparse import unparse

    return unparse(program)


def _race_member(source, cfgs, inboxes, index: int) -> Dict:
    """Pool job function: run portfolio member ``index``.

    ``inboxes`` maps each clause-sharing member to ``(signature, import
    queue)``; a member with an inbox attaches a
    :class:`~repro.sat.sharing.ShareChannel` process-wide whose exports are
    posted to the parent for relaying and whose imports come from its queue.
    """
    if index in inboxes:
        signature, inbox = inboxes[index]

        def _send(clauses) -> None:
            pool_mod.post((index, clauses))

        def _recv():
            items = []
            while True:
                try:
                    items.extend(inbox.get_nowait())
                except (queue_mod.Empty, OSError):
                    return items

        sat_sharing.attach(
            sat_sharing.ShareChannel(_send, _recv, signature=signature)
        )
    fault_point("portfolio_worker")
    return {"result": verify(source, cfgs[index])}


def verify_portfolio(
    program: Union[str, ast.Program],
    configs: Sequence[Union[str, VerifierConfig]],
    jobs: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    wall_budget_s: Optional[float] = None,
    hang_timeout_s: Optional[float] = pool_mod.HANG_TIMEOUT_S,
    term_grace_s: float = pool_mod.TERM_GRACE_S,
    heartbeat_s: float = pool_mod.HEARTBEAT_S,
    share_clauses: bool = False,
) -> PortfolioResult:
    """Race a portfolio of engine configurations on one program.

    Args:
        program: source text or a parsed AST.
        configs: :class:`VerifierConfig` instances or preset names
            (``"zord"``, ``"cbmc"``, ...); earlier entries win ties.
        jobs: worker processes (default: ``min(len(configs), cpu_count)``);
            ``1`` falls back to serial execution in portfolio order.
        time_limit_s: per-engine budget applied to every config that does
            not already carry its own ``time_limit_s``.
        wall_budget_s: optional overall wall-clock budget for the parallel
            race; on expiry all workers are cancelled and the verdict is
            UNKNOWN.
        hang_timeout_s: a live worker that posts no heartbeat for this
            long is declared hung and killed (``None`` disables).
        term_grace_s: seconds a SIGTERM'd worker gets before SIGKILL.
        heartbeat_s: worker heartbeat interval.
        share_clauses: exchange short learned clauses between members whose
            configs produce the identical CNF encoding (see
            :mod:`repro.portfolio.sharing`).  Verdict-preserving; serial
            runs share forward from earlier to later members.

    Returns:
        A :class:`PortfolioResult`; ``result`` is the winning engine's full
        :class:`VerificationResult` (witness included) when conclusive.
    """
    cfgs = [_coerce_config(c) for c in configs]
    if not cfgs:
        raise ValueError("verify_portfolio needs at least one configuration")
    if time_limit_s is not None:
        cfgs = [
            c if c.time_limit_s is not None else c.with_(time_limit_s=time_limit_s)
            for c in cfgs
        ]
    if jobs is None:
        jobs = min(len(cfgs), os.cpu_count() or 1)
    start = time.monotonic()
    if jobs <= 1 or len(cfgs) == 1:
        return _run_serial(program, cfgs, start, share_clauses)
    return _run_parallel(
        program, cfgs, jobs, start, wall_budget_s,
        hang_timeout_s, term_grace_s, heartbeat_s, share_clauses,
    )


# ----------------------------------------------------------------------
# Serial fallback (jobs=1)
# ----------------------------------------------------------------------

def _run_serial(
    program,
    cfgs: List[VerifierConfig],
    start: float,
    share_clauses: bool = False,
) -> PortfolioResult:
    # Serial sharing is one-directional: members run in portfolio order, so
    # clauses learned by earlier members seed the later ones of the same
    # encoding group (via a SerialBroker mailbox per group).
    channels: Dict[int, sat_sharing.ShareChannel] = {}
    if share_clauses:
        for sig, idxs in share_groups(cfgs).items():
            broker = sat_sharing.SerialBroker(signature=sig)
            for i in idxs:
                channels[i] = broker.join()
    runs = [EngineRun(c.name, "cancelled") for c in cfgs]
    winner_idx: Optional[int] = None
    for i, cfg in enumerate(cfgs):
        t0 = time.monotonic()
        sat_sharing.attach(channels.get(i))
        try:
            result = verify(program, cfg)
        except Exception as exc:
            runs[i] = EngineRun(
                cfg.name, "error",
                wall_time_s=time.monotonic() - t0,
                error=f"{type(exc).__name__}: {exc}",
            )
            continue
        finally:
            sat_sharing.detach()
        runs[i] = _run_from_result(cfg.name, result)
        if runs[i].status == "conclusive":
            winner_idx = i
            break
    shared = sum(ch.exported for ch in channels.values())
    return _finish(runs, winner_idx, start, shared)


def _run_from_result(name: str, result: VerificationResult) -> EngineRun:
    """Classify a completed verification into an :class:`EngineRun`.

    A contained engine crash (``verdict == "error"``) counts as a worker
    error, not an unknown: the diagnostic is surfaced in ``error``.
    """
    if result.verdict in _CONCLUSIVE:
        status = "conclusive"
    elif result.verdict == Verdict.ERROR:
        status = "error"
    else:
        status = "unknown"
    return EngineRun(
        name, status, result.verdict, result.wall_time_s, result,
        error=result.diagnostic if status == "error" else None,
    )


# ----------------------------------------------------------------------
# Parallel race
# ----------------------------------------------------------------------

def _run_parallel(
    program,
    cfgs: List[VerifierConfig],
    jobs: int,
    start: float,
    wall_budget_s: Optional[float],
    hang_timeout_s: Optional[float],
    term_grace_s: float,
    heartbeat_s: float,
    share_clauses: bool = False,
) -> PortfolioResult:
    from concurrent.futures import FIRST_COMPLETED, wait

    source = _source_of(program)
    # Fail fast in the parent on malformed input instead of collecting
    # one identical parse error per worker.
    from repro.lang import parse

    parse(source)

    # Clause sharing: per-member import queues, and for each member the
    # encoding-group siblings its exports are relayed to.
    inboxes: Dict[int, tuple] = {}
    peers: Dict[int, List[int]] = {}
    if share_clauses:
        for sig, idxs in share_groups(cfgs).items():
            for i in idxs:
                inboxes[i] = (sig, pool_mod.CONTEXT.Queue())
                peers[i] = [j for j in idxs if j != i]
    shared = 0

    def relay(posted) -> None:
        nonlocal shared
        i, clauses = posted
        shared += len(clauses)
        for j in peers[i]:
            inboxes[j][1].put(clauses)

    pool = pool_mod.WorkerPool(
        functools.partial(_race_member, source, cfgs, inboxes),
        size=min(jobs, len(cfgs)),
        recycle_after=1,  # a fresh process per configuration
        hang_timeout_s=hang_timeout_s,
        heartbeat_s=heartbeat_s,
        term_grace_s=term_grace_s,
        on_post=relay,
    )
    runs = [EngineRun(c.name, "cancelled") for c in cfgs]
    members = {pool.submit(i)[1]: i for i in range(len(cfgs))}
    pool.seal()
    pending = set(members)
    conclusive: List[int] = []
    try:
        while pending and not conclusive:
            timeout = None
            if wall_budget_s is not None:
                timeout = max(0.0, start + wall_budget_s - time.monotonic())
            done, pending = wait(pending, timeout, FIRST_COMPLETED)
            if not done:
                break  # wall budget expired: the losers are cancelled below
            # Deterministic tie-break: everything finished by now counts,
            # and the earliest config among them wins.
            done |= {f for f in pending if f.done()}
            pending -= done
            for fut in done:
                i = members[fut]
                payload = fut.result()
                if "error" in payload:
                    runs[i] = EngineRun(
                        cfgs[i].name, "error",
                        wall_time_s=time.monotonic() - start,
                        error=payload["error"],
                    )
                else:
                    runs[i] = _run_from_result(cfgs[i].name, payload["result"])
                if runs[i].status == "conclusive":
                    conclusive.append(i)
    finally:
        pool.shutdown(wait_s=0.0)
        for _, inbox in inboxes.values():
            # Don't block interpreter exit on relayed batches a cancelled
            # worker never drained.
            inbox.close()
            inbox.cancel_join_thread()
    for fut in pending:
        runs[members[fut]].wall_time_s = time.monotonic() - start
    winner_idx = min(conclusive) if conclusive else None
    return _finish(runs, winner_idx, start, shared)


def _finish(
    runs: List[EngineRun],
    winner_idx: Optional[int],
    start: float,
    shared: int = 0,
) -> PortfolioResult:
    elapsed = time.monotonic() - start
    if winner_idx is None:
        return PortfolioResult(Verdict.UNKNOWN, None, None, runs, elapsed, shared)
    win = runs[winner_idx]
    return PortfolioResult(
        win.verdict, win.config_name, win.result, runs, elapsed, shared
    )
