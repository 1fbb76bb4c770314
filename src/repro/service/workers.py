"""The service's job function and its worker pool.

The pool itself -- warm forked workers, the job claim, heartbeats and hang
detection, drain-then-reap, kill escalation and recycling -- is
:class:`repro.robustness.pool.WorkerPool`, shared with the portfolio race
and the batch grid.  This module fixes its job function to one
verification request:

* a job is a ``(source, config_dict, ckpt_token)`` triple; its payload is
  ``{"result": ...}`` (the wire-format result, any verdict) or
  ``{"input_error": ...}`` for bad program text or a bad config dict;
* a job that ends as a *memory*-budget UNKNOWN retires its worker:
  CPython rarely returns freed heap to the OS, so a worker that just built
  a pathological encoding stays bloated forever unless replaced;
* with a ``checkpoint_dir``, jobs that carry a token get durable
  per-bound checkpoint/resume through the iterative-deepening loop (see
  :mod:`repro.service.checkpoints`).

:meth:`WorkerPool.submit` returns ``(job_id, future, submitted_at)``; the
asyncio server awaits the future with ``asyncio.wrap_future``.
"""

from __future__ import annotations

import functools
import os
from typing import Dict, Optional

from repro.robustness import pool

__all__ = ["WorkerPool", "run_job"]

#: Fallback pool size: half the machine for solving, capped -- the server
#: process itself needs headroom for the protocol and for deriving the
#: cache keys of new submissions (repeats hit the submission index and
#: parse nothing).
_DEFAULT_SIZE = max(1, min(4, (os.cpu_count() or 2) // 2))


def run_job(
    checkpoint_dir: Optional[str],
    source: str,
    config_dict: Optional[Dict],
    ckpt_token: Optional[str],
) -> Dict:
    """Verify one request in a pool worker; returns its payload.

    With a ``checkpoint_dir``, a job carrying a checkpoint token gets
    durable per-bound progress: an iterative-deepening run saves a
    checkpoint after every completed bound, a re-dispatched job resumes
    its schedule past the last completed bound (stamping
    ``resumed_from_bound`` / ``bounds_skipped`` into the result stats),
    and a conclusive verdict discards the checkpoint -- the verdict cache
    takes over as the durable record.
    """
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.lang.sema import SemanticError
    from repro.robustness.faults import fault_point
    from repro.service.checkpoints import CheckpointStore
    from repro.verify.checkpoint import Checkpoint, checkpoint_sink
    from repro.verify.config import VerifierConfig
    from repro.verify.verifier import verify_one

    # Chaos hook: kill@service_worker dies here, mid-job from the parent's
    # point of view (START reported, no DONE coming).
    fault_point("service_worker")
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    try:
        config = (
            VerifierConfig.from_dict(config_dict)
            if config_dict
            else VerifierConfig()
        )
        config, sink, resumed_from, skipped = _prepare_resume(
            store, ckpt_token, config, Checkpoint
        )
        with checkpoint_sink(sink):
            result = verify_one(source, config)
    except (LexError, ParseError, SemanticError, ValueError) as exc:
        # Input errors: bad program text or a bad config dict.
        return {"input_error": f"{type(exc).__name__}: {exc}"}
    if resumed_from is not None:
        result.stats["resumed_from_bound"] = resumed_from
        result.stats["bounds_skipped"] = skipped
    if store is not None and ckpt_token and result.verdict in ("safe", "unsafe"):
        store.discard(ckpt_token)
    payload = {"result": result.to_dict()}
    if _hit_memory_budget(payload):
        payload["retire"] = "memory"
    return payload


def _prepare_resume(store, token, config, checkpoint_cls):
    """Resume plumbing for one job: ``(config, sink, resumed_from,
    bounds_skipped)``.

    With a prior checkpoint, the returned config's ``unwind_schedule`` is
    trimmed to the bounds past the last completed one and ``resumed_from``
    is that bound (else ``None``).  The returned sink persists every
    checkpoint the engine emits -- rewritten against the job's *original*
    schedule, with the prior run's completed bounds and solver effort
    merged in, so a twice-interrupted job validates and resumes correctly
    on its third dispatch (the engine only ever sees trimmed schedules).
    """
    schedule = config.unwind_schedule
    if store is None or not token or not schedule:
        return config, None, None, 0
    prior = store.load(token, schedule)
    resumed_from = None
    skipped = 0
    if prior is not None:
        config = config.with_(unwind_schedule=prior.remaining())
        resumed_from = prior.completed[-1]
        skipped = len(prior.completed)
    prior_completed = prior.completed if prior is not None else ()
    prior_conflicts = prior.conflicts if prior is not None else 0
    prior_elapsed = prior.elapsed_s if prior is not None else 0.0

    def sink(cp) -> None:
        store.save(
            token,
            checkpoint_cls(
                schedule=tuple(schedule),
                completed=tuple(prior_completed) + tuple(cp.completed),
                conflicts=prior_conflicts + cp.conflicts,
                clauses_retained=cp.clauses_retained,
                elapsed_s=round(prior_elapsed + cp.elapsed_s, 6),
            ),
        )

    return config, sink, resumed_from, skipped


def _hit_memory_budget(payload: Dict) -> bool:
    """Did this job end as a memory-budget UNKNOWN?  The worker's heap is
    then bloated with an encoding CPython will not return to the OS."""
    result = payload.get("result")
    if not result or result.get("verdict") != "unknown":
        return False
    return result.get("stats", {}).get("budget_limit") == "memory"


class WorkerPool(pool.WorkerPool):
    """The service's pool: warm, recycled workers running :func:`run_job`."""

    def __init__(
        self,
        size: Optional[int] = None,
        recycle_after: int = 64,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        super().__init__(
            functools.partial(run_job, checkpoint_dir),
            size or _DEFAULT_SIZE,
            recycle_after=recycle_after,
        )
