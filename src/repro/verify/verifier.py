"""The top-level verifier: parse → unroll/SSA → engine → verdict, under
resource governance.

Engine selection goes through the table in :mod:`repro.verify.registry`:
``config.engine`` names a row whose runner module is imported on first
use; the SMT engine resolves its ordering theory (``"ord"`` / ``"idl"``)
through the table's theory column the same way.

Every run is resource-governed (:mod:`repro.robustness`): a
:class:`~repro.robustness.budget.Budget` is created once per
:func:`verify` call and cooperatively checked in every pipeline layer;
engine execution is wrapped in the crash guard, so budget exhaustion
comes back as a structured ``UNKNOWN`` (phase + limit + partial stats)
and an engine crash as an ``ERROR`` result with a captured diagnostic --
never an uncaught exception.  ``config.fallbacks`` chains additional
presets that are retried, within the same deadline, when an attempt is
not conclusive.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict
from typing import Optional, Union

from repro.analysis.prune import build_prune_plan
from repro.encoding.encoder import encode_program
from repro.frontend import build_symbolic_program
from repro.lang import ast, parse
from repro.robustness import active_budget, checkpoint
from repro.oracle.audit import audit_scope
from repro.robustness.budget import Budget, BudgetExceeded
from repro.robustness.fallback import Attempt, resolve_chain
from repro.robustness.guard import run_guarded
from repro.sat import SolveResult
from repro.sat import sharing as _sharing
from repro.verify import registry
from repro.verify.config import VerifierConfig
from repro.verify.result import Verdict, VerificationResult
from repro.verify.telemetry import (
    Spans,
    TraceWriter,
    attach_telemetry,
    normalize_stats,
)
from repro.verify.witness import extract_trace

__all__ = ["verify_one", "run_smt_engine", "encode_ord"]

_CONCLUSIVE = (Verdict.SAFE, Verdict.UNSAFE)
_VERDICT = {
    SolveResult.SAT: Verdict.UNSAFE,
    SolveResult.UNSAT: Verdict.SAFE,
}


def verify_one(
    program: Union[str, ast.Program],
    config: Optional[VerifierConfig] = None,
    measure_memory: bool = False,
) -> VerificationResult:
    """Verify ``program`` within the bounds under the configured engine.

    Args:
        program: source text or a parsed AST.  Parse/semantic errors raise
            (they are input errors, not engine failures).
        config: engine/ablation selection (see :class:`VerifierConfig`);
            defaults to the Zord preset.
        measure_memory: trace peak allocation (slower; used by the
            benchmark harness for the paper's memory columns).

    Returns:
        A :class:`VerificationResult`; ``verdict`` is ``SAFE`` if no
        assertion can be violated within the unrolling bound, ``UNSAFE``
        (with a witness trace where the engine produces one) otherwise,
        ``UNKNOWN`` on budget exhaustion (``stats`` then carries
        ``budget_limit`` / ``budget_phase``), or ``ERROR`` when the
        engine crashed (``diagnostic`` carries the captured summary).
        ``stats`` is normalized: the canonical counters of
        :data:`repro.verify.telemetry.STAT_KEYS` are always present.
        When ``config.fallbacks`` is set, ``attempts`` records every
        attempt of the chain.
    """
    if config is None:
        config = VerifierConfig()
    if isinstance(program, str):
        program = parse(program)
    # Semantic errors are input errors, not engine failures: check before
    # entering the crash-contained attempt chain so they raise.
    from repro.lang.sema import check_program

    check_program(program)
    chain = resolve_chain(config)
    # Engine and theory modules are imported on first use: resolve every
    # link's runner (and an SMT link's theory encoder) before the budget's
    # clock starts, so no deadline is spent on an import the result's
    # wall time does not show.
    runners = {}
    for cfg, _ in chain:
        if cfg is not None:
            runners[cfg.engine] = registry.resolve_engine(cfg.engine)
            if registry.ENGINES[cfg.engine].theories:
                registry.resolve_theory(cfg.theory)
    budget = Budget.from_config(config)
    attempts = []
    result: Optional[VerificationResult] = None
    with active_budget(budget):
        for i, (cfg, skipped) in enumerate(chain):
            if cfg is None:
                attempts.append(skipped)
                continue
            if i > 0 and config.trace_jsonl:
                cfg = cfg.with_(
                    trace_jsonl=f"{config.trace_jsonl}.fallback{i}-{cfg.name}"
                )
            result = _verify_attempt(
                program, cfg, runners[cfg.engine], measure_memory, budget
            )
            if result.verdict in _CONCLUSIVE:
                status = "conclusive"
            elif result.verdict == Verdict.ERROR:
                status = "error"
            else:
                status = "unknown"
            attempts.append(
                Attempt(
                    cfg.name, cfg.engine, status, result.verdict,
                    result.wall_time_s, reason=result.diagnostic,
                )
            )
            if status == "conclusive":
                break
    assert result is not None  # the primary config is always runnable
    if len(chain) > 1:
        result.attempts = [a.as_dict() for a in attempts]
        result.stats["fallback_attempts"] = len(attempts)
    return result


def _verify_attempt(
    program: ast.Program,
    config: VerifierConfig,
    runner,
    measure_memory: bool,
    budget: Budget,
) -> VerificationResult:
    """One guarded engine execution (a single link of the fallback chain).
    The engine builds its solvers inside an :func:`audit_scope` of the
    config's resolved ``audit``."""
    writer = TraceWriter(config.trace_jsonl) if config.trace_jsonl else None
    start = time.monotonic()
    if writer is not None:
        writer.emit("verify_start", engine=config.engine, config=config.name)
    if measure_memory:
        tracemalloc.start()
    try:
        with audit_scope(config.audit):
            result = run_guarded(
                runner, program, config, telemetry=writer, budget=budget
            )
    finally:
        if measure_memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        else:
            peak = 0
    result.peak_memory_bytes = peak
    result.wall_time_s = time.monotonic() - start
    result.stats = normalize_stats(result.stats)
    result.trace_path = config.trace_jsonl
    if writer is not None:
        writer.emit(
            "verify_end",
            verdict=result.verdict,
            wall_time_s=round(result.wall_time_s, 6),
        )
        writer.close()
    return result


def run_smt_engine(
    program: ast.Program,
    config: VerifierConfig,
    telemetry: Optional[TraceWriter] = None,
) -> VerificationResult:
    """The DPLL(T) BMC engine: SSA, theory encode, CDCL solve, witness
    extraction.  The runner of engine ``"smt"``.

    With ``config.unwind_schedule`` set, one encoding is built at the
    maximum bound and solved once per scheduled bound under that bound's
    unwinding-assumption literal (iterative deepening): a bug reachable at
    a shallow bound is found without paying the deep search, and every
    deeper re-solve keeps the learned clauses, activities, phases and
    theory state of the shallower ones.
    """
    schedule = config.unwind_schedule
    spans = Spans(telemetry)
    try:
        with spans.span("frontend"):
            checkpoint("frontend")
            sym = build_symbolic_program(
                program,
                unwind=config.unwind,
                width=config.width,
                unwind_assumptions=bool(schedule),
            )
            checkpoint("frontend")

        encode = registry.resolve_theory(config.theory)
        # Children are read when their span closes, after the body ran.
        with spans.span(
            "encode", analysis=lambda: encoded.stats.analysis_time_s
        ):
            checkpoint("encode")
            encoded = encode(sym, config)
        attach_telemetry(encoded, telemetry)

        if encoded.trivially_safe:
            return VerificationResult(
                Verdict.SAFE, config.name, stats=spans.as_stats()
            )

        # Portfolio clause sharing: a worker attaches its channel
        # process-wide before verify() runs (configs stay picklable); pick
        # it up here.  A signed channel is only honored when this config
        # produces the same encoding the channel's clauses came from -- a
        # fallback preset running in the same process may encode the
        # program differently.
        share = _sharing.active_channel()
        if share is not None and share.signature is not None:
            from repro.portfolio.sharing import encoding_signature

            if share.signature != encoding_signature(config):
                share = None
        if share is not None:
            encoded.solver.share = share

        solver = encoded.solver
        with spans.span("solve", theory=lambda: solver.theory_s):
            if schedule:
                answer, bound_stats = _solve_schedule(encoded, config, telemetry)
            else:
                bound_stats = None
                answer = solver.solve()
        witness = None
        if answer == SolveResult.SAT:
            with spans.span("witness"):
                witness = extract_trace(encoded)
    except BudgetExceeded as exc:
        exc.partial_stats.update(spans.as_stats())
        raise

    stats = solver.stats.as_dict()
    if bound_stats is not None:
        stats["unwind_schedule"] = list(schedule)
        stats["bounds"] = bound_stats
    theory_stats = getattr(encoded.theory, "stats", None)
    if theory_stats is not None:
        stats.update({f"theory_{k}": v for k, v in theory_stats.as_dict().items()})
    stats.update(asdict(encoded.stats))
    stats.update(spans.as_stats())
    if solver.checker is not None:
        stats.update(solver.checker.as_stats())
    return VerificationResult(
        _VERDICT[answer], config.name, witness=witness, stats=stats
    )


def encode_ord(sym, config):
    """The ``"ord"`` theory's encoder: the paper's T_ord encoding under
    the config's ablation flags, pruned at ``config.prune_level``."""
    level = config.prune_level
    return encode_program(
        sym,
        detector=config.detector,
        unit_edge=config.unit_edge,
        fr_encoding=config.fr_encoding,
        max_conflict_clauses=config.max_conflict_clauses,
        memory_model=config.memory_model,
        prune_plan=build_prune_plan(sym, level) if level > 0 else None,
    )


def _solve_schedule(encoded, config, telemetry):
    """Iterative-deepening solve loop over ``config.unwind_schedule``.

    Each bound's unwinding assumption is an *assumption literal*, never a
    unit clause, so the single live solver serves every bound: SAT at a
    shallow bound is a real counterexample (the assumption excludes all
    truncated executions), and the final bound's query is exactly the
    one-shot problem, so an UNSAT sweep means SAFE.  There is no early
    SAFE exit below the maximum bound -- a shallow UNSAT only says no bug
    exists *within* that bound.  One shortcut is sound: an UNSAT whose
    core is empty was derived at decision level 0, i.e. without the
    assumptions, so the formula itself (a subset of the deepest problem)
    is UNSAT and the program is SAFE.

    After every completed (UNSAT, non-final) bound a
    :class:`~repro.verify.checkpoint.Checkpoint` is emitted to the
    process's installed checkpoint sink, if any -- the durable-progress
    hook the verification service uses for job resume (see
    :mod:`repro.verify.checkpoint`).

    Returns ``(final SolveResult, per-bound stats list)``.
    """
    from repro.encoding.encoder import add_unwind_bound
    from repro.verify.checkpoint import Checkpoint, emit_checkpoint

    solver = encoded.solver
    schedule = config.unwind_schedule
    start = time.monotonic()
    conflicts_base = solver.stats.conflicts
    per_bound = []
    completed = []
    answer = SolveResult.UNSAT
    for bound in schedule:
        u = add_unwind_bound(encoded, bound)
        if u is None and bound != schedule[-1]:
            # No loop frontier at this bound (loop-free program): the
            # bound imposes no restriction, so only the deepest solve
            # matters.
            continue
        t_bound = time.monotonic()
        answer = solver.solve(assumptions=[u] if u is not None else [])
        entry = {
            "bound": bound,
            "answer": answer,
            "wall_s": round(time.monotonic() - t_bound, 6),
            "conflicts": solver.stats.conflicts - conflicts_base,
            "clauses_retained": solver.stats.clauses_retained,
        }
        per_bound.append(entry)
        if telemetry is not None:
            telemetry.emit("bound", **entry)
        if answer != SolveResult.UNSAT:
            break
        completed.append(bound)
        if bound != schedule[-1]:
            emit_checkpoint(
                Checkpoint(
                    schedule=tuple(schedule),
                    completed=tuple(completed),
                    conflicts=solver.stats.conflicts - conflicts_base,
                    clauses_retained=solver.stats.clauses_retained,
                    elapsed_s=round(time.monotonic() - start, 6),
                )
            )
        if u is not None and not solver.unsat_core:
            # Root-level UNSAT: holds independent of the bound assumption.
            break
    return answer, per_bound
