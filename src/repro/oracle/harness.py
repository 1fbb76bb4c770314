"""The differential fuzzing harness.

:func:`run_program` pushes one program through an engine matrix
(:mod:`repro.oracle.matrix`) and turns the outcomes into findings:

* **verdict mismatch** -- some sound engine says SAFE while another
  sound engine says UNSAFE.  UNKNOWN is never a mismatch (an exhausted
  budget indicts nobody), and ``sound_safe=False`` engines (lazy-cseq)
  cannot indict with a SAFE verdict.
* **bad witness** -- an UNSAFE verdict whose trace either fails to
  replay through the concrete interpreter
  (:func:`repro.smc.witness_replay.replay_witness` raises) or replays to
  an execution in which no assertion fails.  This is the *semantic*
  oracle: it catches the case where every engine is wrong in the same
  way about an UNSAFE program.
* **audit violation** -- an engine returned ERROR whose diagnostic is an
  :class:`~repro.oracle.audit.AuditError` (the crash guard contains it);
  an internal invariant of the SAT core or theory solver broke.
* **engine error** -- any other contained crash.

:func:`fuzz` drives the generator over a seed range, minimizes each
finding with the delta-debugging shrinker (predicate = "the same kind of
finding reproduces on the reduced program"), and returns a
:class:`~repro.oracle.report.FuzzReport`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lang import ast, parse
from repro.oracle.generator import GenConfig, generate_source
from repro.oracle.matrix import EngineSpec, build_matrix
from repro.oracle.report import EngineOutcome, Finding, FuzzReport
from repro.verify.result import Verdict
from repro.verify.witness import Trace

__all__ = ["run_program", "fuzz"]


def _run_spec(
    source: str,
    spec: EngineSpec,
    unwind: int,
    width: int,
    time_limit_s: Optional[float],
    audit: bool,
) -> Tuple[EngineOutcome, Optional[Trace]]:
    """Run one engine spec; never raises (crashes surface as ERROR).

    Routed through :func:`repro.api.verify`, so setting ``REPRO_SERVER``
    turns a fuzzing run into live traffic against a verification service
    (witnesses still replay: the wire format round-trips them).
    """
    from repro.api import verify

    t0 = time.monotonic()
    witness: Optional[Trace] = None
    if spec.portfolio:
        from repro.portfolio.runner import verify_portfolio

        configs = [
            EngineSpec(key=p, preset=p).make_config(
                unwind=unwind, width=width, time_limit_s=time_limit_s, audit=audit
            )
            for p in spec.portfolio
        ]
        res = verify_portfolio(source, configs, jobs=spec.jobs)
        verdict = res.verdict
        diagnostic = None if res.result is None else res.result.diagnostic
        if res.result is not None:
            witness = res.result.witness
    else:
        config = spec.make_config(
            unwind=unwind, width=width, time_limit_s=time_limit_s, audit=audit
        )
        result = verify(source, config)
        verdict = result.verdict
        diagnostic = result.diagnostic
        witness = result.witness
    return (
        EngineOutcome(
            key=spec.key,
            verdict=str(verdict),
            wall_s=round(time.monotonic() - t0, 6),
            diagnostic=diagnostic,
        ),
        witness,
    )


def _replay(
    program: ast.Program,
    outcome: EngineOutcome,
    witness: Optional[Trace],
    unwind: int,
    width: int,
) -> None:
    """Replay an UNSAFE witness through the concrete interpreter."""
    from repro.smc.witness_replay import ReplayError, replay_witness

    if witness is None or not isinstance(witness, Trace) or not witness.steps:
        return
    try:
        outcome.replay_ok = replay_witness(program, witness, width=width, unwind=unwind)
    except ReplayError as exc:
        outcome.replay_ok = False
        outcome.replay_error = str(exc)
    except Exception as exc:  # noqa: BLE001 - replay crash is itself a finding
        outcome.replay_ok = False
        outcome.replay_error = f"{type(exc).__name__}: {exc}"


def run_program(
    source: str,
    specs: Sequence[EngineSpec],
    unwind: int = 4,
    width: int = 8,
    time_limit_s: Optional[float] = 10.0,
    audit: bool = False,
    replay: bool = True,
    seed: Optional[int] = None,
) -> Tuple[List[EngineOutcome], List[Finding]]:
    """Run one program through every spec; return outcomes and findings."""
    program = parse(source)
    outcomes: List[EngineOutcome] = []
    findings: List[Finding] = []
    for spec in specs:
        outcome, witness = _run_spec(
            source, spec, unwind, width, time_limit_s, audit
        )
        if replay and outcome.verdict == Verdict.UNSAFE:
            _replay(program, outcome, witness, unwind, width)
        outcomes.append(outcome)

    for spec, outcome in zip(specs, outcomes):
        if outcome.verdict == Verdict.ERROR:
            kind = (
                "audit_violation"
                if "AuditError" in (outcome.diagnostic or "")
                else "engine_error"
            )
            findings.append(
                Finding(
                    kind=kind,
                    seed=seed,
                    source=source,
                    detail=f"{spec.key} crashed: {outcome.diagnostic}",
                    outcomes=outcomes,
                )
            )
        if outcome.replay_ok is False:
            why = outcome.replay_error or "witness replays but no assert fails"
            findings.append(
                Finding(
                    kind="bad_witness",
                    seed=seed,
                    source=source,
                    detail=f"{spec.key} UNSAFE witness rejected: {why}",
                    outcomes=outcomes,
                )
            )

    safe = [
        s.key
        for s, o in zip(specs, outcomes)
        if s.sound_safe and o.verdict == Verdict.SAFE
    ]
    unsafe = [
        s.key
        for s, o in zip(specs, outcomes)
        if s.sound_unsafe and o.verdict == Verdict.UNSAFE
    ]
    if safe and unsafe:
        findings.append(
            Finding(
                kind="verdict_mismatch",
                seed=seed,
                source=source,
                detail=f"SAFE({', '.join(safe)}) vs UNSAFE({', '.join(unsafe)})",
                outcomes=outcomes,
            )
        )
    return outcomes, findings


def _consensus(outcomes: Sequence[EngineOutcome]) -> str:
    verdicts = {o.verdict for o in outcomes}
    if Verdict.UNSAFE in verdicts:
        return Verdict.UNSAFE
    if verdicts == {Verdict.SAFE}:
        return Verdict.SAFE
    if Verdict.SAFE in verdicts:
        return Verdict.SAFE
    return Verdict.UNKNOWN


def _shrink_finding(
    finding: Finding,
    specs: Sequence[EngineSpec],
    unwind: int,
    width: int,
    time_limit_s: Optional[float],
    audit: bool,
    max_checks: int,
) -> None:
    """Minimize a finding in place: same finding kind must reproduce."""
    from repro.oracle.shrinker import shrink_source

    def still_fails(src: str) -> bool:
        try:
            _, fs = run_program(
                src,
                specs,
                unwind=unwind,
                width=width,
                time_limit_s=time_limit_s,
                audit=audit,
                seed=finding.seed,
            )
        except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
            return False
        return any(f.kind == finding.kind for f in fs)

    shrunk = shrink_source(finding.source, still_fails, max_checks=max_checks)
    if shrunk.strip() != finding.source.strip():
        finding.shrunk_source = shrunk


def fuzz(
    seeds: Union[int, Iterable[int]],
    matrix: Union[str, Sequence[EngineSpec]] = "quick",
    unwind: int = 4,
    width: int = 8,
    time_limit_s: Optional[float] = 10.0,
    audit: bool = False,
    replay: bool = True,
    shrink: bool = True,
    shrink_checks: int = 60,
    gen_config: Optional[GenConfig] = None,
    max_findings: Optional[int] = 25,
    progress: Optional[Callable[[int, FuzzReport], None]] = None,
) -> FuzzReport:
    """Differential-fuzz the engine matrix over a seed range.

    Args:
        seeds: an int ``n`` (seeds ``0..n-1``) or an explicit iterable.
        matrix: a matrix name (``quick``/``smt``/``full``) or spec list.
        audit: arm the invariant auditor in every engine run.
        shrink: minimize each finding's program via delta debugging.
        shrink_checks: predicate-evaluation budget per shrink (each check
            re-runs the whole matrix on the candidate).
        max_findings: stop early after this many findings (None = never).
        progress: optional callback ``(seed, report_so_far)``.
    """
    specs = build_matrix(matrix) if isinstance(matrix, str) else list(matrix)
    if isinstance(seeds, int):
        seeds = range(seeds)
    report = FuzzReport()
    t0 = time.monotonic()
    for seed in seeds:
        source = generate_source(seed, gen_config)
        outcomes, findings = run_program(
            source,
            specs,
            unwind=unwind,
            width=width,
            time_limit_s=time_limit_s,
            audit=audit,
            replay=replay,
            seed=seed,
        )
        report.seeds_run += 1
        report.engine_runs += len(outcomes)
        report.replays += sum(1 for o in outcomes if o.replay_ok is not None)
        consensus = _consensus(outcomes)
        if consensus == Verdict.UNSAFE:
            report.programs_unsafe += 1
        elif consensus == Verdict.SAFE:
            report.programs_safe += 1
        else:
            report.programs_unknown += 1
        if findings and shrink:
            for f in findings:
                _shrink_finding(
                    f, specs, unwind, width, time_limit_s, audit, shrink_checks
                )
        report.findings.extend(findings)
        if progress is not None:
            progress(seed, report)
        if max_findings is not None and len(report.findings) >= max_findings:
            break
    report.wall_s = time.monotonic() - t0
    return report
