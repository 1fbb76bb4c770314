"""Command-line interface: ``repro-verify FILE [options]``, the Python
frontend ``repro verify-py FILE.py [options]``, the static race-report
mode ``repro analyze FILE [options]``, the differential fuzzing mode
``repro fuzz [options]``, and the verification daemon
``repro serve (--stdio | --tcp HOST:PORT) [options]``.

Exit codes: 0 = SAFE (or, for ``analyze``, no races; for ``fuzz``, no
findings; for ``serve``, clean shutdown), 10 = UNSAFE (or races
reported), 2 = UNKNOWN (budget exhausted), 1 = input/usage error,
contained engine crash (ERROR verdict), or ``fuzz`` findings, 3 =
``serve`` stopped by a drain signal (SIGTERM/SIGINT: new work shed,
in-flight jobs finished, journal fsynced).

With ``REPRO_SERVER=HOST:PORT`` set, single-engine ``repro-verify`` and
``repro verify-py`` runs are routed through a running daemon instead of
solving in-process (see :mod:`repro.api`).
The engine choices are derived from the preset
table in :mod:`repro.verify.config`, which is validated against the
engine table -- there is no second hand-maintained engine list here.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.verify import Verdict
from repro.verify.config import PRESETS, doubling_schedule

#: Verdict -> process exit code.  UNSAFE is distinct from SAFE so shell
#: pipelines and CI can branch on the verdict.
EXIT_SAFE = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
EXIT_UNSAFE = 10

_PRESETS = PRESETS  # single source of truth: the verify-layer preset table


def _exit_code(verdict: str) -> int:
    if verdict == Verdict.SAFE:
        return EXIT_SAFE
    if verdict == Verdict.UNSAFE:
        return EXIT_UNSAFE
    if verdict == Verdict.ERROR:
        return EXIT_ERROR
    return EXIT_UNKNOWN


def _verify_options() -> argparse.ArgumentParser:
    """The options ``repro-verify`` and ``repro verify-py`` share, as an
    argparse parent."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--engine",
        default="zord",
        choices=sorted(_PRESETS),
        help="verification engine preset (default: zord)",
    )
    parser.add_argument("--unwind", type=int, default=8, help="loop bound")
    parser.add_argument(
        "--unwind-max",
        type=int,
        default=None,
        metavar="N",
        help="iterative-deepening BMC: unroll to N but solve a doubling "
        "bound schedule 1,2,4,...,N incrementally (overrides --unwind; "
        "same verdict as one-shot at N, but shallow bugs are found "
        "without paying the deep search)",
    )
    parser.add_argument(
        "--unwind-schedule",
        metavar="B1,B2,...",
        default=None,
        help="explicit iterative-deepening bound schedule (normalized to "
        "end at the unwind bound); overrides the REPRO_UNWIND_SCHEDULE "
        "environment variable",
    )
    parser.add_argument("--width", type=int, default=8, help="integer bit-width")
    parser.add_argument(
        "--memory-model",
        default="sc",
        choices=("sc", "tso", "pso"),
        help="memory consistency model (weak models: SMT engines only)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="time budget in seconds"
    )
    parser.add_argument(
        "--max-conflicts",
        type=int,
        default=None,
        metavar="N",
        help="work budget: CDCL conflicts, or explored states / "
        "transitions for the non-SMT engines; exhaustion yields UNKNOWN",
    )
    parser.add_argument(
        "--memory-limit-mb",
        type=float,
        default=None,
        metavar="MB",
        help="resident-memory growth budget; exceeding it yields UNKNOWN",
    )
    parser.add_argument(
        "--fallback",
        action="append",
        default=None,
        metavar="PRESET",
        choices=sorted(_PRESETS),
        help="preset to fall back to when the primary engine is "
        "inconclusive or crashes (repeatable; tried in order, sharing "
        "one budget)",
    )
    parser.add_argument(
        "--prune",
        dest="prune_level",
        action="store_const",
        const=2,
        default=None,
        help="force static-analysis encoding pruning at full level "
        "(without either flag the REPRO_PRUNE env var decides, "
        "falling back to 2)",
    )
    parser.add_argument(
        "--no-prune",
        dest="prune_level",
        action="store_const",
        const=0,
        help="disable encoding pruning (soundness off-switch: verdicts "
        "are identical, the encoding just keeps every RF/WS variable)",
    )
    parser.add_argument(
        "--witness", action="store_true", help="print a counterexample trace"
    )
    parser.add_argument("--stats", action="store_true", help="print statistics")
    parser.add_argument(
        "--trace-jsonl",
        metavar="FILE",
        help="stream a JSONL telemetry event trace (portfolio runs write "
        "one file per engine, suffixed with the preset name)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        return _analyze(argv[1:])
    if argv and argv[0] == "verify-py":
        return _verify_py(argv[1:])
    if argv and argv[0] == "fuzz":
        return _fuzz(argv[1:])
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Verify a multi-threaded program under sequential "
        "consistency (PLDI'21 ordering-consistency reproduction).",
        parents=[_verify_options()],
    )
    parser.add_argument("file", help="program source file")
    parser.add_argument(
        "--portfolio",
        metavar="NAME,NAME,...",
        help="race a comma-separated portfolio of engine presets; the "
        "first conclusive verdict wins (overrides --engine)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for --portfolio (default: one per engine, "
        "capped at the CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--share-clauses",
        action="store_true",
        help="with --portfolio: exchange short learned clauses between "
        "engines that solve the identical encoding (verdict-preserving)",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the run with cProfile and write the dump to FILE "
        "(inspect with: python -m pstats FILE); the per-layer split "
        "(time_*_s) is printed by --stats",
    )
    parser.add_argument(
        "--dump-smt2",
        metavar="FILE",
        help="write the encoding as an SMT-LIB 2 script and exit",
    )
    parser.add_argument(
        "--dump-dimacs",
        metavar="FILE",
        help="write the bit-blasted CNF as DIMACS and exit",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.lang.sema import SemanticError

    def _dispatch() -> int:
        if args.dump_smt2 or args.dump_dimacs:
            return _dump(source, args)
        if args.portfolio is not None:
            return _verify_portfolio(source, args)
        return _verify(source, args)

    try:
        if args.profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                code = _dispatch()
            finally:
                profiler.disable()
                profiler.dump_stats(args.profile)
                print(f"wrote profile to {args.profile}", file=sys.stderr)
            return code
        return _dispatch()
    except (LexError, ParseError, SemanticError) as exc:
        print(f"{args.file}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _config_kwargs(args) -> dict:
    unwind = args.unwind
    schedule = None  # None = let REPRO_UNWIND_SCHEDULE decide
    if args.unwind_max is not None:
        unwind = args.unwind_max
        schedule = doubling_schedule(unwind)
    if args.unwind_schedule is not None:
        try:
            schedule = tuple(
                int(p) for p in args.unwind_schedule.split(",") if p.strip()
            )
        except ValueError:
            raise SystemExit(
                f"error: --unwind-schedule expects a comma-separated list "
                f"of integers, got {args.unwind_schedule!r}"
            )
    return dict(
        unwind=unwind,
        width=args.width,
        time_limit_s=args.timeout,
        max_conflicts=args.max_conflicts,
        memory_limit_mb=args.memory_limit_mb,
        memory_model=args.memory_model,
        prune_level=args.prune_level,
        unwind_schedule=schedule,
    )


def _print_result_details(result, args, witness_lines=None) -> None:
    """Print what ``args`` asks for beyond the verdict line.
    ``witness_lines(witness)`` renders the witness as printable lines
    (default: the trace itself)."""
    if result.diagnostic:
        print(f"  diagnostic: {result.diagnostic}")
    for attempt in result.attempts:
        print(
            f"  attempt {attempt['config_name']} ({attempt['engine']}): "
            f"{attempt['status']} in {attempt['wall_time_s']:.3f}s"
        )
    if args.witness and result.witness is not None:
        if witness_lines is None:
            print(result.witness)
        else:
            for line in witness_lines(result.witness):
                print(line)
    if args.witness and result.schedule:
        print("violating schedule:")
        for i, step in enumerate(result.schedule):
            print(f"  {i:3d}: {step}")
    if args.stats:
        for key in sorted(result.stats):
            print(f"  {key}: {result.stats[key]}")


def _verify(source: str, args) -> int:
    from repro.api import verify

    config = _PRESETS[args.engine](
        trace_jsonl=args.trace_jsonl,
        fallbacks=tuple(args.fallback or ()),
        **_config_kwargs(args),
    )
    result = verify(source, config)
    print(f"verdict: {result.verdict.upper()}  ({result.wall_time_s:.3f}s)")
    _print_result_details(result, args)
    return _exit_code(result.verdict)


def _verify_portfolio(source: str, args) -> int:
    from repro.portfolio import verify_portfolio

    names = [n.strip() for n in args.portfolio.split(",") if n.strip()]
    unknown = [n for n in names if n not in _PRESETS]
    if unknown:
        print(
            f"error: unknown preset(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(_PRESETS))}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    if not names:
        print("error: --portfolio needs at least one preset", file=sys.stderr)
        return EXIT_ERROR
    configs = []
    for name in names:
        trace = f"{args.trace_jsonl}.{name}" if args.trace_jsonl else None
        configs.append(
            _PRESETS[name](trace_jsonl=trace, **_config_kwargs(args))
        )
    jobs = args.jobs or min(len(configs), os.cpu_count() or 1)
    outcome = verify_portfolio(
        source, configs, jobs=jobs, share_clauses=args.share_clauses
    )
    print(
        f"verdict: {outcome.verdict.upper()}  "
        f"({outcome.wall_time_s:.3f}s, winner: {outcome.winner or '-'})"
    )
    if args.share_clauses:
        print(f"  shared clauses: {outcome.shared_clauses}")
    for run in outcome.runs:
        print(
            f"  {run.config_name:<14} {run.status:<11} "
            f"{(run.verdict or '-').upper():<8} {run.wall_time_s:.3f}s"
        )
    if outcome.result is not None:
        _print_result_details(outcome.result, args)
    return _exit_code(outcome.verdict)


def _verify_py(argv: List[str]) -> int:
    """``repro verify-py FILE.py``: the Python ``threading`` frontend."""
    parser = argparse.ArgumentParser(
        prog="repro verify-py",
        description="Verify a Python threading program: translate the "
        "supported subset onto the mini language (precise file:line:col "
        "rejection outside it), verify through the normal pipeline "
        "(REPRO_SERVER routing and the verdict cache apply), and "
        "confirm UNSAFE verdicts two ways -- symbolic witness replay "
        "plus concrete execution of the original file under a "
        "randomized/witness-guided scheduler.",
        parents=[_verify_options()],
    )
    parser.add_argument("file", help="Python source file")
    parser.add_argument(
        "--no-confirm", action="store_true",
        help="skip the two-way UNSAFE confirmation (symbolic replay + "
        "concrete randomized-scheduler execution)",
    )
    parser.add_argument(
        "--confirm-trials", type=int, default=50, metavar="N",
        help="randomized concrete executions to attempt after the "
        "witness-guided one (default: 50)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the randomized scheduler (default: 0)",
    )
    args = parser.parse_args(argv)

    from repro.api import verify
    from repro.pyfront import SubsetError, translate_file

    try:
        translation = translate_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SubsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    kwargs = _config_kwargs(args)
    config = _PRESETS[args.engine](
        trace_jsonl=args.trace_jsonl,
        fallbacks=tuple(args.fallback or ()),
        **kwargs,
    )
    result = verify(translation.program, config)
    print(f"verdict: {result.verdict.upper()}  ({result.wall_time_s:.3f}s)")
    unwind = kwargs["unwind"]

    def python_lines(witness):
        from repro.pyfront.witness import witness_python_lines

        return witness_python_lines(
            translation, witness, unwind=unwind, width=args.width
        )

    _print_result_details(result, args, witness_lines=python_lines)

    if (
        result.verdict == Verdict.UNSAFE
        and result.witness is not None
        and not args.no_confirm
    ):
        from repro.pyfront.dynexec import confirm
        from repro.smc.witness_replay import ReplayError, replay_witness

        try:
            replayed = replay_witness(
                translation.program, result.witness,
                width=args.width, unwind=unwind,
            )
            print(f"  symbolic replay: {'ok' if replayed else 'FAILED'}")
        except ReplayError as exc:
            print(f"  symbolic replay: FAILED ({exc})")
        outcome = confirm(
            translation,
            witness=result.witness,
            trials=args.confirm_trials,
            seed=args.seed,
        )
        if outcome.confirmed:
            which = (
                "witness-guided"
                if outcome.failing_trial == -1
                else f"randomized trial {outcome.failing_trial}"
            )
            where = (
                f" at {args.file}:{outcome.outcome.line}"
                if outcome.outcome.line
                else ""
            )
            print(
                f"  concrete execution: CONFIRMED ({which}, "
                f"{outcome.outcome.error}{where})"
            )
        else:
            print(
                f"  concrete execution: not reproduced in "
                f"{outcome.trials_run} trials (the schedule space is "
                "sampled; the symbolic witness stands)"
            )
        for problem in outcome.problems:
            print(f"    note: {problem}")
    return _exit_code(result.verdict)


def _analyze(argv: List[str]) -> int:
    """``repro analyze FILE``: static race report, no solver involved."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Statically classify every conflicting access pair "
        "(MHP + lockset analysis) and report candidate data races with "
        "source locations.",
    )
    parser.add_argument("file", help="program source file")
    parser.add_argument("--unwind", type=int, default=8, help="loop bound")
    parser.add_argument("--width", type=int, default=8, help="integer bit-width")
    args = parser.parse_args(argv)

    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    from repro.analysis import analyze_program, render_report
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.lang.sema import SemanticError

    try:
        report = analyze_program(source, unwind=args.unwind, width=args.width)
    except (LexError, ParseError, SemanticError) as exc:
        print(f"{args.file}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(render_report(report, filename=args.file))
    return EXIT_UNSAFE if report.has_races else EXIT_SAFE


def _fuzz(argv: List[str]) -> int:
    """``repro fuzz``: differential fuzzing of the engine matrix."""
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Generate seeded random concurrent programs and "
        "differential-test an engine matrix on them: any verdict "
        "disagreement between sound engines, non-replaying UNSAFE "
        "witness, invariant-audit violation or engine crash is reported "
        "as a finding.",
    )
    parser.add_argument(
        "--seeds",
        default="100",
        metavar="N|LO:HI",
        help="seed count N (seeds 0..N-1) or an explicit LO:HI range "
        "(default: 100)",
    )
    parser.add_argument(
        "--matrix",
        default="quick",
        choices=["quick", "smt", "full"],
        help="engine matrix: quick (zord/tarjan/cbmc), smt (every DPLL(T) "
        "ablation x prune x schedule), full (+ baselines, SMC engines and "
        "portfolios) (default: quick)",
    )
    parser.add_argument("--unwind", type=int, default=4, help="loop bound")
    parser.add_argument("--width", type=int, default=8, help="integer bit-width")
    parser.add_argument(
        "--time-limit",
        type=float,
        default=10.0,
        metavar="S",
        help="per-engine-run budget in seconds (default: 10)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="arm the internal invariant auditor (repro.oracle.audit) in "
        "every engine run",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip concrete replay of UNSAFE witnesses",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report findings without delta-debugging minimization",
    )
    parser.add_argument(
        "--max-findings",
        type=int,
        default=25,
        metavar="N",
        help="stop after N findings (default: 25)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write findings (+ summary) as JSONL to FILE",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-seed progress"
    )
    parser.add_argument(
        "--pycheck",
        action="store_true",
        help="run the pyfront translator cross-check instead: generate "
        "Python-expressible programs, emit them as Python, translate "
        "them back, and require verdict equality with the direct run",
    )
    args = parser.parse_args(argv)

    if ":" in args.seeds:
        lo, hi = args.seeds.split(":", 1)
        seeds = range(int(lo), int(hi))
    else:
        seeds = range(int(args.seeds))

    if args.pycheck:
        from repro.oracle.pycheck import crosscheck
        from repro.verify import VerifierConfig

        def py_progress(seed: int, report) -> None:
            if not args.quiet and report.seeds_run % 50 == 0:
                print(
                    f"  ... {report.seeds_run} seeds, "
                    f"{len(report.findings)} findings",
                    file=sys.stderr,
                )

        report = crosscheck(
            seeds,
            config=VerifierConfig(
                unwind=args.unwind, width=args.width,
                time_limit_s=args.time_limit,
            ),
            max_findings=args.max_findings,
            progress=py_progress,
        )
        print(report.format())
        return EXIT_SAFE if report.ok else EXIT_ERROR

    from repro.oracle.harness import fuzz

    def progress(seed: int, report) -> None:
        if not args.quiet and report.seeds_run % 50 == 0:
            print(
                f"  ... {report.seeds_run} programs, "
                f"{len(report.findings)} findings",
                file=sys.stderr,
            )

    report = fuzz(
        seeds,
        matrix=args.matrix,
        unwind=args.unwind,
        width=args.width,
        time_limit_s=args.time_limit,
        audit=args.audit,
        replay=not args.no_replay,
        shrink=not args.no_shrink,
        max_findings=args.max_findings,
        progress=progress,
    )
    if args.out:
        report.write_jsonl(args.out)
    print(report.format())
    return EXIT_SAFE if report.ok else EXIT_ERROR


def _serve(argv: List[str]) -> int:
    """``repro serve``: the long-lived verification daemon."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the verification service: warm recycled worker "
        "processes behind a content-addressed verdict cache, speaking "
        "newline-delimited JSON (see docs/SERVICE.md).",
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve requests from stdin, answers on stdout (one JSON "
        "object per line); exits at EOF",
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="listen for JSON-lines connections on HOST:PORT",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: half the CPUs, capped at 4)",
    )
    parser.add_argument(
        "--recycle-after",
        type=int,
        default=64,
        metavar="N",
        help="retire and replace a worker after N jobs (default: 64); "
        "memory-budget UNKNOWNs always recycle immediately",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admission cap: with N jobs queued or running, new jobs are "
        "shed as UNKNOWN/overloaded instead of waiting (default: 64)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="verdict cache capacity in entries, LRU-evicted (default: "
        "1024)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="S",
        help="default per-request deadline in seconds, applied when the "
        "request carries neither a deadline nor a config time limit",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the verdict cache (crash-safe journal) and job "
        "checkpoints under DIR; entries survive restarts (default: "
        "$REPRO_CACHE_DIR, else in-memory only)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="on SIGTERM/SIGINT: shed new work, give in-flight jobs up "
        "to S seconds, fsync the journal, exit with code 3 (default: 10)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log lifecycle events to stderr",
    )
    args = parser.parse_args(argv)
    if args.stdio == bool(args.tcp):
        print(
            "error: pick exactly one transport: --stdio or --tcp HOST:PORT",
            file=sys.stderr,
        )
        return EXIT_ERROR

    from repro.service import ServiceServer

    cache_dir = args.cache_dir
    if cache_dir is None:
        from repro.verify.config import env_knob

        cache_dir = env_knob("REPRO_CACHE_DIR")

    try:
        server = ServiceServer(
            workers=args.workers,
            recycle_after=args.recycle_after,
            max_queue=args.max_queue,
            cache_size=args.cache_size,
            default_time_limit_s=args.time_limit,
            verbose=args.verbose,
            cache_dir=cache_dir,
            drain_timeout_s=args.drain_timeout,
        )
        return server.run(stdio=args.stdio, tcp=args.tcp)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dump(source: str, args) -> int:
    from repro.encoding.encoder import encode_program
    from repro.encoding.export import to_dimacs, to_smtlib
    from repro.frontend import build_symbolic_program
    from repro.lang import parse as parse_program

    sym = build_symbolic_program(
        parse_program(source), unwind=args.unwind, width=args.width
    )
    if args.dump_smt2:
        with open(args.dump_smt2, "w") as f:
            f.write(to_smtlib(sym))
        print(f"wrote {args.dump_smt2}")
    if args.dump_dimacs:
        encoded = encode_program(sym, memory_model=args.memory_model)
        with open(args.dump_dimacs, "w") as f:
            f.write(to_dimacs(encoded))
        print(f"wrote {args.dump_dimacs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
