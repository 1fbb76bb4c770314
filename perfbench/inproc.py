"""The in-process workloads: ``svcomp``, ``nidhugg`` and ``python``.

Each task goes through ``repro.api`` (the users' front door) in this
process, serially; every UNSAFE verdict is backed by its evidence before
the next task starts.  A run repeats whole passes over the seeded task
order, so every run sees the same task mix whatever its length.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from perfbench.reference import reference_time
from perfbench.tracing import Tracer

#: Counters read from the public ``result.stats`` (metric -> stats key).
#: They are exact, so the plain and the traced pass must agree on them.
STAT_COUNTERS = {
    "sat.conflicts": "conflicts",
    "sat.decisions": "decisions",
    "sat.propagations": "propagations",
    "sat.watcher_visits": "watcher_visits",
    "sat.heap_ops": "heap_ops",
    "sat.restarts": "restarts",
    "sat.theory_conflicts": "theory_conflicts",
    "ordering.conflict_clauses": "theory_conflict_clauses",
    "ordering.unit_propagations": "theory_unit_propagations",
    "ordering.fr_derived": "theory_fr_derived",
    "ordering.icd_reorders": "theory_icd_reorders",
    "ordering.icd_fast_path": "theory_icd_fast_path",
    "ordering.edges_activated": "theory_edges_activated",
    "encoding.sat_vars": "sat_vars",
    "encoding.rf_vars": "rf_vars",
    "encoding.ws_vars": "ws_vars",
    "encoding.fr_vars": "fr_vars",
    "analysis.pairs_total": "analysis_pairs_total",
    "analysis.pairs_pruned": "analysis_pairs_pruned",
}

#: Counters only the traced run's wrappers see.
TRACE_COUNTERS = ("frontend.events", "ordering.assign_calls")


@dataclass
class Job:
    """One task: how to verify it and how to back an UNSAFE verdict."""

    name: str
    expected_safe: bool
    verify: Callable  # () -> (result, translation or None)
    replay: Callable  # (result, translation) -> bool
    confirm: Optional[Callable] = None  # (result, translation) -> ConfirmResult


@dataclass
class PassRecord:
    """What one pass over the task list measured."""

    #: Time spent in the jobs (evidence included).
    wall_s: float = 0.0
    #: Per task, in run order: the time to its verdict, the whole job's
    #: time, and the reference loop's time just before it.
    verdict_s: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    ref_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wrong verdicts and evidence that does not hold.
    errors: List[str] = field(default_factory=list)
    #: Per task: the exact counters of :data:`STAT_COUNTERS` (and, when
    #: traced, :data:`TRACE_COUNTERS`).
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    analysis_s: float = 0.0
    self_s: Dict[str, float] = field(default_factory=dict)
    confirm_trials: List[int] = field(default_factory=list)
    guided_hits: int = 0


# ----------------------------------------------------------------------
# Task lists
# ----------------------------------------------------------------------

def _mini_jobs(tasks) -> List[Job]:
    from repro import api
    from repro.smc.witness_replay import replay_witness
    from repro.verify import VerifierConfig

    jobs = []
    for task in tasks:
        config = VerifierConfig.zord(unwind=task.unwind)

        def verify(task=task, config=config):
            return api.verify(task.source, config), None

        def replay(result, _translation, task=task, config=config):
            return replay_witness(
                task.source, result.witness,
                width=config.width, unwind=config.unwind,
            )

        jobs.append(Job(task.name, task.expected_safe, verify, replay))
    return jobs


def svcomp_jobs() -> List[Job]:
    from repro.bench import svcomp_suite

    return _mini_jobs(svcomp_suite(scale=1))


def nidhugg_jobs() -> List[Job]:
    from repro.bench import nidhugg_suite

    return _mini_jobs(nidhugg_suite())


def python_corpus(root: str) -> Dict[str, str]:
    """``{path: "safe" | "unsafe"}`` from the corpus manifest kept next
    to the corpus test (the single source of expected verdicts)."""
    import importlib.util

    manifest = os.path.join(root, "tests", "pyfront", "corpus.py")
    spec = importlib.util.spec_from_file_location("corpus_manifest", manifest)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    corpus_dir = os.path.join(root, "examples", "python")
    on_disk = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".py"))
    if on_disk != sorted(module.EXPECTED):
        raise SystemExit("examples/python and its manifest disagree")
    return {
        os.path.join(corpus_dir, name): verdict
        for name, verdict in sorted(module.EXPECTED.items())
    }


def python_jobs(root: str) -> List[Job]:
    """The corpus test's procedure: translate, verify, then replay and
    concretely confirm every UNSAFE (``trials=120, seed=0``)."""
    from repro import api
    from repro.pyfront.dynexec import confirm
    from repro.smc.witness_replay import replay_witness

    jobs = []
    for path, verdict in python_corpus(root).items():

        def verify(path=path):
            return api.verify_python(path=path)

        def replay(result, translation):
            return replay_witness(
                translation.program, result.witness, width=8, unwind=8
            )

        def confirm_unsafe(result, translation):
            return confirm(translation, witness=result.witness, trials=120, seed=0)

        jobs.append(
            Job(os.path.basename(path), verdict == "safe", verify, replay,
                confirm_unsafe)
        )
    return jobs


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def run_job(job: Job, record: PassRecord, tracer: Optional[Tracer]) -> None:
    from repro.verify import Verdict

    clock = time.perf_counter
    before = dict(tracer.counts) if tracer is not None else {}
    start = clock()
    result, translation = job.verify()
    record.verdict_s.append(clock() - start)
    record.attempted += 1
    expected = Verdict.SAFE if job.expected_safe else Verdict.UNSAFE
    stats = result.stats
    counts = {m: int(stats.get(k, 0)) for m, k in STAT_COUNTERS.items()}
    record.analysis_s += float(stats.get("analysis_time_s", 0.0))
    if result.verdict != expected:
        record.failed += 1
        if result.verdict in (Verdict.SAFE, Verdict.UNSAFE):
            record.errors.append(
                f"{job.name}: wrong verdict {result.verdict}, expected {expected}"
            )
    elif expected == Verdict.UNSAFE:
        call = tracer.call if tracer is not None else _plain_call
        if result.witness is None or not call(
            "smc", job.replay, result, translation
        ):
            record.failed += 1
            record.errors.append(f"{job.name}: witness does not replay")
        elif job.confirm is not None:
            outcome = call("pyfront.confirm", job.confirm, result, translation)
            if not outcome.confirmed:
                record.failed += 1
                record.errors.append(
                    f"{job.name}: not confirmed concretely in "
                    f"{outcome.trials_run} trials"
                )
            else:
                record.confirm_trials.append(outcome.trials_run)
                record.guided_hits += int(outcome.failing_trial == -1)
    if tracer is not None:
        for name in TRACE_COUNTERS:
            counts[name] = tracer.counts.get(name, 0) - before.get(name, 0)
    record.counts[job.name] = counts


def _plain_call(_layer, fn, *args):
    return fn(*args)


def _timed_job(job: Job, record: PassRecord, tracer: Optional[Tracer]) -> None:
    """A full collection first, outside the timed part: every task starts
    from the same heap, so neither its time nor the peak memory depends
    on the garbage its predecessors left behind."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        run_job(job, record, tracer)
    finally:
        record.job_s.append(time.perf_counter() - start)
        record.wall_s += record.job_s[-1]
        if tracer is not None:
            tracer.uninstall()


def run_pass(jobs: List[Job]) -> PassRecord:
    record = PassRecord()
    for job in jobs:
        record.ref_s.append(reference_time())
        _timed_job(job, record, None)
    return record


def run_paired_pass(jobs: List[Job], tracer: Tracer):
    """Each job plain and traced, back to back: the pair shares the
    machine's momentary speed, so the two totals give the tracing
    overhead even where the speed drifts between passes.  The order
    within the pair alternates, because a job's second run is faster."""
    plain, traced = PassRecord(), PassRecord()
    tracer.reset()
    for i, job in enumerate(jobs):
        pair = [(plain, None), (traced, tracer)]
        for record, t in pair if i % 2 == 0 else pair[::-1]:
            _timed_job(job, record, t)
    traced.self_s = dict(tracer.self_s)
    return plain, traced


def warm_up(jobs: List[Job]) -> None:
    """Finish lazy imports and first-use set-up before timing: one SAFE
    and one UNSAFE task, evidence included."""
    for want_safe in (True, False):
        job = next(j for j in jobs if j.expected_safe == want_safe)
        run_job(job, PassRecord(), None)


def seeded_order(jobs: List[Job], seed: int) -> List[Job]:
    order = list(jobs)
    random.Random(seed).shuffle(order)
    return order
