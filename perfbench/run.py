"""The verification benchmark: one command, four workloads.

    python3 perfbench/run.py --workload svcomp --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs every task plain and traced, back to back, and reports
per-layer self times and exact counters instead.  The metric names and
units are those of ``BENCHMARK.json``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
every metric is also printed above it by name and unit.  A wrong verdict,
evidence that does not hold, or counters that differ between passes make
``correct`` false and the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("svcomp", "nidhugg", "service", "python")

#: The reported tail percentile per workload: the highest with at least
#: ten samples beyond it at the smallest sample count a run can have
#: (two passes of 100 svcomp tasks, of 27 nidhugg tasks, of 111 cold
#: misses; dozens of passes over 13 Python programs).
TAIL_PERCENTILE = {"svcomp": 95, "nidhugg": 80, "service": 95, "python": 95}

#: Set-up is timed this many times per run (fresh interpreters).
SETUP_REPEATS = 9

#: Modules the in-process pipeline imports on first use; set-up imports
#: them so that no timed task pays for an import.
PIPELINE_MODULES = (
    "repro.api", "repro.frontend.ssa", "repro.encoding.encoder",
    "repro.encoding.ppo", "repro.analysis.prune", "repro.verify.witness",
    "repro.smc.witness_replay",
)


def setup(workload: str):
    """Import the pipeline and generate the workload's inputs."""
    import importlib

    from perfbench import inproc

    for name in PIPELINE_MODULES:
        importlib.import_module(name)
    if workload == "svcomp":
        return inproc.svcomp_jobs()
    if workload == "nidhugg":
        return inproc.nidhugg_jobs()
    importlib.import_module("repro.pyfront.dynexec")
    return inproc.python_jobs(ROOT)


def time_setup(workload: str) -> list:
    """Wall time of :func:`setup` in fresh interpreters, at the reference
    speed."""
    from perfbench.reference import normalise, reference_time

    code = f"from perfbench.run import setup; setup({workload!r})"
    samples, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_time())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return normalise(samples, refs)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def time_metrics(verdict_s, job_s, tail: int) -> dict:
    """``tasks_per_s``, ``verdict_p50_s`` and ``verdict_tail_s`` from
    times at the reference speed (:mod:`perfbench.reference`)."""
    return {
        "tasks_per_s": len(job_s) / sum(job_s),
        "verdict_p50_s": statistics.median(verdict_s),
        "verdict_tail_s": percentile(verdict_s, tail),
    }


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

def run_plain(workload: str, seed: int, seconds: float):
    from perfbench import inproc
    from perfbench.reference import normalise

    setup_samples = time_setup(workload)
    jobs = setup(workload)
    inproc.warm_up(jobs)
    order = inproc.seeded_order(jobs, seed)
    passes = []
    elapsed = 0.0
    while elapsed < seconds or len(passes) < 2:
        passes.append(inproc.run_pass(order))
        elapsed += passes[-1].wall_s
    refs = [r for p in passes for r in p.ref_s]
    verdict_s = [t for p in passes for t in p.verdict_s]
    tail = TAIL_PERCENTILE[workload]
    print(f"{workload}: {len(passes)} passes of {len(order)} tasks, "
          f"{len(verdict_s)} verdict samples, tail = p{tail}; measured: "
          f"{sum(p.attempted for p in passes) / elapsed:.3f} tasks/s, "
          f"reference loop median {statistics.median(refs)} s")
    metrics = time_metrics(
        normalise(verdict_s, refs),
        normalise([t for p in passes for t in p.job_s], refs),
        tail,
    )
    metrics.update({
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return metrics, passes, []


def run_traced(workload: str, seed: int, seconds: float):
    """Paired passes over the same order, each task plain and traced back
    to back; the plain runs give the tracing overhead and the exact
    counters to match."""
    from perfbench import inproc
    from perfbench.tracing import Tracer

    jobs = setup(workload)
    inproc.warm_up(jobs)
    order = inproc.seeded_order(jobs, seed)
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        p, t = inproc.run_paired_pass(order, tracer)
        plain.append(p)
        traced.append(t)
    errors = counter_drift(plain, traced)

    def per_pass(layer: str) -> float:
        return statistics.median(p.self_s.get(layer, 0.0) for p in traced)

    ref = traced[0]
    counts = {m: sum(c[m] for c in ref.counts.values())
              for m in next(iter(ref.counts.values()))}
    analysis_s = statistics.median(p.analysis_s for p in traced)
    wall = statistics.median(p.wall_s for p in traced)
    overhead = sum(p.wall_s for p in traced) / sum(p.wall_s for p in plain) - 1
    unattributed = statistics.median(
        (p.wall_s - sum(p.self_s.values())) / p.wall_s for p in traced
    )
    unsafe_confirmed = ref.confirm_trials
    metrics = count_metrics(counts)
    metrics.update({
        "verify.self_s": per_pass("verify"),
        "lang.parse_s": per_pass("lang"),
        "frontend.ssa_s": per_pass("frontend"),
        "analysis.prune_s": analysis_s,
        "encoding.encode_s": per_pass("encoding") - analysis_s,
        "sat.solve_self_s": per_pass("sat"),
        "ordering.theory_s": per_pass("ordering"),
        "witness.extract_s": per_pass("witness"),
        "smc.replay_s": per_pass("smc"),
        "pyfront.translate_s": per_pass("pyfront.translate"),
        "pyfront.confirm_s": per_pass("pyfront.confirm"),
        "pyfront.confirm_trials": ratio(
            sum(unsafe_confirmed), len(unsafe_confirmed)
        ),
        "pyfront.guided_hit_ratio": ratio(
            ref.guided_hits, len(unsafe_confirmed)
        ),
        "trace.wall_s": wall,
        "trace.overhead_share": overhead,
        "trace.unattributed_share": unattributed,
    })
    print(f"{workload}: {len(traced)} paired plain/traced passes; "
          f"tracing overhead {overhead:+.1%}, unattributed {unattributed:.1%}"
          " of traced wall time")
    if unattributed > max(overhead, 0.0):
        print(f"{workload}: warning: layer self times leave more of the "
              "traced wall time unattributed than the tracing overhead",
              file=sys.stderr)
    return metrics, plain + traced, errors


def counter_drift(plain, traced) -> list:
    """Exact counters must repeat: ``result.stats`` counters across every
    pass, wrapper-only counters across the traced passes."""
    from perfbench.inproc import STAT_COUNTERS, TRACE_COUNTERS

    errors = []
    ref = traced[0].counts
    for i, p in enumerate(plain + traced[1:]):
        names = STAT_COUNTERS if i < len(plain) else tuple(STAT_COUNTERS) + TRACE_COUNTERS
        for task, counts in p.counts.items():
            for name in names:
                if counts[name] != ref[task][name]:
                    errors.append(
                        f"counter drift: {task} {name} "
                        f"{counts[name]} != {ref[task][name]}"
                    )
    return errors


def count_metrics(counts: dict) -> dict:
    """Per-pass counter sums, and the ratios derived from them."""
    out = dict(counts)
    out.update({
        "analysis.pruned_ratio": ratio(
            counts["analysis.pairs_pruned"], counts["analysis.pairs_total"]
        ),
        "sat.visits_per_propagation": ratio(
            counts["sat.watcher_visits"], counts["sat.propagations"]
        ),
        "ordering.icd_fast_path_ratio": ratio(
            counts["ordering.icd_fast_path"], counts["ordering.edges_activated"]
        ),
        "ordering.theory_conflict_share": ratio(
            counts["sat.theory_conflicts"], counts["sat.conflicts"]
        ),
    })
    return out


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------

def run_service(seed: int, seconds: float, trace: bool):
    from perfbench import service

    from perfbench.reference import normalise

    run_ = service.run(ROOT, seed, seconds)
    latency_s = normalise(run_.latency_s, run_.ref_s)
    misses = [t for t, missed in zip(latency_s, run_.missed) if missed]
    tail = TAIL_PERCENTILE["service"]
    print(f"service: {run_.passes} passes, {run_.requests} requests, "
          f"{len(misses)} misses, {len(run_.hit_latency_s)} hits, "
          f"miss tail = p{tail}; measured: "
          f"{run_.requests / run_.elapsed_s:.3f} requests/s, "
          f"reference loop median {statistics.median(run_.ref_s)} s, "
          f"cached_p50_s = {service._median(run_.hit_latency_s)} s")
    if trace:
        from perfbench.inproc import STAT_COUNTERS

        results = run_.first_result.values()
        counts = {
            m: sum(int(r.stats.get(k, 0)) for r in results)
            for m, k in STAT_COUNTERS.items()
        }
        metrics = count_metrics(counts)
        metrics.update(service.layer_metrics(run_))
    else:
        metrics = time_metrics(misses, latency_s, tail)
        metrics.update({
            "setup_s": statistics.median(run_.setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN
            ).ru_maxrss / 1024,
        })
    return metrics, run_


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    # A controlled, cold, in-process pipeline: no service routing, no
    # persistent cache, no fault injection or knob overrides.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    paths = [ROOT, SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [ROOT, SRC]

    if args.workload == "service":
        metrics, run_ = run_service(args.seed, args.seconds, bool(args.trace))
        attempted, failed, errors = run_.requests, run_.failed, run_.errors
    else:
        runner = run_traced if args.trace else run_plain
        metrics, passes, errors = runner(args.workload, args.seed, args.seconds)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        errors = errors + [e for p in passes for e in p.errors]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        # A layer that does not run on this workload reports 0.
        metrics = {name: metrics.get(name, 0) for name in units}
    failed_share = failed / attempted
    print(f"{args.workload}: failed_share = {failed_share:.6f} "
          f"({failed} of {attempted})")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    for error in dict.fromkeys(errors):
        print(f"error: {error}", file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
