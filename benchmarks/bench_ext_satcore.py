"""Extension benchmark: the flat-arena CDCL kernel's speed, and its
answers certified by the audit's proof checker.

Two records, written to ``out/BENCH_satcore*.json``:

* **speed** -- absolute best-of-3 times of the flat kernel on
  propagation-bound families (deep binary implication chains,
  incremental assumption re-solves, wide watcher fan-out) and two
  search-bound ones (core-extraction probes, random 3-SAT).  Nothing is
  gated: the frozen pre-rewrite core these times were once divided by
  is gone, and the last recorded ratios stay in ``docs/SATCORE.md``.
* **certification** -- every ``examples/`` program and a 200-seed
  generated-program sweep run through the full Zord pipeline (encoder +
  T_ord theory) with ``audit=True``: every SAFE must be certified by
  :mod:`repro.oracle.certify` (RUP of the refutation, every theory
  lemma a real cycle) and every UNSAFE model checked.
"""

import json
import random
import statistics
import time

import pytest
from conftest import write_output

from repro.sat import SolveResult, Solver


# ----------------------------------------------------------------------
# Workload families
# ----------------------------------------------------------------------


def _chain(cls, n):
    s = cls()
    for _ in range(n):
        s.new_var()
    for i in range(1, n):
        s.add_clause([-i, i + 1])
    return s


def fam_chain_once(cls):
    """Deep binary implication chain, one assumption-driven solve."""
    s = _chain(cls, 100_000)
    t0 = time.perf_counter()
    assert s.solve(assumptions=[1]) == SolveResult.SAT
    return time.perf_counter() - t0


def fam_chain_incremental(cls):
    """30 incremental re-solves of the same chain: propagation plus the
    backjump/heap churn of assumption-based incremental solving."""
    s = _chain(cls, 3_000)
    t0 = time.perf_counter()
    for _ in range(30):
        assert s.solve(assumptions=[1]) == SolveResult.SAT
    return time.perf_counter() - t0


def fam_fanout(cls):
    """Star implication: one literal watches 30k binary clauses -- a
    single very long watcher-list traversal per solve."""
    n = 30_000
    s = cls()
    for _ in range(n):
        s.new_var()
    for v in range(2, n + 1):
        s.add_clause([-1, v])
    t0 = time.perf_counter()
    for _ in range(10):
        assert s.solve(assumptions=[1]) == SolveResult.SAT
    return time.perf_counter() - t0


def fam_unsat_probe(cls):
    """Contradictory assumption probes: propagation to conflict plus
    final-conflict core extraction (reported, not gated)."""
    s = _chain(cls, 3_000)
    t0 = time.perf_counter()
    for _ in range(30):
        assert s.solve(assumptions=[1, -3_000]) == SolveResult.UNSAT
        assert sorted(s.unsat_core) == [-3_000, 1]
    return time.perf_counter() - t0


def fam_random_3sat(cls):
    """Near-threshold random 3-SAT: search-bound (reported, not gated)."""
    t0 = time.perf_counter()
    for seed in range(8):
        rng = random.Random(seed)
        nvars = 120
        s = cls()
        for _ in range(nvars):
            s.new_var()
        for _ in range(int(nvars * 4.26)):
            clause = []
            while len(clause) < 3:
                v = rng.randint(1, nvars)
                if v not in map(abs, clause):
                    clause.append(v if rng.random() < 0.5 else -v)
            s.add_clause(clause)
        assert s.solve() in (SolveResult.SAT, SolveResult.UNSAT)
    return time.perf_counter() - t0


PROPAGATION_BOUND = [
    ("chain", fam_chain_once),
    ("chain-incremental", fam_chain_incremental),
    ("fanout", fam_fanout),
]
REPORTED_ONLY = [
    ("unsat-probe", fam_unsat_probe),
    ("random-3sat", fam_random_3sat),
]


def _best_of(fn, cls, rounds=3):
    return min(fn(cls) for _ in range(rounds))


def test_flat_kernel_speed(benchmark):
    benchmark.pedantic(
        lambda: fam_chain_incremental(Solver), rounds=3, iterations=1
    )
    rows = [
        {
            "family": name,
            "flat_s": round(_best_of(fn, Solver), 4),
            "propagation_bound": (name, fn) in PROPAGATION_BOUND,
        }
        for name, fn in PROPAGATION_BOUND + REPORTED_ONLY
    ]
    record = {"benchmark": "satcore", "families": rows}
    write_output("BENCH_satcore.json", json.dumps(record, indent=2))


# ----------------------------------------------------------------------
# Certified verdicts
# ----------------------------------------------------------------------


def _verify_certified(source):
    """The audited verdict, and whether its evidence was checked: the
    refutation certified (SAFE) or the model checked (UNSAFE)."""
    import repro.sat.solver as solver_mod
    from repro.api import verify
    from repro.verify import Verdict, VerifierConfig

    solvers = []
    init = solver_mod.Solver.__init__

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        solvers.append(self)

    solver_mod.Solver.__init__ = recording_init
    try:
        result = verify(source, VerifierConfig(audit=True))
    finally:
        solver_mod.Solver.__init__ = init
    checkers = [s.checker for s in solvers if s.checker is not None]
    ok = all(s.audit for s in solvers)
    if result.verdict == Verdict.SAFE:
        # A program with no reachable assertion is SAFE before any solve.
        ok = ok and (not checkers or any(c.certified for c in checkers))
    else:
        ok = ok and result.verdict == Verdict.UNSAFE
        ok = ok and any(c.models for c in checkers)
    lemmas = sum(c.lemmas for c in checkers)
    return str(result.verdict), ok, lemmas


def test_certified_examples_and_sweep(benchmark):
    from pathlib import Path

    from repro.oracle.generator import generate_source

    examples_dir = Path(__file__).resolve().parent.parent / "examples" / "programs"
    examples = sorted(examples_dir.glob("*"))
    assert examples, "examples/programs/ missing"
    rows = []
    unchecked = []
    t0 = time.perf_counter()
    for path in examples:
        verdict, ok, lemmas = _verify_certified(path.read_text())
        rows.append({"task": path.name, "verdict": verdict, "checked": ok})
        if not ok:
            unchecked.append(path.name)
    n_seeds = 200
    checked = lemmas_total = 0
    for seed in range(n_seeds):
        verdict, ok, lemmas = _verify_certified(generate_source(seed))
        lemmas_total += lemmas
        if ok:
            checked += 1
        else:
            unchecked.append(f"seed-{seed}: {verdict}")
    benchmark.pedantic(
        lambda: _verify_certified(examples[0].read_text()), rounds=1, iterations=1
    )
    record = {
        "benchmark": "satcore-certified",
        "examples": rows,
        "sweep_seeds": n_seeds,
        "sweep_checked": checked,
        "sweep_lemmas_checked": lemmas_total,
        "unchecked": unchecked,
        "elapsed_s": round(time.perf_counter() - t0, 1),
    }
    write_output("BENCH_satcore_certified.json", json.dumps(record, indent=2))
    assert not unchecked, f"verdicts without checked evidence: {unchecked}"
    assert checked == n_seeds
