"""Shared experiment fixtures for the benchmark suite.

Each paper table/figure has its own ``bench_*.py`` file; expensive engine
grids are computed once per session here and shared.  Rendered tables are
written to ``benchmarks/out/`` and printed (visible with ``-s`` /
``--capture=no``).

With ``REPRO_SERVER=HOST:PORT`` pointing at a running ``repro serve``
daemon, every serial task the harness runs is routed through the service
(see :mod:`repro.api`), turning the bench suites into service traffic
generators: repeat runs answer from the verdict cache, and the daemon's
``stats`` op reports the hit rate.  ``benchmarks/bench_ext_service.py``
measures the service itself (spawning its own private daemon).
"""

from __future__ import annotations

import os

import pytest

from repro.bench import nidhugg_suite, run_suite, svcomp_suite
from repro.bench.harness import results_to_csv
from repro.verify import VerifierConfig
from repro.verify.config import env_knob

#: Per-task wall-clock budget for the SV-COMP-like grid (seconds).
SVCOMP_TIME_LIMIT = 10.0
#: Per-task budget for the Nidhugg grid (seconds).
NIDHUGG_TIME_LIMIT = 30.0
#: Worker processes for the engine grids (``REPRO_BENCH_JOBS=8`` runs the
#: paper's engine-vs-engine figures in parallel via repro.portfolio).
#: Serial (1) remains the default: per-task wall times are the figures'
#: payload and are cleanest on an unloaded machine.
BENCH_JOBS = env_knob("REPRO_BENCH_JOBS") or 1

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_output(name: str, text: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        f.write(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def svcomp_tasks():
    return svcomp_suite(scale=1)


@pytest.fixture(scope="session")
def svcomp_results(svcomp_tasks):
    """Table 1 / Figures 5-7 grid: all comparison engines on the suite."""
    configs = {
        "zord": VerifierConfig.zord,
        "cbmc": VerifierConfig.cbmc,
        "dartagnan": VerifierConfig.dartagnan,
        "cpa-seq": VerifierConfig.cpa_seq,
        "lazy-cseq": VerifierConfig.lazy_cseq,
    }
    results = run_suite(
        svcomp_tasks, configs, time_limit_s=SVCOMP_TIME_LIMIT,
        measure_memory=True, jobs=BENCH_JOBS,
    )
    write_output("svcomp_grid.csv", results_to_csv(results).rstrip())
    return results


@pytest.fixture(scope="session")
def ablation_results(svcomp_tasks):
    """Figures 8-10 grid: Zord against its own ablations."""
    configs = {
        "zord": VerifierConfig.zord,
        "zord-": VerifierConfig.zord_minus,
        "zord'": VerifierConfig.zord_prime,
        "zord-tarjan": VerifierConfig.zord_tarjan,
    }
    return run_suite(
        svcomp_tasks, configs, time_limit_s=SVCOMP_TIME_LIMIT, jobs=BENCH_JOBS
    )


@pytest.fixture(scope="session")
def nidhugg_tasks():
    return nidhugg_suite()


@pytest.fixture(scope="session")
def nidhugg_results(nidhugg_tasks):
    """Table 3 grid: SMC tools vs BMC tools on the Nidhugg programs."""
    configs = {
        "nidhugg-rfsc": VerifierConfig.nidhugg_rfsc,
        "genmc": VerifierConfig.genmc,
        "cbmc": VerifierConfig.cbmc,
        "zord": VerifierConfig.zord,
    }
    results = run_suite(
        nidhugg_tasks, configs, time_limit_s=NIDHUGG_TIME_LIMIT, jobs=BENCH_JOBS
    )
    write_output("nidhugg_grid.csv", results_to_csv(results).rstrip())
    return results
