"""The ``service`` workload: cold ``repro serve --stdio`` daemons.

One client (this process) drives a daemon in a closed loop with one
request outstanding: it sends the next request when the previous one is
answered.  With ``nproc`` outstanding, the client threads' hand-offs and
the CPU contention between client, daemon and workers made throughput
swing by a third between runs on a 2-vCPU machine; one outstanding
request keeps the loop within the ``nproc`` limit and repeatable.

The requests follow a seeded Zipf stream over the SV-COMP-like programs
plus the ``examples/python`` corpus (submitted as ``language="python"``).
A pass spawns a fresh daemon with no cache directory and sends it the
whole stream: the first request for a program misses and runs a worker,
later ones are cache hits that never reach the solver.  Every pass
therefore serves the same mix of cold misses and hits.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.inproc import python_corpus
from perfbench.reference import normalise, reference_time

#: Zipf draws per pass; programs the draws miss are inserted, so every
#: program is requested at least once.
STREAM_LENGTH = 1000

#: Zipf exponent of program popularity.
ZIPF_S = 1.0

#: Popularity ranks are one fixed shuffle of the programs, so every seed
#: sees the same mix of cheap and costly hits; the seed draws the stream.
RANK_SEED = 0

#: Daemon spawns timed per run for ``setup_s``.
SETUP_SPAWNS = 9


@dataclass
class Program:
    name: str
    source: str
    expected_safe: bool
    config: Optional[object] = None
    language: Optional[str] = None
    filename: Optional[str] = None
    #: Mini-language source the daemon verified (witnesses replay on it).
    mini_source: str = ""
    width: int = 8
    unwind: int = 8


@dataclass
class ServiceRun:
    #: Daemon spawn times until the first ``ready``, at the reference speed.
    setup_s: List[float] = field(default_factory=list)
    passes: int = 0
    #: Request-loop time summed over the passes.
    elapsed_s: float = 0.0
    requests: int = 0
    failed: int = 0
    #: Wrong verdicts and witnesses that do not replay.
    errors: List[str] = field(default_factory=list)
    #: Every correctly answered request, in run order: its latency, the
    #: reference loop's time just before it, and whether it missed.
    latency_s: List[float] = field(default_factory=list)
    ref_s: List[float] = field(default_factory=list)
    missed: List[bool] = field(default_factory=list)
    hit_latency_s: List[float] = field(default_factory=list)
    #: Per pass: median queue wait and client overhead over the misses,
    #: share of hits, and the daemon's ``stats`` op at the end.
    queue_wait_s: List[float] = field(default_factory=list)
    overhead_s: List[float] = field(default_factory=list)
    hit_ratio: List[float] = field(default_factory=list)
    server_stats: List[Dict[str, object]] = field(default_factory=list)
    #: First miss result per program index.
    first_result: Dict[int, object] = field(default_factory=dict)
    replay_s: float = 0.0


def programs(root: str) -> List[Program]:
    from repro.bench import svcomp_suite
    from repro.lang.unparse import unparse
    from repro.pyfront import translate_source
    from repro.verify import VerifierConfig

    out = []
    for task in svcomp_suite(scale=1):
        out.append(
            Program(
                task.name, task.source, task.expected_safe,
                config=VerifierConfig.zord(unwind=task.unwind),
                mini_source=task.source, unwind=task.unwind,
            )
        )
    for path, verdict in python_corpus(root).items():
        with open(path, encoding="utf-8") as f:
            source = f.read()
        translation = translate_source(source, filename=path)
        out.append(
            Program(
                os.path.basename(path), source, verdict == "safe",
                language="python", filename=path,
                mini_source=unparse(translation.program),
            )
        )
    return out


def request_stream(n: int, seed: int) -> List[int]:
    """Seeded program indices drawn by popularity rank, covering all."""
    rng = random.Random(seed)
    rank_to_program = list(range(n))
    random.Random(RANK_SEED).shuffle(rank_to_program)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    stream = rng.choices(rank_to_program, weights, k=STREAM_LENGTH)
    for program in sorted(set(range(n)) - set(stream)):
        stream.insert(rng.randrange(len(stream) + 1), program)
    return stream


def _spawn_ready(workers: int):
    from repro.service.client import ServiceClient

    start = time.perf_counter()
    client = ServiceClient.spawn(workers=workers)
    while not client.ready():
        time.sleep(0.005)
    return client, time.perf_counter() - start


def _serve_pass(progs, stream, workers: int, out: "ServiceRun") -> None:
    """One cold daemon serving the whole stream."""
    from repro.service.client import ServiceError
    from repro.verify import Verdict

    clock = time.perf_counter
    client, _ = _spawn_ready(workers)
    samples = []
    try:
        start = clock()
        for index in stream:
            prog = progs[index]
            ref = reference_time()
            sent = clock()
            try:
                result = client.verify(
                    prog.source, prog.config,
                    language=prog.language, filename=prog.filename,
                )
            except ServiceError:
                result = None  # refused or malformed: counted as failed
            samples.append((index, clock() - sent, ref, result))
        out.elapsed_s += clock() - start - sum(s[2] for s in samples)
        out.server_stats.append(client.stats())
    finally:
        client.close()

    queue_wait, overhead, hits = [], [], 0
    for index, latency, ref, result in samples:
        out.requests += 1
        prog = progs[index]
        if result is None:
            out.failed += 1
            continue
        expected = Verdict.SAFE if prog.expected_safe else Verdict.UNSAFE
        if result.verdict != expected:
            out.failed += 1
            if result.verdict in (Verdict.SAFE, Verdict.UNSAFE):
                out.errors.append(
                    f"{prog.name}: wrong verdict {result.verdict}, "
                    f"expected {expected}"
                )
            continue
        missed = not result.stats.get("cache_hit")
        out.latency_s.append(latency)
        out.ref_s.append(ref)
        out.missed.append(missed)
        if not missed:
            hits += 1
            out.hit_latency_s.append(latency)
            continue
        queue_wait.append(float(result.stats.get("queue_wait_s", 0.0)))
        overhead.append(latency - result.wall_time_s)
        out.first_result.setdefault(index, result)
    out.queue_wait_s.append(_median(queue_wait))
    out.overhead_s.append(_median(overhead))
    out.hit_ratio.append(hits / max(1, len(samples)))


def run(root: str, seed: int, seconds: float) -> "ServiceRun":
    """Time daemon set-up, then serve whole passes until ``seconds`` of
    request loop have passed (at least two passes)."""
    progs = programs(root)
    stream = request_stream(len(progs), seed)
    workers = os.cpu_count() or 1
    out = ServiceRun()
    refs = []
    for _ in range(SETUP_SPAWNS):
        refs.append(reference_time())
        client, setup = _spawn_ready(workers)
        client.close()
        out.setup_s.append(setup)
    out.setup_s = normalise(out.setup_s, refs)
    passes = 0
    while out.elapsed_s < seconds or passes < 2:
        _serve_pass(progs, stream, workers, out)
        passes += 1
    out.passes = passes

    # Evidence, outside the timed loop: every UNSAFE answer's witness
    # must replay on the program the daemon verified.
    from repro.smc.witness_replay import replay_witness
    from repro.verify import Verdict

    replay_start = time.perf_counter()
    for index, result in out.first_result.items():
        prog = progs[index]
        if result.verdict != Verdict.UNSAFE:
            continue
        if result.witness is None or not replay_witness(
            prog.mini_source, result.witness,
            width=prog.width, unwind=prog.unwind,
        ):
            out.failed += 1
            out.errors.append(f"{prog.name}: witness does not replay")
    out.replay_s = time.perf_counter() - replay_start
    return out


def layer_metrics(run_: ServiceRun) -> Dict[str, float]:
    """Per-layer times for the service workload: the service's own
    numbers (median per pass), and the workers' reported per-phase times
    summed over one pass's misses."""
    results = list(run_.first_result.values())

    def total(key: str) -> float:
        return sum(float(r.stats.get(key, 0.0)) for r in results)

    def server(key: str) -> float:
        return _median([stats.get(key, 0) for stats in run_.server_stats])

    return {
        "frontend.ssa_s": total("time_frontend_s"),
        "analysis.prune_s": total("analysis_time_s"),
        "encoding.encode_s": total("time_encode_s") - total("analysis_time_s"),
        # Workers are not wrapped: their solve time includes T_ord.
        "sat.solve_self_s": total("time_solve_s"),
        "smc.replay_s": run_.replay_s,
        "service.queue_wait_s": _median(run_.queue_wait_s),
        "service.overhead_s": _median(run_.overhead_s),
        "service.cached_p50_s": _median(run_.hit_latency_s),
        "service.cache_hit_ratio": _median(run_.hit_ratio),
        "service.jobs_coalesced": server("jobs_coalesced"),
        "service.worker_recycles": server("worker_recycles"),
        "service.jobs_shed": server("jobs_shed"),
        "trace.wall_s": run_.elapsed_s / run_.passes,
    }


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0
