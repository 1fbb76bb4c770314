"""Grid-parallel batch verification for the benchmark harness.

:func:`verify_batch` runs a (tasks × configs) grid on the shared supervised
pool (:class:`repro.robustness.pool.WorkerPool`) and returns the same
``{config_name: [TaskResult ...]}`` shape as
:func:`repro.bench.harness.run_suite`, with rows aligned to the task
order.  Cell order within the pool is unordered; the grid assembly is
deterministic.  Per-cell budgets are the engines' own cooperative
``time_limit_s`` (exactly as in serial runs), so verdicts are identical to
``run_suite`` modulo wall-clock noise.  A cell that raises, or whose
worker dies or hangs, becomes an ERROR cell instead of stalling the grid,
and its diagnostic is issued as a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.bench.harness import TaskResult, execute_task
from repro.bench.task import Task
from repro.robustness.pool import WorkerPool
from repro.verify import Verdict, VerifierConfig
from repro.verify.config import PRESETS

__all__ = ["verify_batch"]

ConfigLike = Union[str, VerifierConfig, Callable[..., VerifierConfig]]


def _config_for(spec: ConfigLike, task: Task, time_limit_s: Optional[float]) -> VerifierConfig:
    """Instantiate one grid cell's config, mirroring ``run_task``."""
    if isinstance(spec, str):
        spec = PRESETS[spec]
    if isinstance(spec, VerifierConfig):
        return spec.with_(
            unwind=task.unwind,
            time_limit_s=spec.time_limit_s
            if spec.time_limit_s is not None
            else time_limit_s,
        )
    return spec(unwind=task.unwind, time_limit_s=time_limit_s)


def _named_specs(
    configs: Union[Mapping[str, ConfigLike], Sequence[ConfigLike]],
) -> List:
    """Normalize ``configs`` to an ordered (name, spec) list."""
    if isinstance(configs, Mapping):
        return list(configs.items())
    named = []
    for spec in configs:
        if isinstance(spec, str):
            named.append((spec, spec))
        elif isinstance(spec, VerifierConfig):
            named.append((spec.name, spec))
        else:
            named.append((spec().name, spec))
    return named


def _cell_job(task: Task, config: VerifierConfig, measure_memory: bool) -> Dict:
    """Pool job function: run one (task, config) cell."""
    return {"result": execute_task(task, config, measure_memory)}


def verify_batch(
    tasks: Sequence[Task],
    configs: Union[Mapping[str, ConfigLike], Sequence[ConfigLike]],
    jobs: Optional[int] = None,
    time_limit_s: Optional[float] = 10.0,
    measure_memory: bool = False,
) -> Dict[str, List]:
    """Run every configuration over every task, in parallel.

    Args:
        tasks: benchmark tasks (each carries its own unwind bound).
        configs: ``{name: factory-or-config-or-preset}`` as accepted by
            :func:`repro.bench.harness.run_suite`, or a plain sequence of
            configs / preset names (named by ``config.name``).
        jobs: pool size (default: cpu count); ``1`` runs serially.
        time_limit_s: per-cell budget for configs without their own.
        measure_memory: trace peak allocation per cell.

    Returns:
        ``{config_name: [TaskResult per task, aligned with tasks]}`` --
        the exact shape :func:`run_suite` produces.
    """
    named = _named_specs(configs)
    cells = [
        (name, index, task, _config_for(spec, task, time_limit_s))
        for name, spec in named
        for index, task in enumerate(tasks)
    ]
    results: Dict[str, List] = {name: [None] * len(tasks) for name, _ in named}
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, max(1, len(cells)))
    if jobs <= 1:
        for name, index, task, config in cells:
            results[name][index] = execute_task(task, config, measure_memory)
        return results
    from concurrent.futures import as_completed

    pool = WorkerPool(_cell_job, size=jobs)
    try:
        futures = {}
        for cell in cells:
            _, _, task, config = cell
            futures[pool.submit(task, config, measure_memory)[1]] = cell
        pool.seal()
        for fut in as_completed(futures):
            name, index, task, config = futures[fut]
            payload = fut.result()
            if "error" in payload:
                # The cell raised, or its worker died or hung: an ERROR
                # cell, with the diagnostic kept apart from an ERROR verdict.
                warnings.warn(
                    f"verify_batch: cell {task.name} x {config.name}: "
                    f"{payload['error']}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                payload["result"] = TaskResult(
                    task.name, task.category, config.name, Verdict.ERROR,
                    None, 0.0,
                )
            results[name][index] = payload["result"]
    finally:
        pool.shutdown()
    return results
