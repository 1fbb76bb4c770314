"""The documented public surface of the library.

Five entry points, stable across releases:

* :func:`verify` -- verify one program.  Dispatches on its arguments:
  a ``portfolio=`` list races several engine presets
  (:func:`repro.portfolio.verify_portfolio`), a ``server=`` address (or
  the ``REPRO_SERVER`` environment variable) routes the job through a
  running verification service (:mod:`repro.service`), and otherwise the
  in-process pipeline runs directly.
* :func:`verify_batch` -- a (tasks x configs) grid over a process pool.
* :func:`analyze` -- the static race analysis, no solver involved.
* :func:`serve` -- run a verification service daemon (blocking).
* :func:`connect` -- open a client to a running service.

Library users should import from here (or from :mod:`repro`, which
re-exports the same names).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.lang import ast
from repro.verify import VerifierConfig
from repro.verify.config import env_knob
from repro.verify.verifier import verify_one

__all__ = [
    "verify",
    "verify_python",
    "verify_batch",
    "analyze",
    "serve",
    "connect",
]


def verify(
    program: Union[str, "ast.Program"],
    config: Optional[VerifierConfig] = None,
    *,
    portfolio: Optional[Sequence[Union[str, VerifierConfig]]] = None,
    jobs: Optional[int] = None,
    server: Optional[str] = None,
    measure_memory: bool = False,
):
    """Verify ``program``: the one front door.

    Args:
        program: source text or a parsed AST.
        config: engine selection (see :class:`VerifierConfig`); defaults
            to the Zord preset.  Ignored when ``portfolio`` is given.
        portfolio: race these presets/configs instead of running one
            engine; the first conclusive verdict wins.  Returns a
            :class:`~repro.portfolio.runner.PortfolioResult`.
        jobs: worker processes for ``portfolio`` (default: one per
            member, capped at the CPU count).
        server: ``HOST:PORT`` of a running verification service; the job
            is submitted there (warm workers + verdict cache) instead of
            solving in-process.  Defaults to the ``REPRO_SERVER``
            environment variable; portfolio runs always stay local.
        measure_memory: trace peak allocation (slower; in-process only).

    Returns:
        A :class:`VerificationResult` (or a ``PortfolioResult`` when
        ``portfolio`` is given).  Service-routed results carry
        ``stats["cache_hit"]`` / ``stats["queue_wait_s"]``.
    """
    if portfolio is not None:
        from repro.portfolio import verify_portfolio

        return verify_portfolio(program, portfolio, jobs=jobs)
    if server is None:
        server = env_knob("REPRO_SERVER")
    if server is not None:
        from repro.service.client import ServiceClient

        with ServiceClient.connect(server) as client:
            return client.verify(program, config)
    return verify_one(program, config, measure_memory=measure_memory)


def verify_python(
    source: Optional[str] = None,
    *,
    path: Optional[str] = None,
    filename: str = "<python>",
    config: Optional[VerifierConfig] = None,
    server: Optional[str] = None,
    measure_memory: bool = False,
):
    """Verify a Python ``threading`` program (the ``pyfront`` frontend).

    Exactly one of ``source`` (program text) and ``path`` (a ``.py``
    file) must be given.  The program is translated onto the mini
    language (:mod:`repro.pyfront`) and then verified through
    :func:`verify` unchanged -- so ``REPRO_SERVER`` routing, the verdict
    cache (keyed on the canonical *translated* form: differently
    formatted Python files sharing a translation share cache entries),
    budgets, pruning and unwind schedules all apply.

    Returns:
        ``(result, translation)`` -- the :class:`VerificationResult`
        plus the :class:`~repro.pyfront.translate.Translation`, which
        maps witnesses back to Python source lines
        (:func:`repro.pyfront.witness.witness_python_lines`) and drives
        the concrete confirmation executor
        (:mod:`repro.pyfront.dynexec`).

    Raises:
        repro.pyfront.SubsetError: the program is outside the supported
            subset (or not valid Python); the message carries the
            offending ``file:line:col``.
    """
    from repro.pyfront import translate_file, translate_source

    if (source is None) == (path is None):
        raise ValueError("verify_python needs exactly one of source=/path=")
    if path is not None:
        translation = translate_file(path)
    else:
        translation = translate_source(source, filename=filename)
    result = verify(
        translation.program,
        config,
        server=server,
        measure_memory=measure_memory,
    )
    return result, translation


def verify_batch(
    tasks,
    configs,
    jobs: Optional[int] = None,
    time_limit_s: Optional[float] = 10.0,
    measure_memory: bool = False,
):
    """Run a (tasks x configs) grid over a process pool; see
    :func:`repro.portfolio.batch.verify_batch`."""
    from repro.portfolio.batch import verify_batch as _verify_batch

    return _verify_batch(
        tasks, configs, jobs=jobs, time_limit_s=time_limit_s,
        measure_memory=measure_memory,
    )


def analyze(
    program: Union[str, "ast.Program"],
    unwind: int = 8,
    width: int = 8,
):
    """Static race analysis (MHP x locksets); returns an
    :class:`~repro.analysis.races.AnalysisReport`, no solver involved."""
    from repro.analysis import analyze_program

    return analyze_program(program, unwind=unwind, width=width)


def serve(
    stdio: bool = False,
    tcp: Optional[str] = None,
    workers: Optional[int] = None,
    recycle_after: int = 64,
    max_queue: int = 64,
    cache_size: int = 1024,
    time_limit_s: Optional[float] = None,
    cache_dir: Optional[str] = None,
    drain_timeout_s: float = 10.0,
) -> int:
    """Run a verification service daemon (blocking until EOF/shutdown).

    Exactly one transport must be selected: ``stdio=True`` speaks JSONL
    on stdin/stdout, ``tcp="HOST:PORT"`` listens on a socket.
    ``cache_dir`` (default: the ``REPRO_CACHE_DIR`` environment
    variable) makes the verdict cache persistent and enables job
    checkpoint/resume; ``drain_timeout_s`` bounds the graceful SIGTERM/
    SIGINT drain.  See ``docs/SERVICE.md`` for the protocol and
    lifecycle.
    """
    from repro.service.server import ServiceServer

    if cache_dir is None:
        cache_dir = env_knob("REPRO_CACHE_DIR")
    server = ServiceServer(
        workers=workers,
        recycle_after=recycle_after,
        max_queue=max_queue,
        cache_size=cache_size,
        default_time_limit_s=time_limit_s,
        cache_dir=cache_dir,
        drain_timeout_s=drain_timeout_s,
    )
    return server.run(stdio=stdio, tcp=tcp)


def connect(
    address: Optional[str] = None,
    timeout: float = 10.0,
    request_timeout_s: Optional[float] = None,
    retry=None,
    hedge_after_s: Optional[float] = None,
):
    """Open a synchronous client to a running service.

    ``address`` defaults to the ``REPRO_SERVER`` environment variable.
    ``timeout`` bounds the connection attempt, ``request_timeout_s``
    each response read; ``retry`` (a
    :class:`~repro.service.client.RetryPolicy`) tunes idempotent-op
    retries and ``hedge_after_s`` enables tail-latency hedging of
    ``verify``.  Returns a
    :class:`~repro.service.client.ServiceClient` (usable as a context
    manager).
    """
    from repro.service.client import ServiceClient

    if address is None:
        address = env_knob("REPRO_SERVER")
    if address is None:
        raise ValueError(
            "no service address: pass connect(address=...) or set "
            "the REPRO_SERVER environment variable"
        )
    return ServiceClient.connect(
        address,
        timeout=timeout,
        request_timeout_s=request_timeout_s,
        retry=retry,
        hedge_after_s=hedge_after_s,
    )
