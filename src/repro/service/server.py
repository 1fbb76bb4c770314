"""The asyncio verification daemon.

One :class:`ServiceServer` owns a :class:`~repro.service.workers.WorkerPool`
(warm, recycled solver processes), a
:class:`~repro.service.cache.VerdictCache` (content-addressed, conclusive
verdicts only), and the service counters.  Transports are thin: both the
stdin-JSONL mode (``repro serve --stdio``) and the TCP mode (``repro
serve --tcp HOST:PORT``) read newline-delimited JSON requests
(:mod:`repro.service.protocol`), handle each one as an independent asyncio
task (so requests pipeline across the pool), and write one response line
per request in completion order.

Request lifecycle for ``verify``:

1. the request is looked up in the *submission index*, which maps the
   exact submitted bytes (with language, Python filename and config
   signature) to the cache key they derived before; only a request not
   seen before is translated (Python), parsed and canonicalized.  The
   canonical form plus the config's encoding signature addresses the
   verdict cache -- a hit answers immediately with ``cache_hit=true`` and
   no worker involved;
2. single-flight coalescing: if an identical request (same cache key) is
   already computing, the new one awaits that job's clean result instead
   of submitting a second -- pipelined duplicates cost one worker job and
   report ``cache_hit=true``;
3. admission control: when queued+running jobs have reached ``max_queue``
   the job is **shed** -- a structured UNKNOWN with ``reason=overloaded``
   (and a diagnostic), never an open-ended wait.  Clients see bounded
   latency under overload instead of timeouts;
4. the per-request deadline (``deadline_s``, or the server's default) is
   folded into the config's ``time_limit_s``, so it rides the existing
   cooperative :class:`~repro.robustness.budget.Budget` machinery inside
   the worker -- including fallback chains, which share the one deadline;
5. the result comes back annotated with the service stats
   (``cache_hit``, ``queue_wait_s``, ``worker_recycles``) on top of the
   normalized telemetry every verification already carries, and
   conclusive verdicts are inserted into the cache.

**Durability** (opt-in via ``cache_dir``): the verdict cache journals
every conclusive verdict to a crash-safe log under that directory and
recovers it on the next startup (:mod:`repro.service.persist`), and
workers checkpoint iterative-deepening progress per cache key under
``<cache_dir>/checkpoints/`` so a job interrupted by a worker death or a
daemon restart resumes past its last completed bound
(:mod:`repro.service.checkpoints`).

**Graceful drain**: SIGTERM or SIGINT puts the daemon into *draining*
mode -- new ``verify`` admissions are shed with a structured UNKNOWN
(``reason=draining``), in-flight jobs get up to ``drain_timeout_s`` to
finish, the journal is fsynced, the pool is reaped, and the process
exits with the distinct code :data:`DRAIN_EXIT_CODE` so wrappers can
tell a drain from a crash.  A second signal skips the grace period.
``health`` (always answered, even mid-drain) and ``ready`` (false while
draining or with no live workers) expose the state to probes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple, Union

from repro.robustness.faults import DropConnection, fault_point
from repro.service import protocol
from repro.service.cache import (
    CacheKey,
    VerdictCache,
    cache_key,
    config_signature,
    key_token,
)
from repro.service.checkpoints import CHECKPOINT_DIR_NAME
from repro.service.workers import WorkerPool
from repro.verify.config import VerifierConfig
from repro.verify.result import Verdict, VerificationResult
from repro.verify.telemetry import normalize_stats

__all__ = ["DRAIN_EXIT_CODE", "ServiceServer"]

#: Extra seconds past the request deadline the server waits for a worker
#: before answering UNKNOWN itself (the worker's own budget should have
#: fired long before this).
_DEADLINE_GRACE_S = 10.0

#: Exit code of a daemon stopped by a drain signal (vs 0 for a clean
#: ``shutdown`` op / EOF) -- wrapper scripts distinguish "we asked it to
#: stop and it drained" from crashes.
DRAIN_EXIT_CODE = 3


class ServiceServer:
    """The verification service daemon (see module docstring)."""

    def __init__(
        self,
        workers: Optional[int] = None,
        recycle_after: int = 64,
        max_queue: int = 64,
        cache_size: int = 1024,
        default_time_limit_s: Optional[float] = None,
        verbose: bool = False,
        cache_dir: Optional[str] = None,
        drain_timeout_s: float = 10.0,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {drain_timeout_s}"
            )
        self._workers = workers
        self._recycle_after = recycle_after
        self.max_queue = max_queue
        self.cache_dir = cache_dir
        self._checkpoint_dir = (
            os.path.join(cache_dir, CHECKPOINT_DIR_NAME) if cache_dir else None
        )
        self.cache = VerdictCache(cache_size, cache_dir=cache_dir)
        self.default_time_limit_s = default_time_limit_s
        self.drain_timeout_s = drain_timeout_s
        self.verbose = verbose
        self.pool: Optional[WorkerPool] = None
        self.started_at = time.monotonic()
        self.jobs_total = 0
        self.jobs_shed = 0
        self.jobs_coalesced = 0
        self.protocol_errors = 0
        self.draining = False
        self._drained_by_signal = False
        #: Bound TCP port once listening (useful with port 0 in tests).
        self.tcp_port: Optional[int] = None
        self._shutdown: Optional[asyncio.Event] = None
        # Single-flight table: cache key -> future resolving to the wire
        # JSON text of the in-flight job's clean (conclusive) result, or
        # None.
        self._inflight: Dict[Any, "asyncio.Future"] = {}
        # Submission index, an LRU bounded like the cache: (language,
        # Python filename, source sha256, config signature) -> (cache key,
        # translated mini source for Python, else None).  Filled only by
        # a successful derivation; never persisted.
        self._submissions: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self.submission_hits = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_pool(self) -> None:
        """Spawn the worker pool (idempotent; ``run`` calls this)."""
        if self.pool is None:
            self.pool = WorkerPool(
                size=self._workers,
                recycle_after=self._recycle_after,
                checkpoint_dir=self._checkpoint_dir,
            )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        self.cache.flush()
        self.cache.close()

    def run(self, stdio: bool = False, tcp: Optional[str] = None) -> int:
        """Run the daemon on exactly one transport; blocks until EOF (for
        stdio), a ``shutdown`` request, a drain signal, or
        KeyboardInterrupt.  Returns the process exit code: 0 for a clean
        stop, :data:`DRAIN_EXIT_CODE` when stopped by SIGTERM/SIGINT via
        the drain path."""
        if stdio == bool(tcp):
            raise ValueError("select exactly one transport: stdio or tcp")
        if tcp is not None:
            host, _, port_text = tcp.rpartition(":")
            if not host or not port_text.isdigit():
                raise ValueError(
                    f"--tcp expects HOST:PORT, got {tcp!r}"
                )
            coro = self._amain_tcp(host, int(port_text))
        else:
            coro = self._amain_stdio()
        try:
            asyncio.run(coro)
        except KeyboardInterrupt:
            # Signal handlers normally drain first; a KeyboardInterrupt
            # that still escapes (e.g. during loop startup) stops us too.
            self._drained_by_signal = True
        finally:
            self.close()
        return DRAIN_EXIT_CODE if self._drained_by_signal else 0

    def _install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into the drain path (best-effort: not
        every loop/platform supports add_signal_handler)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    def _begin_drain(self) -> None:
        """First signal: shed new work, let in-flight finish, then stop.
        Second signal: stop now."""
        self._drained_by_signal = True
        if self.draining:
            self._log("drain: second signal, stopping immediately")
            if self._shutdown is not None:
                self._shutdown.set()
            return
        self.draining = True
        self._log(
            "drain: signal received, shedding new admissions "
            f"(up to {self.drain_timeout_s:g}s for in-flight jobs)"
        )
        asyncio.ensure_future(self._drain_then_stop())

    async def _drain_then_stop(self) -> None:
        deadline = time.monotonic() + self.drain_timeout_s
        while self.pool is not None and self.pool.pending() > 0:
            if time.monotonic() >= deadline:
                self._log(
                    f"drain: timeout with {self.pool.pending()} jobs "
                    "still in flight"
                )
                break
            await asyncio.sleep(0.05)
        self.cache.flush()
        if self._shutdown is not None:
            self._shutdown.set()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro-serve] {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    async def _amain_stdio(self) -> None:
        self.start_pool()
        self._shutdown = asyncio.Event()
        self._install_signal_handlers()
        loop = asyncio.get_running_loop()
        write_lock = asyncio.Lock()
        tasks = set()
        self._log(f"serving on stdio, {self.pool.size} workers")

        async def respond(line: str) -> None:
            try:
                response = await self.handle_line(line)
            except DropConnection:
                return  # injected fault: swallow the response line
            if response is None:
                return
            async with write_lock:
                sys.stdout.write(response)
                sys.stdout.flush()

        # Stdin is read on a dedicated *daemon* thread, not the default
        # executor: asyncio.run()'s cleanup joins executor threads, so a
        # readline still blocked there after a ``shutdown`` op would hang
        # the process until the peer closed stdin.  A daemon thread is
        # simply abandoned at interpreter exit.
        # It reads through its own file object on fd 0: a worker forked
        # while the thread is parked in readline() would inherit the held
        # lock of ``sys.stdin``, and a forked process closes ``sys.stdin``
        # as it starts.
        line_q: "asyncio.Queue[str]" = asyncio.Queue()
        stdin = open(
            sys.stdin.fileno(), encoding=sys.stdin.encoding,
            errors=sys.stdin.errors, closefd=False,
        )

        def _pump_stdin() -> None:
            while True:
                line = stdin.readline()
                loop.call_soon_threadsafe(line_q.put_nowait, line)
                if not line:
                    return  # EOF ('' is the sentinel the loop below sees)

        threading.Thread(
            target=_pump_stdin, name="service-stdin-reader", daemon=True
        ).start()

        while not self._shutdown.is_set():
            read = asyncio.ensure_future(line_q.get())
            stop = asyncio.ensure_future(self._shutdown.wait())
            done, _ = await asyncio.wait(
                {read, stop}, return_when=asyncio.FIRST_COMPLETED
            )
            if read in done:
                stop.cancel()
                line = read.result()
                if not line:
                    break  # EOF
                if not line.strip():
                    continue
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            else:
                # shutdown requested: stop consuming; the reader thread
                # stays parked in readline() but, being a daemon thread
                # outside the executor, never blocks loop cleanup or exit.
                read.cancel()
                break
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._log("stdio transport closed")

    async def _amain_tcp(self, host: str, port: int) -> None:
        self.start_pool()
        self._shutdown = asyncio.Event()
        self._install_signal_handlers()
        # The buffer limit is twice the protocol cap: lines between the
        # two get a structured "request too large" error from
        # decode_line; only lines the transport cannot even frame force
        # the connection closed.
        server = await asyncio.start_server(
            self._on_connection,
            host,
            port,
            limit=2 * protocol.MAX_REQUEST_BYTES,
        )
        if server.sockets:
            self.tcp_port = server.sockets[0].getsockname()[1]
        addrs = ", ".join(
            str(s.getsockname()) for s in server.sockets or ()
        )
        self._log(f"serving on {addrs}, {self.pool.size} workers")
        # Readiness marker on stdout: scripts wait for this line.
        print(
            f"repro-serve: listening on {host}:{self.tcp_port or port}",
            flush=True,
        )
        async with server:
            await self._shutdown.wait()
        self._log("tcp transport closed")

    async def _on_connection(self, reader, writer) -> None:
        write_lock = asyncio.Lock()
        tasks = set()

        async def respond(line: str) -> None:
            try:
                response = await self.handle_line(line)
            except DropConnection:
                # Injected fault: sever the connection unanswered, the
                # way a daemon crash mid-response would.
                try:
                    writer.transport.abort()
                except Exception:
                    pass
                return
            if response is None:
                return
            async with write_lock:
                try:
                    writer.write(response.encode("utf-8"))
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass  # client went away mid-response

        try:
            while True:
                try:
                    raw = await reader.readline()
                except ConnectionError:
                    break
                except asyncio.CancelledError:
                    break  # server shutting down with this connection open
                except ValueError:
                    # Line exceeded the stream buffer (2x the protocol
                    # cap): answer once, then close -- newline framing
                    # cannot be resynchronized mid-line.
                    self.protocol_errors += 1
                    err = protocol.encode(
                        protocol.error_response(
                            None,
                            "request line exceeds transport buffer "
                            f"({2 * protocol.MAX_REQUEST_BYTES} bytes); "
                            "closing connection",
                        )
                    )
                    async with write_lock:
                        try:
                            writer.write(err.encode("utf-8"))
                            await writer.drain()
                        except (ConnectionError, RuntimeError):
                            pass
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def handle_line(self, line: str) -> Optional[str]:
        """Decode one request line, dispatch it, encode the response.

        Raises :class:`~repro.robustness.faults.DropConnection` when a
        ``drop@service_response`` fault is installed -- the transport
        severs the connection unanswered (chaos testing of client
        retry).
        """
        try:
            req = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            self.protocol_errors += 1
            return protocol.encode(protocol.error_response(None, str(exc)))
        try:
            response = await self.handle_request(req)
        except Exception as exc:  # noqa: BLE001 - a bug, not a crash
            response = protocol.error_response(
                req.get("id"), f"internal error: {type(exc).__name__}: {exc}"
            )
        # Chaos hook: delay@service_response slows every answer,
        # drop@service_response propagates to the transport.  A malformed
        # fault spec is answered with its message, never with no line.
        try:
            fault_point("service_response")
        except ValueError as exc:
            response = protocol.error_response(req.get("id"), str(exc))
        return protocol.encode(response)

    async def handle_request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request to its op handler (the transport-
        independent core; in-process tests call this directly)."""
        op = req["op"]
        request_id = req.get("id")
        if op == "ping":
            return {
                "id": request_id,
                "ok": True,
                "pong": True,
                "protocol": protocol.PROTOCOL_VERSION,
            }
        if op == "stats":
            return {"id": request_id, "ok": True, "stats": self.stats()}
        if op == "health":
            return self._op_health(request_id)
        if op == "ready":
            return self._op_ready(request_id)
        if op == "shutdown":
            if self._shutdown is not None:
                self._shutdown.set()
            return {"id": request_id, "ok": True, "bye": True}
        if op == "analyze":
            return self._op_analyze(req)
        return await self._op_verify(req)

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "jobs_total": self.jobs_total,
            "jobs_shed": self.jobs_shed,
            "jobs_coalesced": self.jobs_coalesced,
            "submission_hits": self.submission_hits,
            "submission_entries": len(self._submissions),
            "protocol_errors": self.protocol_errors,
            "protocol": protocol.PROTOCOL_VERSION,
            "draining": int(self.draining),
        }
        out.update(self.cache.snapshot())
        if self.pool is not None:
            out.update(
                workers=self.pool.size,
                worker_recycles=self.pool.recycles,
                jobs_done=self.pool.jobs_done,
                jobs_pending=self.pool.pending(),
            )
        return out

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def _op_health(self, request_id: Any) -> Dict[str, Any]:
        """Liveness probe: answered even mid-drain."""
        pool = self.pool
        health: Dict[str, Any] = {
            "status": "draining" if self.draining else "ok",
            "draining": self.draining,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue_depth": pool.pending() if pool is not None else 0,
            "workers": pool.size if pool is not None else 0,
            "workers_alive": pool.alive() if pool is not None else 0,
        }
        health.update(self.cache.snapshot())
        return {"id": request_id, "ok": True, "health": health}

    def _op_ready(self, request_id: Any) -> Dict[str, Any]:
        """Admission probe: should new work be routed here?"""
        reason: Optional[str] = None
        if self.draining:
            reason = "draining"
        elif self.pool is None:
            reason = "worker pool not started"
        elif self.pool.alive() == 0:
            reason = "no live workers"
        return {
            "id": request_id,
            "ok": True,
            "ready": reason is None,
            "reason": reason,
        }

    def _op_analyze(self, req: Dict[str, Any]) -> Dict[str, Any]:
        request_id = req.get("id")
        source = req.get("source")
        if not isinstance(source, str):
            return protocol.error_response(
                request_id, "analyze needs a string 'source'"
            )
        from repro.analysis import analyze_program
        from repro.lang.lexer import LexError
        from repro.lang.parser import ParseError
        from repro.lang.sema import SemanticError

        try:
            report = analyze_program(
                source,
                unwind=int(req.get("unwind", 8)),
                width=int(req.get("width", 8)),
            )
        except (LexError, ParseError, SemanticError, ValueError) as exc:
            return protocol.error_response(
                request_id, f"{type(exc).__name__}: {exc}"
            )
        return {
            "id": request_id,
            "ok": True,
            "report": {
                "races": [w.to_dict() for w in report.warnings],
                "pairs_total": report.pairs_total,
                "pairs_ordered": report.pairs_ordered,
                "pairs_protected": report.pairs_protected,
                "pairs_racy": report.pairs_racy,
            },
        }

    async def _op_verify(self, req: Dict[str, Any]) -> Dict[str, Any]:
        request_id = req.get("id")
        source = req.get("source")
        if not isinstance(source, str):
            return protocol.error_response(
                request_id, "verify needs a string 'source'"
            )
        try:
            config = (
                VerifierConfig.from_dict(req["config"])
                if req.get("config")
                else VerifierConfig()
            )
        except ValueError as exc:
            return protocol.error_response(request_id, f"bad config: {exc}")
        language = req.get("language") or "mini"
        if language not in ("mini", "python"):
            return protocol.error_response(
                request_id, f"unknown language {language!r} "
                "(supported: 'mini', 'python')"
            )
        filename = (
            str(req.get("filename") or "<python>")
            if language == "python" else None
        )
        submission = (
            language,
            filename,
            hashlib.sha256(source.encode("utf-8", "surrogatepass")).digest(),
            config_signature(config),
        )
        indexed = self._submissions.get(submission)
        if indexed is not None:
            # A byte-identical resubmission: no translation, no parse.
            self._submissions.move_to_end(submission)
            self.submission_hits += 1
        else:
            indexed = self._derive_key(
                request_id, language, source, filename, config
            )
            if isinstance(indexed, dict):
                return indexed  # the answer to an input error
            self._submissions[submission] = indexed
            while len(self._submissions) > self.cache.max_entries:
                self._submissions.popitem(last=False)
        key, translated = indexed
        if translated is not None:
            source = translated  # workers never see Python source
        self.jobs_total += 1

        if self.draining:
            # New admissions are shed during a drain; in-flight jobs are
            # the only work the daemon will still finish.
            self.jobs_shed += 1
            return self._verify_response(
                request_id,
                self._shed_result(config, reason="draining"),
                cache_hit=False,
            )

        cached = self.cache.get(key)
        if cached is not None:
            self._annotate(cached, cache_hit=True, queue_wait_s=0.0)
            return self._verify_response(request_id, cached, cache_hit=True)

        deadline_s = req.get("deadline_s")
        if deadline_s is None:
            deadline_s = self.default_time_limit_s

        # Single-flight: an identical request is already computing -- await
        # its clean result instead of submitting a duplicate job.
        waiter = self._inflight.get(key)
        if waiter is not None:
            timeout = (
                None if deadline_s is None else deadline_s + _DEADLINE_GRACE_S
            )
            try:
                shared = await asyncio.wait_for(
                    asyncio.shield(waiter), timeout=timeout
                )
            except asyncio.TimeoutError:
                return self._verify_response(
                    request_id,
                    self._deadline_result(config, deadline_s),
                    cache_hit=False,
                )
            if shared is not None:
                self.jobs_coalesced += 1
                result = json.loads(shared)
                self._annotate(result, cache_hit=True, queue_wait_s=0.0)
                return self._verify_response(request_id, result, cache_hit=True)
            # The in-flight job ended without a shareable (conclusive)
            # verdict; fall through and compute this request independently.

        self.start_pool()
        if self.pool.pending() >= self.max_queue:
            self.jobs_shed += 1
            return self._verify_response(
                request_id,
                self._shed_result(config),
                cache_hit=False,
            )

        if deadline_s is not None:
            limit = config.time_limit_s
            limit = deadline_s if limit is None else min(limit, deadline_s)
            config = config.with_(time_limit_s=limit)

        waiter = asyncio.get_running_loop().create_future()
        self._inflight[key] = waiter
        clean: Optional[str] = None
        try:
            ckpt_token = (
                key_token(key) if self._checkpoint_dir is not None else None
            )
            _, fut, _ = self.pool.submit(source, config.to_dict(), ckpt_token)
            timeout = (
                None if deadline_s is None else deadline_s + _DEADLINE_GRACE_S
            )
            try:
                payload = await asyncio.wait_for(
                    asyncio.wrap_future(fut), timeout=timeout
                )
            except asyncio.TimeoutError:
                return self._verify_response(
                    request_id,
                    self._deadline_result(config, deadline_s),
                    cache_hit=False,
                )
            except RuntimeError as exc:  # pool shut down under us
                return protocol.error_response(request_id, str(exc))

            if "input_error" in payload:
                return protocol.error_response(
                    request_id, payload["input_error"]
                )
            if "error" in payload:
                result = VerificationResult(
                    Verdict.ERROR,
                    config.name,
                    diagnostic=payload["error"],
                    stats=normalize_stats({}),
                ).to_dict()
            else:
                result = payload["result"]
                # Conclusive verdicts are cached *before* annotation so the
                # stored entry is a clean verdict, not this request's
                # timings; its stored wire text resolves the single-flight
                # waiter for any coalesced duplicates.
                clean = self.cache.put(key, result)
            self._annotate(
                result,
                cache_hit=False,
                queue_wait_s=payload.get("queue_wait_s", 0.0),
            )
            return self._verify_response(request_id, result, cache_hit=False)
        finally:
            if self._inflight.get(key) is waiter:
                del self._inflight[key]
            if not waiter.done():
                waiter.set_result(clean)

    def _derive_key(
        self,
        request_id: Any,
        language: str,
        source: str,
        filename: Optional[str],
        config: VerifierConfig,
    ) -> Union[Dict[str, Any], Tuple[CacheKey, Optional[str]]]:
        """Derive a submission's cache key: ``(key, translated mini
        source or None)``, or the response that answers an input error."""
        from repro.lang.lexer import LexError
        from repro.lang.parser import ParseError

        translated = None
        if language == "python":
            # Translate up front, on the event loop: the workers only
            # ever see mini-language source, so a program outside the
            # Python subset can never crash (or even reach) a worker.
            # Subset violations are a *structured* ERROR verdict with
            # the offending file:line:col, not a protocol error -- the
            # submitting program was understood, just not verifiable.
            from repro.lang.unparse import unparse
            from repro.pyfront import SubsetError, translate_source

            try:
                translation = translate_source(source, filename=filename)
            except SubsetError as exc:
                self.jobs_total += 1
                result = VerificationResult(
                    Verdict.ERROR,
                    config.name,
                    diagnostic=f"python subset: {exc}",
                    stats=normalize_stats({"reason": "subset-error"}),
                ).to_dict()
                self._annotate(result, cache_hit=False, queue_wait_s=0.0)
                return self._verify_response(
                    request_id, result, cache_hit=False
                )
            # From here on the job is indistinguishable from a mini-
            # language submission: the cache key is the canonical
            # *translated* form, so differently-formatted Python files
            # sharing a translation share cache entries (and entries
            # with CLI-side verify-py runs routed through the client).
            source = translated = unparse(translation.program)
        try:
            return cache_key(source, config), translated
        except (LexError, ParseError) as exc:
            return protocol.error_response(
                request_id, f"{type(exc).__name__}: {exc}"
            )

    def _deadline_result(
        self, config: VerifierConfig, deadline_s: float
    ) -> Dict:
        """The structured UNKNOWN for a request whose deadline expired
        before its job (or the coalesced-onto job) answered."""
        result = VerificationResult(
            Verdict.UNKNOWN,
            config.name,
            wall_time_s=deadline_s or 0.0,
            diagnostic=(
                "service deadline exceeded: worker did not answer "
                f"within {deadline_s:g}s (+{_DEADLINE_GRACE_S:g}s grace)"
            ),
            stats=normalize_stats({"reason": "deadline"}),
        ).to_dict()
        self._annotate(result, cache_hit=False, queue_wait_s=0.0)
        return result

    def _annotate(
        self, result: Dict, cache_hit: bool, queue_wait_s: float
    ) -> None:
        """Stamp the service counters into a wire result's stats."""
        stats = result.setdefault("stats", {})
        stats["cache_hit"] = int(cache_hit)
        stats["queue_wait_s"] = queue_wait_s
        stats["worker_recycles"] = (
            self.pool.recycles if self.pool is not None else 0
        )

    def _shed_result(
        self, config: VerifierConfig, reason: str = "overloaded"
    ) -> Dict:
        """Admission control: the structured UNKNOWN for a shed job."""
        if reason == "draining":
            diagnostic = (
                "admission control: server is draining after a stop "
                "signal (reason=draining); retry against a live instance"
            )
        else:
            diagnostic = (
                f"admission control: {self.pool.pending()} jobs queued "
                f">= cap {self.max_queue} (reason={reason})"
            )
        result = VerificationResult(
            Verdict.UNKNOWN,
            config.name,
            diagnostic=diagnostic,
            stats=normalize_stats({"reason": reason}),
        ).to_dict()
        self._annotate(result, cache_hit=False, queue_wait_s=0.0)
        return result

    def _verify_response(
        self, request_id: Any, result: Dict, cache_hit: bool
    ) -> Dict[str, Any]:
        return {
            "id": request_id,
            "ok": True,
            "result": result,
            "cache_hit": cache_hit,
            "queue_wait_s": result.get("stats", {}).get("queue_wait_s", 0.0),
        }
