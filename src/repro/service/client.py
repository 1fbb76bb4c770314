"""Typed clients for the verification service.

:class:`ServiceClient` is the synchronous client -- either connected to a
running TCP daemon (:meth:`ServiceClient.connect`) or owning a private
stdio daemon it spawned as a subprocess (:meth:`ServiceClient.spawn`,
handy for tests and one-off scripts: the server dies with the client).
:class:`AsyncServiceClient` is an asyncio facade over it for TCP.

Both speak the JSON-lines protocol of :mod:`repro.service.protocol` and
translate wire results back into first-class
:class:`~repro.verify.result.VerificationResult` objects, so calling
``client.verify(...)`` is a drop-in for the in-process
:func:`repro.api.verify` -- same type, same verdicts, same stats keys
(plus ``cache_hit`` / ``queue_wait_s`` / ``worker_recycles``).

Protocol-level failures (bad program text, bad config, malformed
responses, a dead server) raise :class:`ServiceError`.  Engine-level
outcomes (budget exhaustion, contained crashes, load shedding) do *not*
raise -- they come back as UNKNOWN/ERROR verdicts, exactly like the
library API.

**Resilience** (TCP clients): connection attempts honour a connect
timeout (a dead or blackholed target fails fast instead of hanging),
reads honour an optional ``request_timeout_s``, and transport-level
failures -- refused/ dropped connections, mid-request disconnects, read
timeouts -- are retried on a fresh connection with capped exponential
backoff and jitter (:class:`RetryPolicy`).  Only *idempotent* operations
are retried: every op except ``shutdown`` qualifies (``verify`` is
content-addressed and coalesced server-side, the rest are read-only).
Distinct failures stay distinguishable: :class:`ServiceTimeout` for
deadlines, :class:`ServiceUnavailable` for transport trouble, plain
:class:`ServiceError` for a delivered ``ok: false`` answer -- delivered
answers are never retried.  ``hedge_after_s`` additionally enables
tail-latency hedging of ``verify``: when the primary connection has not
answered in time, the same request is raced on a second connection and
the first answer wins -- safe because the server coalesces identical
in-flight requests, so a hedge costs one duplicate line, not one
duplicate solve.

Spawned stdio daemons (:meth:`ServiceClient.spawn`) are reaped even when
the client is never closed: a ``weakref.finalize`` hook closes the
daemon's stdin and waits for it (escalating to kill) when the client is
garbage-collected, so leaked clients cannot strand daemon processes.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import queue as queue_mod
import random
import socket
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

from repro.service import protocol
from repro.verify.config import VerifierConfig
from repro.verify.result import VerificationResult

__all__ = [
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
    "RetryPolicy",
    "ServiceClient",
    "AsyncServiceClient",
]


class ServiceError(Exception):
    """The service answered ``ok: false`` or the transport failed."""


class ServiceTimeout(ServiceError):
    """A connect or request deadline expired client-side."""


class ServiceUnavailable(ServiceError):
    """Transport-level failure: connection refused, dropped, or closed
    mid-request.  Retried automatically for idempotent ops."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for idempotent retries.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry *n* (0-based) is ``base_delay_s * 2**n`` capped at
    ``max_delay_s``, scaled by a uniform random factor in
    ``[1 - jitter, 1]`` so synchronized clients do not reconnect in
    lockstep after a daemon restart.
    """

    attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, retry_index: int) -> float:
        raw = min(self.max_delay_s, self.base_delay_s * (2.0 ** retry_index))
        return raw * (1.0 - self.jitter * random.random())


def _reap_spawned_daemon(proc: "subprocess.Popen") -> None:
    """Finalizer for spawned stdio daemons: EOF its stdin (the server's
    clean-exit signal), wait, escalate to kill.  Module-level so the
    weakref.finalize hook holds no reference to the client."""
    if proc.poll() is not None:
        return
    try:
        if proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass


def _prepare_verify_fields(
    program: Union[str, Any],
    config: Optional[Union[VerifierConfig, Dict]],
    deadline_s: Optional[float],
    language: Optional[str] = None,
    filename: Optional[str] = None,
) -> Dict[str, Any]:
    if not isinstance(program, str):
        from repro.lang.unparse import unparse

        program = unparse(program)
    fields: Dict[str, Any] = {"source": program}
    if language is not None:
        fields["language"] = language
    if filename is not None:
        fields["filename"] = filename
    if config is not None:
        fields["config"] = (
            config.to_dict() if isinstance(config, VerifierConfig) else config
        )
    if deadline_s is not None:
        fields["deadline_s"] = deadline_s
    return fields


def _result_from_response(response: Dict[str, Any]) -> VerificationResult:
    if not response.get("ok"):
        raise ServiceError(response.get("error", "unspecified service error"))
    try:
        return VerificationResult.from_dict(response["result"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed verify response: {exc}") from None


def _checked(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise ServiceError(response.get("error", "unspecified service error"))
    return response


class _RequestMatcher:
    """Id assignment and response matching.

    Responses arrive in completion order, not request order, so the client
    stashes responses whose id is not the one currently awaited (relevant
    once callers pipeline by issuing requests from several threads or
    async tasks over one client -- the protocol allows it).
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._stash: Dict[Any, Dict[str, Any]] = {}

    def next_id(self) -> int:
        return next(self._ids)

    def take(self, request_id: int) -> Optional[Dict[str, Any]]:
        return self._stash.pop(request_id, None)

    def offer(self, response: Dict[str, Any], request_id: int) -> bool:
        """True if ``response`` answers ``request_id``; else stash it."""
        if response.get("id") == request_id:
            return True
        self._stash[response.get("id")] = response
        return False


def _decode_response(line: str) -> Dict[str, Any]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"malformed response from server: {exc}") from None
    if not isinstance(obj, dict):
        raise ServiceError(
            f"malformed response from server: expected object, "
            f"got {type(obj).__name__}"
        )
    return obj


class ServiceClient:
    """Synchronous JSON-lines client (see module docstring)."""

    def __init__(
        self,
        reader,
        writer,
        proc=None,
        sock=None,
        address: Optional[str] = None,
        connect_timeout_s: float = 10.0,
        request_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        hedge_after_s: Optional[float] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._proc = proc
        self._sock = sock
        self._address = address
        self._connect_timeout_s = connect_timeout_s
        self._request_timeout_s = request_timeout_s
        self._retry = retry or RetryPolicy()
        self._hedge_after_s = hedge_after_s
        self._matcher = _RequestMatcher()
        self._write_lock = threading.Lock()
        self._read_lock = threading.Lock()
        self._closed = False
        self._broken = False
        self._finalizer = (
            weakref.finalize(self, _reap_spawned_daemon, proc)
            if proc is not None
            else None
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def _open_socket(address: str, timeout: float, read_timeout):
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(f"expected HOST:PORT, got {address!r}")
        try:
            sock = socket.create_connection((host, int(port_text)), timeout)
        except socket.timeout:
            raise ServiceTimeout(
                f"connect to repro service at {address} timed out "
                f"after {timeout:g}s"
            ) from None
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot connect to repro service at {address}: {exc}"
            ) from None
        # The read timeout stays on the socket: a response that does not
        # arrive in time raises through the buffered stream, the client
        # discards the (now unframed) connection and reconnects.
        sock.settimeout(read_timeout)
        # Separate read and write streams: a write on a shared "rw" text
        # stream discards its decoded read-ahead, which loses responses
        # when threads pipeline requests over one connection.
        reader = sock.makefile("r", encoding="utf-8", newline="\n")
        writer = sock.makefile("w", encoding="utf-8", newline="\n")
        return sock, reader, writer

    @classmethod
    def connect(
        cls,
        address: str,
        timeout: float = 10.0,
        request_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        hedge_after_s: Optional[float] = None,
    ) -> "ServiceClient":
        """Connect to a running TCP daemon at ``"HOST:PORT"``.

        ``timeout`` bounds the connection attempt (a dead target raises
        :class:`ServiceTimeout`/:class:`ServiceUnavailable` instead of
        hanging); ``request_timeout_s`` bounds each response read;
        ``retry`` configures idempotent-op retries across reconnects;
        ``hedge_after_s`` enables tail-latency hedging of ``verify``.
        """
        sock, reader, writer = cls._open_socket(
            address, timeout, request_timeout_s
        )
        return cls(
            reader,
            writer,
            sock=sock,
            address=address,
            connect_timeout_s=timeout,
            request_timeout_s=request_timeout_s,
            retry=retry,
            hedge_after_s=hedge_after_s,
        )

    @classmethod
    def spawn(
        cls,
        workers: Optional[int] = None,
        recycle_after: Optional[int] = None,
        max_queue: Optional[int] = None,
        cache_size: Optional[int] = None,
        time_limit_s: Optional[float] = None,
        cache_dir: Optional[str] = None,
    ) -> "ServiceClient":
        """Start a private ``repro serve --stdio`` daemon and connect to
        it over its pipes.  The daemon exits when the client closes (or,
        failing that, when the client is garbage-collected -- a
        finalizer reaps it)."""
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--stdio"]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        if recycle_after is not None:
            cmd += ["--recycle-after", str(recycle_after)]
        if max_queue is not None:
            cmd += ["--max-queue", str(max_queue)]
        if cache_size is not None:
            cmd += ["--cache-size", str(cache_size)]
        if time_limit_s is not None:
            cmd += ["--time-limit", str(time_limit_s)]
        if cache_dir is not None:
            cmd += ["--cache-dir", cache_dir]
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,  # line-buffered pipes: one request/response per line
        )
        return cls(proc.stdout, proc.stdin, proc=proc)

    # ------------------------------------------------------------------
    # Core request/response
    # ------------------------------------------------------------------

    def _reconnect(self) -> None:
        """Replace a broken TCP connection (the old one's framing is
        unusable after a timeout or mid-response failure)."""
        if self._address is None:
            raise ServiceUnavailable("connection lost (not reconnectable)")
        with self._write_lock:
            self._close_socket()
            self._sock, self._reader, self._writer = self._open_socket(
                self._address, self._connect_timeout_s, self._request_timeout_s
            )
            self._broken = False

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, block for its (id-matched) response.

        Idempotent ops (everything but ``shutdown``) are retried with
        backoff across reconnects on transport failures when the client
        was built from :meth:`connect`.
        """
        retryable = op != "shutdown" and self._address is not None
        attempts = self._retry.attempts if retryable else 1
        last_exc: Optional[ServiceError] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self._retry.delay(attempt - 1))
            if self._broken and self._address is not None:
                try:
                    self._reconnect()
                except ServiceError as exc:
                    last_exc = exc
                    continue
            try:
                return self._request_once(op, fields)
            except (ServiceTimeout, ServiceUnavailable) as exc:
                self._broken = True
                last_exc = exc
        assert last_exc is not None
        raise last_exc

    def _request_once(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceError("client is closed")
        request_id = self._matcher.next_id()
        payload = {"id": request_id, "op": op}
        payload.update(fields)
        try:
            with self._write_lock:
                self._writer.write(protocol.encode(payload))
                self._writer.flush()
        except socket.timeout:
            raise ServiceTimeout(
                f"request send timed out after {self._request_timeout_s:g}s"
            ) from None
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise ServiceUnavailable(f"cannot send request: {exc}") from None
        while True:
            stashed = self._matcher.take(request_id)
            if stashed is not None:
                return stashed
            # One reader at a time; a pipelining thread whose response was
            # read (and stashed) by another thread picks it up on the next
            # loop turn instead of blocking in readline() forever.
            with self._read_lock:
                stashed = self._matcher.take(request_id)
                if stashed is not None:
                    return stashed
                try:
                    line = self._reader.readline()
                except socket.timeout:
                    raise ServiceTimeout(
                        "no response within "
                        f"{self._request_timeout_s:g}s"
                    ) from None
                except OSError as exc:
                    raise ServiceUnavailable(
                        f"cannot read response: {exc}"
                    ) from None
                if not line:
                    raise ServiceUnavailable("server closed the connection")
                if not line.strip():
                    continue
                response = _decode_response(line)
                if self._matcher.offer(response, request_id):
                    return response

    # ------------------------------------------------------------------
    # Typed operations
    # ------------------------------------------------------------------

    def verify(
        self,
        program: Union[str, Any],
        config: Optional[Union[VerifierConfig, Dict]] = None,
        deadline_s: Optional[float] = None,
        language: Optional[str] = None,
        filename: Optional[str] = None,
    ) -> VerificationResult:
        """Verify ``program`` (source text or AST) on the server.

        Returns the same :class:`VerificationResult` the in-process API
        would, with the service stats (``cache_hit``, ``queue_wait_s``,
        ``worker_recycles``) merged into ``result.stats``.

        ``language="python"`` submits Python ``threading`` source: the
        server translates it (:mod:`repro.pyfront`) before keying the
        cache, and subset violations come back as structured ERROR
        verdicts whose diagnostic carries ``filename:line:col`` (pass
        ``filename`` so those point at the real file).

        With ``hedge_after_s`` configured (TCP only), a primary answer
        slower than the hedge delay races a duplicate of the request on
        a second connection; the first answer wins.  Safe: the server
        coalesces identical in-flight requests, so the duplicate shares
        the primary's job instead of spawning a second solve.
        """
        fields = _prepare_verify_fields(
            program, config, deadline_s, language=language, filename=filename
        )
        if self._hedge_after_s is None or self._address is None:
            return _result_from_response(self.request("verify", **fields))
        return _result_from_response(self._hedged_request(fields))

    def _hedged_request(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Race the primary connection against a late second connection
        carrying the same request; first answer wins."""
        answers: "queue_mod.Queue" = queue_mod.Queue()

        def _primary() -> None:
            try:
                answers.put((self.request("verify", **fields), None))
            except BaseException as exc:  # noqa: BLE001 - relayed below
                answers.put((None, exc))

        def _hedge() -> None:
            try:
                hedge_client = ServiceClient.connect(
                    self._address,
                    timeout=self._connect_timeout_s,
                    request_timeout_s=self._request_timeout_s,
                    retry=self._retry,
                )
                try:
                    answers.put(
                        (hedge_client.request("verify", **fields), None)
                    )
                finally:
                    hedge_client.close()
            except BaseException as exc:  # noqa: BLE001 - relayed below
                answers.put((None, exc))

        threading.Thread(
            target=_primary, name="service-client-primary", daemon=True
        ).start()
        try:
            response, exc = answers.get(timeout=self._hedge_after_s)
        except queue_mod.Empty:
            threading.Thread(
                target=_hedge, name="service-client-hedge", daemon=True
            ).start()
            response, exc = answers.get()
            if exc is not None:
                # First finisher failed; the race is still two-horse, so
                # wait for the other leg before giving up.
                response, exc = answers.get()
        if exc is not None:
            raise exc
        return response

    def analyze(
        self, program: Union[str, Any], unwind: int = 8, width: int = 8
    ) -> Dict[str, Any]:
        """Static race report; ``races`` holds RaceWarning objects."""
        fields = _prepare_verify_fields(program, None, None)
        response = _checked(
            self.request("analyze", unwind=unwind, width=width, **fields)
        )
        from repro.analysis.races import RaceWarning

        report = dict(response["report"])
        report["races"] = [RaceWarning.from_dict(w) for w in report["races"]]
        return report

    def ping(self) -> Dict[str, Any]:
        return _checked(self.request("ping"))

    def stats(self) -> Dict[str, Any]:
        return _checked(self.request("stats"))["stats"]

    def health(self) -> Dict[str, Any]:
        """Liveness probe: draining state, queue depth, worker liveness,
        cache counters."""
        return _checked(self.request("health"))["health"]

    def ready(self) -> bool:
        """Admission probe: should new work be routed to this daemon?"""
        return bool(_checked(self.request("ready"))["ready"])

    def shutdown(self) -> None:
        """Ask the server to exit (tolerates it dying before answering)."""
        try:
            self.request("shutdown")
        except ServiceError:
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            # close() does the reaping itself; the GC hook would only
            # re-wait on an already-dead process.
            self._finalizer.detach()
        if self._proc is not None:
            # Closing stdin is the stdio server's EOF; it drains and exits.
            try:
                self._writer.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=5.0)
            try:
                self._reader.close()
            except OSError:
                pass
            return
        self._close_socket()

    def _close_socket(self) -> None:
        """Close the TCP connection.  The socket shuts down first, so a
        thread blocked reading (a hedged primary, say) wakes with EOF
        instead of holding the read stream's lock through ``close``."""
        closers = [self._reader, self._writer]
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            closers.append(self._sock)
        for closer in closers:
            try:
                closer.close()
            except (OSError, ValueError):
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _in_thread(name: str):
    """An awaitable twin of ``ServiceClient.<name>`` that runs the sync
    call on the client's own threads."""

    async def method(self, *args: Any, **kwargs: Any) -> Any:
        return await self._call(
            getattr(self._client, name), *args, **kwargs
        )

    method.__name__ = name
    method.__doc__ = f"Awaitable :meth:`ServiceClient.{name}`."
    return method


class AsyncServiceClient:
    """Asyncio facade over :class:`ServiceClient` for TCP.

    Every call runs the sync client's method on a thread of the client's
    own executor, so timeouts, idempotent retries, reconnects, the
    response stash and hedging exist once.  Concurrent awaits pipeline
    over the one connection, exactly as concurrent threads do on the sync
    client; up to :attr:`MAX_IN_FLIGHT` of them are on the wire at once
    (the rest wait for a thread), and the loop's default executor is left
    to its other users.  Cancelling an await abandons its response: the
    request itself runs to completion or to ``request_timeout_s``.
    """

    #: Calls one client keeps in flight at once (threads are started
    #: only as concurrency demands them).
    MAX_IN_FLIGHT = 128

    def __init__(self, client: ServiceClient) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._client = client
        self._executor = ThreadPoolExecutor(
            max_workers=self.MAX_IN_FLIGHT,
            thread_name_prefix="repro-async-client",
        )

    async def _call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    @classmethod
    async def connect(
        cls,
        address: str,
        timeout: float = 10.0,
        request_timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        hedge_after_s: Optional[float] = None,
    ) -> "AsyncServiceClient":
        """Connect to a running TCP daemon (see :meth:`ServiceClient.connect`)."""
        client = await asyncio.to_thread(
            ServiceClient.connect,
            address,
            timeout=timeout,
            request_timeout_s=request_timeout_s,
            retry=retry,
            hedge_after_s=hedge_after_s,
        )
        return cls(client)

    request = _in_thread("request")
    verify = _in_thread("verify")
    analyze = _in_thread("analyze")
    ping = _in_thread("ping")
    stats = _in_thread("stats")
    health = _in_thread("health")
    ready = _in_thread("ready")
    shutdown = _in_thread("shutdown")

    async def close(self) -> None:
        """Close the connection and release the client's threads."""
        try:
            await self._call(self._client.close)
        finally:
            self._executor.shutdown(wait=False)

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
