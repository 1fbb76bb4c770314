"""Service-layer chaos: injected faults must never produce a wrong
verdict, lose an acknowledged cached verdict, or hang a client.

Fault specs (``REPRO_FAULTS`` / ``install_faults``) drive the daemon-side
checkpoints added for the durability work: ``kill@service_worker``,
``drop@service_response``, ``delay@service_response``,
``torn@cache_write``, ``crash@cache_compact``.  In-process scenarios
toggle faults programmatically (the fault fires in this process);
worker-kill scenarios seed the fault through the environment before the
pool forks, then clear it so replacement workers come up clean.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.robustness.faults import (
    DropConnection,
    clear_faults,
    install_faults,
)
from repro.service.cache import VerdictCache, cache_key
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceUnavailable,
)
from repro.service.persist import CacheStore, JOURNAL_NAME
from repro.service.server import DRAIN_EXIT_CODE, ServiceServer
from repro.verify.config import VerifierConfig
from repro.verify.result import SCHEMA_VERSION as RESULT_SCHEMA_VERSION

pytestmark = pytest.mark.timeout(300)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

SAFE_PROGRAM = """
int x = 0;
thread t { x = x + 1; }
main { start t; join t; assert(x == 1); }
"""

OTHER_PROGRAM = """
int y = 0;
thread t { y = y + 2; }
main { start t; join t; assert(y == 2); }
"""


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    clear_faults()
    yield
    clear_faults()


def _request(server, req):
    return asyncio.run(server.handle_request(req))


def _key(n=0):
    return cache_key(SAFE_PROGRAM, VerifierConfig(unwind=2 + n))


def _result(verdict="safe"):
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "verdict": verdict,
        "config": "test",
        "wall_time_s": 0.01,
        "stats": {},
    }


def _spawn_tcp_daemon(tmp_path=None, faults=None, cache_dir=None):
    """Start a real ``repro serve --tcp`` daemon; returns (proc, addr)."""
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--tcp", "127.0.0.1:0", "--workers", "1",
    ]
    if cache_dir:
        cmd += ["--cache-dir", cache_dir]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, cwd=REPO_ROOT, env=env,
    )
    line = proc.stdout.readline()  # readiness marker with the bound port
    assert "listening on" in line, line
    port = int(line.rsplit(":", 1)[1])
    return proc, f"127.0.0.1:{port}"


def _stop_daemon(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10)


@pytest.mark.slow
class TestWorkerKill:
    def test_killed_worker_reports_error_then_recovers(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL mid-job: the request resolves to a *reported* ERROR
        (never a wrong or fabricated verdict), nothing is cached, a
        replacement worker serves the retry correctly."""
        monkeypatch.setenv("REPRO_FAULTS", "kill@service_worker")
        server = ServiceServer(workers=1, cache_dir=str(tmp_path))
        try:
            server.start_pool()  # worker forks with the kill fault armed
            monkeypatch.delenv("REPRO_FAULTS")  # replacements fork clean

            req = {"id": 1, "op": "verify", "source": SAFE_PROGRAM}
            first = _request(server, req)
            assert first["ok"]
            assert first["result"]["verdict"] == "error"
            assert "worker died" in first["result"]["diagnostic"]
            assert len(server.cache) == 0  # an ERROR is never cached

            deadline = time.monotonic() + 30
            while server.pool.alive() < 1:
                assert time.monotonic() < deadline, "no replacement worker"
                time.sleep(0.1)
            second = _request(server, dict(req, id=2))
            assert second["result"]["verdict"] == "safe"
            assert server.pool.recycles >= 1
        finally:
            server.close()


class TestResponseFaults:
    def test_drop_severs_instead_of_answering(self):
        server = ServiceServer(workers=1)
        try:
            install_faults("drop@service_response")
            with pytest.raises(DropConnection):
                asyncio.run(
                    server.handle_line(json.dumps({"id": 1, "op": "ping"}))
                )
            clear_faults()
            line = asyncio.run(
                server.handle_line(json.dumps({"id": 2, "op": "ping"}))
            )
            assert json.loads(line)["pong"]
        finally:
            clear_faults()
            server.close()

    def test_delay_slows_but_never_corrupts(self):
        server = ServiceServer(workers=1)
        try:
            install_faults("delay@service_response:0.2")
            start = time.monotonic()
            line = asyncio.run(
                server.handle_line(json.dumps({"id": 1, "op": "ping"}))
            )
            assert time.monotonic() - start >= 0.2
            response = json.loads(line)
            assert response["ok"] and response["pong"]
        finally:
            clear_faults()
            server.close()

    def test_misspelt_env_spec_still_answers(self, monkeypatch):
        """A malformed ``REPRO_FAULTS`` fails loudly without costing the
        server its response line."""
        server = ServiceServer(workers=1)
        try:
            monkeypatch.setenv("REPRO_FAULTS", "delay@service_respons")
            line = asyncio.run(
                server.handle_line(json.dumps({"id": 1, "op": "ping"}))
            )
            response = json.loads(line)
            assert response["id"] == 1 and not response["ok"]
            assert "service_respons" in response["error"]
        finally:
            server.close()

    @pytest.mark.slow
    def test_dropped_connections_never_hang_the_client(self):
        """A daemon dropping every response: the client's bounded retries
        surface ServiceUnavailable -- never an indefinite hang -- and the
        daemon itself stays alive."""
        proc, addr = _spawn_tcp_daemon(faults="drop@service_response")
        try:
            client = ServiceClient.connect(
                addr,
                retry=RetryPolicy(attempts=2, base_delay_s=0.01),
                request_timeout_s=10.0,
            )
            try:
                start = time.monotonic()
                with pytest.raises(ServiceUnavailable):
                    client.ping()
                assert time.monotonic() - start < 30.0
            finally:
                client.close()
            assert proc.poll() is None  # the fault drops lines, not the daemon
        finally:
            _stop_daemon(proc)


class TestTornCacheWrite:
    def test_only_the_torn_record_is_lost(self, tmp_path):
        """Appends before AND after a torn write survive recovery: the
        journal resynchronizes framing instead of gluing the next frame
        onto the partial line."""
        store = CacheStore(str(tmp_path))
        assert store.append(_key(0), _result())
        install_faults("torn@cache_write")
        assert not store.append(_key(1), _result())
        assert store.torn_writes == 1
        clear_faults()
        assert store.append(_key(2), _result())
        store.close()

        fresh = CacheStore(str(tmp_path))
        entries = fresh.recover()
        assert [k for k, _ in entries] == [_key(0), _key(2)]
        assert fresh.discarded_records == 1

    def test_reopened_store_resynchronizes_after_crash(self, tmp_path):
        """A real crash mid-append (partial line at EOF, process gone):
        the next process's appends must still be recoverable."""
        store = CacheStore(str(tmp_path))
        store.append(_key(0), _result())
        install_faults("torn@cache_write")
        store.append(_key(1), _result())  # partial frame, then "crash"
        clear_faults()
        store.close()

        reopened = CacheStore(str(tmp_path))
        assert reopened.append(_key(2), _result())
        reopened.close()

        fresh = CacheStore(str(tmp_path))
        entries = fresh.recover()
        assert [k for k, _ in entries] == [_key(0), _key(2)]
        assert fresh.discarded_records == 1

    @pytest.mark.slow
    def test_server_survives_torn_write_end_to_end(self, tmp_path):
        """With torn@cache_write armed the client still gets the right
        verdict; after a restart the cleanly-journaled verdict is served
        from cache and the torn one is recomputed -- never misread."""
        server = ServiceServer(workers=1, cache_dir=str(tmp_path))
        try:
            first = _request(
                server, {"id": 1, "op": "verify", "source": SAFE_PROGRAM}
            )
            assert first["result"]["verdict"] == "safe"
            install_faults("torn@cache_write")
            second = _request(
                server, {"id": 2, "op": "verify", "source": OTHER_PROGRAM}
            )
            assert second["result"]["verdict"] == "safe"  # still correct
            assert server.cache.store.torn_writes == 1
        finally:
            clear_faults()
            server.close()

        restarted = ServiceServer(workers=1, cache_dir=str(tmp_path))
        try:
            replay = _request(
                restarted, {"id": 1, "op": "verify", "source": SAFE_PROGRAM}
            )
            assert replay["cache_hit"]
            assert replay["result"]["verdict"] == "safe"
            redo = _request(
                restarted, {"id": 2, "op": "verify", "source": OTHER_PROGRAM}
            )
            assert not redo["cache_hit"]  # torn entry was refused, not misread
            assert redo["result"]["verdict"] == "safe"
        finally:
            restarted.close()


class TestCompactionCrash:
    def test_crash_between_snapshot_and_rotate_loses_nothing(self, tmp_path):
        store = CacheStore(str(tmp_path))
        entries = [(_key(n), _result()) for n in range(4)]
        for key, result in entries:
            store.append(key, result)
        journal_size = os.path.getsize(tmp_path / JOURNAL_NAME)

        install_faults("crash@cache_compact")
        assert not store.compact(entries)
        assert store.compaction_failures == 1
        # The journal was NOT rotated: every entry still lives there.
        assert os.path.getsize(tmp_path / JOURNAL_NAME) == journal_size
        clear_faults()
        store.close()

        fresh = CacheStore(str(tmp_path))
        recovered = fresh.recover()
        # Snapshot replayed + journal replayed over it: idempotent, and
        # nothing lost.
        assert dict(recovered).keys() == {k for k, _ in entries}

    def test_compaction_succeeds_after_faults_cleared(self, tmp_path):
        cache = VerdictCache(cache_dir=str(tmp_path))
        for n in range(3):
            cache.put(_key(n), _result())
        install_faults("crash@cache_compact")
        assert not cache.compact()
        clear_faults()
        assert cache.compact()
        assert os.path.getsize(tmp_path / JOURNAL_NAME) == 0
        cache.close()

        fresh = VerdictCache(cache_dir=str(tmp_path))
        assert len(fresh) == 3
        fresh.close()


@pytest.mark.slow
class TestDrainSignal:
    def test_sigterm_drains_with_distinct_exit_code(self, tmp_path):
        """kill -TERM: the daemon sheds, flushes the journal, exits with
        DRAIN_EXIT_CODE; a restart serves the pre-drain verdict from the
        recovered journal."""
        cache_dir = str(tmp_path / "cache")
        proc, addr = _spawn_tcp_daemon(cache_dir=cache_dir)
        try:
            with ServiceClient.connect(addr) as client:
                result = client.verify(SAFE_PROGRAM)
                assert result.verdict == "safe"
                health = client.health()
                assert health["status"] == "ok" and not health["draining"]
                assert client.ready()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == DRAIN_EXIT_CODE
        finally:
            _stop_daemon(proc)

        proc, addr = _spawn_tcp_daemon(cache_dir=cache_dir)
        try:
            with ServiceClient.connect(addr) as client:
                result = client.verify(SAFE_PROGRAM)
                assert result.verdict == "safe"
                assert result.stats["cache_hit"] == 1
        finally:
            _stop_daemon(proc)
