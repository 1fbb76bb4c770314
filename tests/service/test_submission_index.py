"""The server's submission index: a byte-identical resubmission reuses
the cache key it derived before, without translating, parsing or
canonicalizing again.

The index key is (language, Python filename, source bytes, config
signature); its value is the cache key and, for Python, the translated
mini source -- so a resubmission that misses the verdict cache still
hands the worker mini-language source, never Python.
"""

import asyncio

import pytest

import repro.pyfront
from repro.lang.unparse import unparse
from repro.pyfront import translate_source
from repro.service import cache as cache_module
from repro.service.server import ServiceServer

from tests.pyfront.corpus import example

PROGRAM = """
int x = 0;
thread t { x = x + 1; }
main { start t; join t; assert(x == 1); }
"""

#: PROGRAM reformatted: same canonical form, different bytes.
TWIN = PROGRAM.replace("thread t", "// the writer\nthread t")

OTHERS = [
    PROGRAM.replace("x + 1", f"x + {n}").replace("x == 1", f"x == {n}")
    for n in (2, 3)
]

RACY_PY = open(example("counter_unsafe.py")).read()

BAD_SUBSET_PY = """\
import threading
import os

x = 0
"""


def _request(server, **fields):
    req = dict({"id": 1, "op": "verify"}, **fields)
    return asyncio.run(server.handle_request(req))


@pytest.fixture()
def server():
    srv = ServiceServer(workers=1, max_queue=4)
    yield srv
    srv.close()


@pytest.fixture()
def derivations(monkeypatch):
    """Count calls of the two derivation steps the index skips."""
    calls = {"canonical_source": 0, "translate_source": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        cache_module, "canonical_source",
        counting("canonical_source", cache_module.canonical_source),
    )
    monkeypatch.setattr(
        repro.pyfront, "translate_source",
        counting("translate_source", repro.pyfront.translate_source),
    )
    return calls


def _index_stats(server):
    stats = server.stats()
    return stats["submission_hits"], stats["submission_entries"]


class TestExactRepeat:
    def test_mini_repeat_skips_canonicalization(self, server, derivations):
        first = _request(server, source=PROGRAM)
        assert first["ok"] and not first["cache_hit"]
        assert derivations["canonical_source"] == 1
        second = _request(server, source=PROGRAM)
        assert second["ok"] and second["cache_hit"]
        assert second["result"]["verdict"] == first["result"]["verdict"]
        assert derivations["canonical_source"] == 1
        assert _index_stats(server) == (1, 1)

    def test_python_repeat_skips_translation(self, server, derivations):
        req = dict(source=RACY_PY, language="python", filename="c.py")
        first = _request(server, **req)
        assert first["ok"] and first["result"]["verdict"] == "unsafe"
        assert derivations == {"canonical_source": 1, "translate_source": 1}
        second = _request(server, **req)
        assert second["ok"] and second["cache_hit"]
        assert derivations == {"canonical_source": 1, "translate_source": 1}
        assert _index_stats(server) == (1, 1)

    def test_reformatted_twin_hits_through_derivation(
        self, server, derivations
    ):
        assert not _request(server, source=PROGRAM)["cache_hit"]
        twin = _request(server, source=TWIN)
        assert twin["ok"] and twin["cache_hit"]
        assert derivations["canonical_source"] == 2
        # The twin's own bytes are indexed too, under the shared key.
        assert _index_stats(server) == (0, 2)


class TestIndexHitCacheMiss:
    def test_python_resubmission_sends_the_worker_mini_source(self, server):
        """An UNKNOWN is not cached, so the resubmission misses the cache
        after hitting the index: the worker must get the translated mini
        source the first derivation remembered."""
        server.start_pool()
        submitted = []
        submit = server.pool.submit

        def spy(source, config_dict, ckpt_token):
            submitted.append(source)
            return submit(source, config_dict, ckpt_token)

        server.pool.submit = spy
        req = dict(source=RACY_PY, language="python",
                   filename="counter_unsafe.py", deadline_s=1e-9)
        for _ in range(2):
            resp = _request(server, **req)
            assert resp["ok"] and resp["result"]["verdict"] == "unknown"
            assert not resp["cache_hit"]
        mini = unparse(
            translate_source(RACY_PY, filename="counter_unsafe.py").program
        )
        assert submitted == [mini, mini]
        assert _index_stats(server) == (1, 1)


class TestNeverIndexed:
    def test_parse_errors(self, server):
        for _ in range(2):
            resp = _request(server, source="int x = ;")
            assert not resp["ok"] and "ParseError" in resp["error"]
        assert _index_stats(server) == (0, 0)

    def test_lex_errors(self, server):
        for _ in range(2):
            resp = _request(server, source="int x = 0 $;")
            assert not resp["ok"] and "LexError" in resp["error"]
        assert _index_stats(server) == (0, 0)

    def test_subset_errors(self, server):
        for _ in range(2):
            resp = _request(server, source=BAD_SUBSET_PY, language="python",
                            filename="bad.py")
            assert resp["ok"] and resp["result"]["verdict"] == "error"
            assert "bad.py:2:" in resp["result"]["diagnostic"]
        assert _index_stats(server) == (0, 0)


class TestIndexKey:
    def test_evicts_at_cache_size(self, derivations):
        server = ServiceServer(workers=1, cache_size=2)
        try:
            for source in [PROGRAM] + OTHERS:
                assert _request(server, source=source)["ok"]
            assert _index_stats(server) == (0, 2)
            # The oldest submission was evicted: it derives again.
            assert _request(server, source=PROGRAM)["ok"]
            assert derivations["canonical_source"] == 4
            assert _index_stats(server) == (0, 2)
            # The newest one is still indexed.
            assert _request(server, source=OTHERS[-1])["ok"]
            assert derivations["canonical_source"] == 4
            assert _index_stats(server) == (1, 2)
        finally:
            server.close()

    def test_search_knobs_share_an_entry_unwind_splits(self, server):
        assert not _request(
            server, source=PROGRAM, config={"preset": "zord"}
        )["cache_hit"]
        assert _request(
            server, source=PROGRAM, config={"preset": "zord-tarjan"}
        )["cache_hit"]
        assert _index_stats(server) == (1, 1)
        assert not _request(
            server, source=PROGRAM, config={"preset": "zord", "unwind": 4}
        )["cache_hit"]
        assert _index_stats(server) == (1, 2)

    def test_python_filename_is_part_of_the_key(self, server, derivations):
        for name in ("a.py", "b.py"):
            resp = _request(server, source=RACY_PY, language="python",
                            filename=name)
            assert resp["ok"] and resp["result"]["verdict"] == "unsafe"
        # Two index entries (two derivations), one shared verdict.
        assert derivations["translate_source"] == 2
        assert _index_stats(server) == (0, 2)
        assert len(server.cache) == 1
