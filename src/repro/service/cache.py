"""The content-addressed verdict cache.

Two requests hit the same cache entry iff

* their programs have the same **canonical form** -- the parse->unparse
  normal form already exercised by the round-trip tests: whitespace,
  comments, and the unparser's global-declaration normalization all wash
  out, so textually different spellings of the same program share an
  entry; and
* their configs have the same **semantic signature** -- for SMT-engine
  configs exactly :func:`repro.portfolio.sharing.encoding_signature`
  (theory, FR ablation, prune level, unwind, width, memory model,
  schedule), so formula-shaping knobs split entries while search-only
  knobs (cycle detector, unit-edge propagation, conflict caps, VSIDS
  parameters) share them; for non-SMT engines the engine name plus its
  verdict-shaping bounds.

Only conclusive verdicts are stored: a SAFE/UNSAFE verdict at a given
(program, signature) is deterministic across every sound engine and every
search-knob setting, which is what makes sharing entries across search
configurations sound.  UNKNOWN depends on the budget of the run that
produced it and ERROR on a transient crash, so :meth:`VerdictCache.put`
refuses both -- the cache cannot be poisoned by an exhausted or crashed
run.  :meth:`VerdictCache.put` also refuses verdicts produced by a
*fallback* attempt: the cache key signs the request's primary config, but
a fallback engine answers under its own signature -- e.g. a lazy-cseq
SAFE only means "no violation within the round bound" and must never be
served to future requests keyed on a full SMT encoding.

With a ``cache_dir`` the cache is **persistent**: every put is journaled
to a crash-safe append-only log and recovered on the next startup (see
:mod:`repro.service.persist` for the framing, guard, and compaction
story).  Persistence is strictly additive -- the in-memory behaviour,
the key discipline, and the conclusive-only rule are identical either
way, and a cache that cannot reach its disk degrades to in-memory
operation instead of failing requests.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

from repro.lang import ast, parse
from repro.lang.unparse import unparse
from repro.portfolio.sharing import encoding_signature
from repro.service.persist import CacheStore, key_token
from repro.verify.config import VerifierConfig
from repro.verify.result import Verdict

__all__ = [
    "canonical_source",
    "config_signature",
    "cache_key",
    "key_token",
    "VerdictCache",
]

#: Verdicts eligible for caching.
_CACHEABLE = (Verdict.SAFE, Verdict.UNSAFE)

CacheKey = Tuple[str, Tuple]


def _verdict_from_primary(result: Dict) -> bool:
    """Did the result's verdict come from the request's own config?

    With a fallback chain, ``attempts`` records every link in order; the
    primary is always first and :func:`repro.verify.verify` stops at the
    first conclusive attempt.  So the verdict belongs to the primary iff
    no chain ran at all, or the first attempt is the conclusive one.  A
    verdict from any later link was produced under the *fallback's*
    signature, which is not the signature in the cache key.
    """
    attempts = result.get("attempts") or ()
    if not attempts:
        return True
    return attempts[0].get("status") == "conclusive"


def _wire_text(result: Dict) -> str:
    """The compact JSON text a cache entry is kept as."""
    return json.dumps(result, separators=(",", ":"))


def canonical_source(program: Union[str, ast.Program]) -> str:
    """The parse->unparse normal form of ``program``.

    Parse errors raise (callers decide how to surface input errors).
    """
    if isinstance(program, str):
        program = parse(program)
    return unparse(program)


def config_signature(config: VerifierConfig) -> Tuple:
    """The config part of the cache key.

    SMT configs reuse the portfolio sharing signature verbatim.  Non-SMT
    engines have no CNF to sign; their verdict is shaped by the engine
    itself and its exploration bounds, so those are the key.
    """
    sig = encoding_signature(config)
    if sig is not None:
        return sig
    return (
        "engine",
        config.engine,
        config.unwind,
        config.width,
        config.memory_model,
        config.rounds,
    )


def cache_key(
    program: Union[str, ast.Program], config: VerifierConfig
) -> CacheKey:
    """Content address of one verification job: (program digest, config
    signature)."""
    canonical = canonical_source(program)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return (digest, config_signature(config))


class VerdictCache:
    """Bounded LRU map from :func:`cache_key` to wire-format results.

    Thread-safe.  Entries are kept as their wire JSON text, encoded once
    by :meth:`put`; :meth:`get` decodes a fresh dict per call, so callers
    can annotate what they get (``cache_hit``, queue timings) without
    corrupting the stored verdict, and nothing is ever deep-copied.

    With ``cache_dir`` set, entries additionally live in a crash-safe
    journal under that directory and survive restarts: construction
    replays the journal (refusing torn and stale records), every
    successful :meth:`put` appends (fsynced), and the journal is
    periodically compacted into a snapshot.  See
    :mod:`repro.service.persist`.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        cache_dir: Optional[str] = None,
        compact_every: int = 256,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, str]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store = None
        if cache_dir:
            self.store = CacheStore(cache_dir, compact_every=compact_every)
            for key, result in self.store.recover():
                if result.get("verdict") not in _CACHEABLE:
                    # Belt and braces: only conclusive verdicts are ever
                    # journaled, but a hand-edited journal must not
                    # poison the cache either.
                    self.store.discarded_records += 1
                    continue
                with self._lock:
                    self._entries[key] = _wire_text(result)
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Optional[Dict]:
        """The cached wire result for ``key`` (a private copy), or None."""
        with self._lock:
            text = self._entries.get(key)
            if text is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return json.loads(text)

    def put(self, key: CacheKey, result: Dict) -> Optional[str]:
        """Store a wire-format result; returns the stored wire JSON text
        (decode it for a private copy), or None when it was refused.

        Inconclusive results are rejected: an UNKNOWN reflects the budget
        of the run that produced it and an ERROR a (possibly transient)
        crash -- serving either to future identical requests would poison
        the cache with non-verdicts.  Fallback verdicts are rejected too:
        ``key`` signs the primary config, but a verdict from a fallback
        attempt was produced under the fallback engine's own (different)
        signature, so storing it would let e.g. a round-bounded baseline
        SAFE answer for a full SMT solve.
        """
        if result.get("verdict") not in _CACHEABLE:
            return None
        if not _verdict_from_primary(result):
            return None
        text = _wire_text(result)
        with self._lock:
            self._entries[key] = text
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        if self.store is not None:
            # Outside the entry lock: an fsync must not stall readers.
            self.store.append(key, result, cache=self)
        return text

    def entries_for_snapshot(self) -> List[Tuple[CacheKey, Dict]]:
        """A point-in-time copy of the live table, LRU order preserved
        (compaction input)."""
        with self._lock:
            entries = list(self._entries.items())
        return [(key, json.loads(text)) for key, text in entries]

    def compact(self) -> bool:
        """Force a journal compaction now (no-op without persistence)."""
        if self.store is None:
            return False
        return self.store.compact(self.entries_for_snapshot())

    def flush(self) -> None:
        """fsync the journal (drain path; no-op without persistence)."""
        if self.store is not None:
            self.store.flush()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def snapshot(self) -> Dict[str, int]:
        """Counters for the server's ``stats`` op."""
        with self._lock:
            out = {
                "cache_entries": len(self._entries),
                "cache_hits": self.hits,
                "cache_misses": self.misses,
                "cache_evictions": self.evictions,
                "cache_persistent": int(self.store is not None),
            }
        if self.store is not None:
            out.update(self.store.counters())
        return out
