"""The content-addressed verdict cache: key semantics and poisoning
guards.

The key promise: two jobs share a cache entry iff their programs have
the same canonical (parse->unparse) form AND their configs have the same
*semantic* signature.  Formula-shaping knobs must split the key;
search-only knobs must not; inconclusive verdicts must never be stored.
"""

import pytest

from repro.service.cache import (
    VerdictCache,
    cache_key,
    canonical_source,
    config_signature,
)
from repro.verify.config import PRESETS, VerifierConfig
from repro.verify.result import Verdict, VerificationResult

PROGRAM = """
int x = 0, y = 0;
thread t1 { x = 1; y = 1; }
thread t2 { int a; a = y; }
main { start t1; start t2; join t1; join t2; assert(y >= 0); }
"""

#: The same program under cosmetic rewrites the canonical form must
#: erase: extra whitespace, comments, and reordered global declarations
#: (the unparser normalizes the declaration layout).
WHITESPACE_VARIANT = PROGRAM.replace("\n", "\n   ").replace("; ", ";\n")
COMMENT_VARIANT = PROGRAM.replace(
    "thread t1", "// writer thread\nthread t1"
)
REORDER_VARIANT = PROGRAM.replace(
    "int x = 0, y = 0;", "int x = 0;\nint y = 0;"
)


class TestCanonicalForm:
    def test_identity(self):
        assert canonical_source(PROGRAM) == canonical_source(PROGRAM)

    @pytest.mark.parametrize(
        "variant",
        [WHITESPACE_VARIANT, COMMENT_VARIANT, REORDER_VARIANT],
        ids=["whitespace", "comments", "global-reorder"],
    )
    def test_cosmetic_rewrites_share_canonical_form(self, variant):
        assert canonical_source(variant) == canonical_source(PROGRAM)

    def test_different_programs_differ(self):
        other = PROGRAM.replace("x = 1", "x = 2")
        assert canonical_source(other) != canonical_source(PROGRAM)

    def test_ast_and_source_agree(self):
        from repro.lang import parse

        assert canonical_source(parse(PROGRAM)) == canonical_source(PROGRAM)


class TestCacheKey:
    def test_cosmetic_rewrites_share_key(self):
        config = VerifierConfig()
        base = cache_key(PROGRAM, config)
        for variant in (WHITESPACE_VARIANT, COMMENT_VARIANT, REORDER_VARIANT):
            assert cache_key(variant, config) == base

    def test_formula_shaping_knobs_split_key(self, monkeypatch):
        # The default prune level must be the documented 2, not whatever
        # REPRO_PRUNE sets, for "prune_level=0 differs" to be testable.
        monkeypatch.delenv("REPRO_PRUNE", raising=False)
        config = VerifierConfig()
        base = cache_key(PROGRAM, config)
        for knob in (
            dict(prune_level=0),
            dict(unwind=4),
            dict(width=16),
            dict(memory_model="tso"),
            dict(theory="idl"),
            dict(fr_encoding=True),
            dict(unwind_schedule=(2, 8)),
        ):
            assert cache_key(PROGRAM, config.with_(**knob)) != base, knob

    def test_search_only_knobs_share_key(self):
        config = VerifierConfig()
        base = cache_key(PROGRAM, config)
        for knob in (
            dict(detector="tarjan"),
            dict(unit_edge=False),
            dict(max_conflicts=100),
            dict(time_limit_s=1.0),
            dict(memory_limit_mb=64.0),
        ):
            assert cache_key(PROGRAM, config.with_(**knob)) == base, knob

    def test_engines_never_collide(self):
        """Distinct engines get distinct signatures -- lazy-cseq's
        unsound-SAFE regime must never answer for a sound engine."""
        sigs = {}
        for name, factory in PRESETS.items():
            sigs.setdefault(config_signature(factory()), []).append(name)
        for sig, names in sigs.items():
            engines = {PRESETS[n]().engine for n in names}
            assert len(engines) == 1, (sig, names)

    def test_parse_error_propagates(self):
        from repro.lang.parser import ParseError

        with pytest.raises(ParseError):
            cache_key("int x = ;", VerifierConfig())


def _result(verdict) -> dict:
    return VerificationResult(verdict, "zord", wall_time_s=0.1).to_dict()


def _chained_result(verdict, *statuses) -> dict:
    """A wire result whose fallback chain ran with the given per-attempt
    statuses (the verdict belongs to the last non-skipped attempt)."""
    from repro.robustness.fallback import Attempt

    result = VerificationResult(verdict, "zord", wall_time_s=0.1)
    result.attempts = [
        Attempt(f"cfg{i}", "smt/ord" if i == 0 else "lazyseq", status,
                verdict=verdict if status == "conclusive" else "unknown")
        .as_dict()
        for i, status in enumerate(statuses)
    ]
    return result.to_dict()


class TestVerdictCache:
    def test_miss_then_hit(self):
        cache = VerdictCache()
        key = cache_key(PROGRAM, VerifierConfig())
        assert cache.get(key) is None
        assert cache.put(key, _result(Verdict.SAFE))
        hit = cache.get(key)
        assert hit is not None and hit["verdict"] == Verdict.SAFE
        assert cache.hits == 1 and cache.misses == 1

    @pytest.mark.parametrize("verdict", [Verdict.UNKNOWN, Verdict.ERROR])
    def test_inconclusive_verdicts_never_cached(self, verdict):
        """Poisoning guard: budget exhaustion and contained crashes are
        facts about one run, not about the program."""
        cache = VerdictCache()
        key = cache_key(PROGRAM, VerifierConfig())
        assert not cache.put(key, _result(verdict))
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_fallback_verdicts_never_cached(self):
        """Poisoning guard: the cache key signs the *primary* config, but
        a verdict from a fallback attempt was produced under the fallback
        engine's own signature -- e.g. a round-bounded lazy-cseq SAFE must
        never answer for a full SMT solve."""
        cache = VerdictCache()
        key = cache_key(PROGRAM, VerifierConfig())
        fallback_safe = _chained_result(
            Verdict.SAFE, "unknown", "conclusive"
        )
        assert not cache.put(key, fallback_safe)
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_primary_verdict_with_chain_is_cached(self):
        """A chain that concluded on its *first* link answered under the
        request's own signature; caching it is sound."""
        cache = VerdictCache()
        key = cache_key(PROGRAM, VerifierConfig())
        primary_safe = _chained_result(Verdict.SAFE, "conclusive")
        assert cache.put(key, primary_safe)
        assert cache.get(key)["verdict"] == Verdict.SAFE

    def test_returned_entry_is_a_private_copy(self):
        cache = VerdictCache()
        key = cache_key(PROGRAM, VerifierConfig())
        cache.put(key, _result(Verdict.UNSAFE))
        first = cache.get(key)
        first["stats"]["cache_hit"] = 1
        first["verdict"] = "mutated"
        second = cache.get(key)
        assert second["verdict"] == Verdict.UNSAFE
        assert "cache_hit" not in second["stats"]

    def test_lru_eviction(self):
        cache = VerdictCache(max_entries=2)
        keys = [("digest%d" % i, ("sig",)) for i in range(3)]
        for key in keys:
            cache.put(key, _result(Verdict.SAFE))
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2]) is not None
        assert cache.evictions == 1

    def test_snapshot_keys(self):
        snap = VerdictCache().snapshot()
        assert set(snap) == {
            "cache_entries",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_persistent",
        }
        assert snap["cache_persistent"] == 0
