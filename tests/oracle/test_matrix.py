"""Engine matrices: spec integrity and config construction."""

import pytest

from repro.oracle.matrix import EngineSpec, build_matrix
from repro.verify.config import VerifierConfig


class TestBuildMatrix:
    def test_known_names(self):
        for name in ("quick", "smt", "full"):
            specs = build_matrix(name)
            assert specs and all(isinstance(s, EngineSpec) for s in specs)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_matrix("nope")

    def test_keys_unique_per_matrix(self):
        for name in ("quick", "smt", "full"):
            keys = [s.key for s in build_matrix(name)]
            assert len(keys) == len(set(keys)), f"duplicate key in {name}"

    def test_matrices_nest(self):
        quick = {s.key for s in build_matrix("quick")}
        smt = {s.key for s in build_matrix("smt")}
        full = {s.key for s in build_matrix("full")}
        assert quick < smt < full

    def test_unsound_flags(self):
        by_key = {s.key: s for s in build_matrix("full")}
        assert by_key["lazy-cseq"].sound_safe is False
        assert all(
            s.sound_unsafe for s in by_key.values()
        ), "no engine claims unsound UNSAFE"


class TestMakeConfig:
    def test_returns_config_with_requested_knobs(self):
        spec = build_matrix("quick")[0]
        cfg = spec.make_config(unwind=3, width=6, time_limit_s=2.5)
        assert isinstance(cfg, VerifierConfig)
        assert cfg.unwind == 3
        assert cfg.width == 6
        assert cfg.time_limit_s == 2.5

    def test_overrides_applied(self):
        by_key = {s.key: s for s in build_matrix("smt")}
        assert by_key["zord/prune0"].make_config().prune_level == 0
        assert by_key["zord/prune1"].make_config().prune_level == 1
        # The schedule is clamped to the final unwind bound.
        sched = by_key["zord/sched"].make_config(unwind=16).unwind_schedule
        assert sched == (1, 2, 4, 8, 16)
        assert by_key["zord/sched"].make_config(unwind=4).unwind_schedule == (1, 2, 4)

    def test_audit_flag_threads_through(self):
        spec = build_matrix("quick")[0]
        assert spec.make_config(audit=True).audit is True
        assert spec.make_config(audit=False).audit is False

    def test_env_independent(self, monkeypatch):
        # make_config(audit=False) must not be flipped by the env var.
        monkeypatch.setenv("REPRO_AUDIT", "1")
        spec = build_matrix("quick")[0]
        assert spec.make_config(audit=False).audit is False

    def test_portfolio_specs(self):
        by_key = {s.key: s for s in build_matrix("full")}
        assert by_key["portfolio/serial"].portfolio
        assert by_key["portfolio/parallel"].jobs == 2
