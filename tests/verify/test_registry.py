"""The engine table: lookup, config validation, lazy engine imports and
the worker warm-up derived from it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify import Verdict, VerifierConfig, verify, registry
from repro.verify.config import PRESETS
from repro.verify.result import VerificationResult

ROOT = Path(__file__).resolve().parents[2]


def _always_safe(program, config, telemetry=None):
    return VerificationResult(Verdict.SAFE, config.name)


def _run_isolated(code: str) -> dict:
    """Run ``code`` in a fresh interpreter without ``REPRO_*`` overrides
    (they would change which optional modules a run loads) and decode
    the JSON it prints."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestConfigValidation:
    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(ValueError) as excinfo:
            VerifierConfig(engine="nope")
        # The error names the known alternatives.
        assert "unknown engine" in str(excinfo.value)
        assert "smt" in str(excinfo.value)

    def test_unknown_theory_rejected_at_construction(self):
        with pytest.raises(ValueError, match="theory"):
            VerifierConfig(theory="bogus")

    def test_unknown_detector_rejected_at_construction(self):
        with pytest.raises(ValueError, match="detector"):
            VerifierConfig(detector="floyd")

    def test_weak_memory_rejected_for_non_smt_engines(self):
        for preset in (VerifierConfig.cpa_seq, VerifierConfig.lazy_cseq,
                       VerifierConfig.dartagnan, VerifierConfig.nidhugg_rfsc):
            with pytest.raises(ValueError, match="memory model"):
                preset(memory_model="tso")

    def test_valid_combinations_construct(self):
        VerifierConfig(theory="idl")
        VerifierConfig(detector="tarjan")
        VerifierConfig.zord(memory_model="pso")
        VerifierConfig.genmc()

    def test_with_revalidates(self):
        config = VerifierConfig.zord()
        with pytest.raises(ValueError):
            config.with_(engine="nope")


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert set(registry.ENGINES) == {
            "smt", "closure", "explicit", "lazyseq", "smc-rfsc", "smc-genmc",
        }

    def test_builtin_theories_registered(self):
        assert set(registry.THEORIES) == {"ord", "idl"}

    def test_unknown_engine_lookup_lists_registered(self):
        with pytest.raises(ValueError, match="known: closure, explicit"):
            registry.resolve_engine("nope")

    def test_unknown_theory_lookup_lists_registered(self):
        with pytest.raises(ValueError, match="known: idl, ord"):
            registry.resolve_theory("nope")

    def test_custom_engine_roundtrip(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setitem(
                registry.ENGINES, "always-safe",
                registry.Engine(f"{__name__}:_always_safe"),
            )
            config = VerifierConfig(name="always-safe", engine="always-safe")
            result = verify("int x = 0; main { assert(x == 0); }", config)
            assert result.is_safe
            assert result.config_name == "always-safe"
        with pytest.raises(ValueError):
            VerifierConfig(engine="always-safe")

    def test_engine_spec_metadata(self):
        smt = registry.ENGINES["smt"]
        assert smt.theories == ("ord", "idl")
        assert smt.detectors == ("icd", "tarjan")
        assert set(smt.memory_models) == {"sc", "tso", "pso"}
        for name, engine in registry.ENGINES.items():
            if name != "smt":
                assert engine.memory_models == ("sc",), name

    def test_engine_modules_load_only_when_selected(self):
        """Building every preset's config imports no runner module that
        is not already part of the SMT pipeline."""
        modules = _run_isolated(
            "import json, sys\n"
            "from repro.verify.config import PRESETS\n"
            "for factory in PRESETS.values():\n"
            "    factory()\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        for lazy in ("repro.baselines.closure", "repro.baselines.explicit",
                     "repro.baselines.lazyseq", "repro.baselines.idl",
                     "repro.smc.explore"):
            assert lazy not in modules, lazy


class TestPresetTable:
    def test_presets_resolve_through_registry(self):
        # Every preset's engine must be a row of the engine table -- the
        # CLI derives its choices from this table.
        for name, factory in PRESETS.items():
            config = factory()
            assert config.engine in registry.ENGINES, name

    def test_presets_classmethod_matches_table(self):
        assert VerifierConfig.presets() == PRESETS

    def test_cli_derives_choices_from_table(self):
        from repro import cli

        assert cli._PRESETS is PRESETS


def test_warm_imports_cover_every_preset():
    """After a pool worker's warm-up, verifying under any preset imports
    no further ``repro`` module: the warm-up reads the engine table, so
    a row cannot be left out of it."""
    out = _run_isolated(
        "import json, sys\n"
        "from repro.robustness.pool import _warm_imports\n"
        "from repro.verify import verify\n"
        "from repro.verify.config import PRESETS\n"
        "_warm_imports()\n"
        "before = set(sys.modules)\n"
        "source = open('examples/programs/counter_safe.c').read()\n"
        "verdicts = {name: verify(source, factory(unwind=2)).verdict\n"
        "            for name, factory in PRESETS.items()}\n"
        "new = sorted(m for m in set(sys.modules) - before\n"
        "             if m.startswith('repro'))\n"
        "print(json.dumps({'new': new, 'verdicts': verdicts}))\n"
    )
    assert out["new"] == []
    assert set(out["verdicts"]) == set(PRESETS)
    assert set(out["verdicts"].values()) == {Verdict.SAFE}
