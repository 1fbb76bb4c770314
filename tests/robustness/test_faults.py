"""Fault-injection harness tests: spec parsing, checkpoint firing, and
end-to-end containment of injected faults in every engine."""

import re
from pathlib import Path

import pytest

from repro.robustness import checkpoint
from repro.robustness.faults import (
    CHECKPOINTS,
    ENV_VAR,
    FaultInjected,
    active_spec,
    clear_faults,
    fault_point,
    install_faults,
    parse_faults,
)
from repro.verify import Verdict, verify
from repro.verify.config import PRESETS
from tests.verify.programs import PAPER_FIG2


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_faults()
    yield
    clear_faults()


class TestParse:
    def test_single(self):
        assert parse_faults("crash@encode") == {"encode": [("crash", None)]}

    def test_arg_and_multiple(self):
        table = parse_faults("delay@solve:0.5,crash@encode")
        assert table["solve"] == [("delay", "0.5")]
        assert table["encode"] == [("crash", None)]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            parse_faults("explode@encode")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_faults("crash")

    def test_empty_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="empty checkpoint"):
            parse_faults("crash@")

    def test_unknown_checkpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown fault checkpoint 'encodee'"):
            parse_faults("crash@encodee")

    def test_checkpoints_match_the_source(self):
        """The known names are exactly those the source passes to
        ``checkpoint()`` / ``fault_point()``, so the two cannot drift."""
        src = Path(__file__).resolve().parents[2] / "src"
        used = set()
        for path in src.rglob("*.py"):
            used.update(
                re.findall(
                    r'(?:checkpoint|fault_point)\(\s*"(\w+)"', path.read_text()
                )
            )
        assert len(CHECKPOINTS) == len(set(CHECKPOINTS))
        assert set(CHECKPOINTS) == used

    def test_install_validates_eagerly(self):
        with pytest.raises(ValueError):
            install_faults("nope@x")
        assert active_spec() is None


class TestFirePoint:
    def test_noop_without_spec(self):
        fault_point("encode")  # must not raise

    def test_crash_fires_at_named_checkpoint_only(self):
        install_faults("crash@encode")
        fault_point("solve")
        with pytest.raises(FaultInjected) as ei:
            fault_point("encode")
        assert ei.value.checkpoint == "encode"

    def test_oom_raises_memory_error(self):
        install_faults("oom@engine")
        with pytest.raises(MemoryError):
            fault_point("engine")

    def test_delay_sleeps(self):
        import time

        install_faults("delay@solve:0.05")
        t0 = time.monotonic()
        fault_point("solve")
        assert time.monotonic() - t0 >= 0.05

    def test_memspike_allocates_ballast(self):
        from repro.robustness import faults

        install_faults("memspike@engine:1")
        fault_point("engine")
        assert sum(len(b) for b in faults._ballast) >= 1_000_000
        clear_faults()
        assert not faults._ballast

    def test_env_var_spec(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "crash@theory")
        with pytest.raises(FaultInjected):
            fault_point("theory")

    def test_misspelt_env_spec_fails_loudly(self, monkeypatch):
        """A typo in ``REPRO_FAULTS`` is an ERROR carrying the message, not
        a silent run without the fault."""
        monkeypatch.setenv(ENV_VAR, "crash@encodee")
        result = verify(PAPER_FIG2, PRESETS["zord"]())
        assert result.verdict == Verdict.ERROR
        assert "unknown fault checkpoint 'encodee'" in result.diagnostic

    def test_misspelt_env_spec_cli_exits_1(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "fig2.c"
        program.write_text(PAPER_FIG2)
        monkeypatch.setenv(ENV_VAR, "crash@encodee")
        assert main([str(program)]) == 1
        out = capsys.readouterr().out
        assert "verdict: ERROR" in out and "encodee" in out

    def test_checkpoint_fires_faults(self):
        install_faults("crash@frontend")
        with pytest.raises(FaultInjected):
            checkpoint("frontend")


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("spec_checkpoint", ["frontend", "engine"])
def test_injected_crash_contained_in_every_engine(preset, spec_checkpoint):
    """With a crash injected at any pipeline checkpoint, every engine must
    return a structured ERROR (or conclusive verdict when the engine never
    visits that checkpoint) -- never an uncaught exception."""
    install_faults(f"crash@{spec_checkpoint}")
    try:
        result = verify(PAPER_FIG2, PRESETS[preset]())
    finally:
        clear_faults()
    assert result.verdict in (Verdict.ERROR, Verdict.SAFE)
    if result.verdict == Verdict.ERROR:
        assert "injected fault" in result.diagnostic


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_injected_oom_degrades_to_unknown(preset):
    """An allocation failure anywhere in the engine is budget exhaustion:
    UNKNOWN, not a crash."""
    config = PRESETS[preset]()
    checkpoint_name = "frontend" if config.engine in ("smt", "closure") else "engine"
    install_faults(f"oom@{checkpoint_name}")
    try:
        result = verify(PAPER_FIG2, config)
    finally:
        clear_faults()
    assert result.verdict == Verdict.UNKNOWN
    assert result.stats["budget_limit"] == "memory"
