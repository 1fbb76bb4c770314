"""The consolidated REPRO_* environment knobs.

One inventory-asserting test keeps :data:`repro.verify.config.ENV_VARS`
honest: every ``REPRO_*`` variable the source tree reads must be
documented there, and everything documented must still be read somewhere.
The rest pins :func:`env_overrides` parsing.
"""

import re
from pathlib import Path

import pytest

from repro.verify import Verdict
from repro.verify.config import ENV_VARS, VerifierConfig, env_overrides

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_ENV_RE = re.compile(r"\bREPRO_[A-Z_]+\b")


def _vars_read_in_source() -> set:
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(_ENV_RE.findall(path.read_text()))
    return found


class TestInventory:
    def test_every_env_var_documented(self):
        """The documented inventory and the source tree agree exactly.

        A new ``os.environ['REPRO_X']`` read anywhere in src/ fails this
        test until ENV_VARS documents it; a stale ENV_VARS entry whose
        reader was deleted fails it too.
        """
        assert _vars_read_in_source() == set(ENV_VARS)

    def test_descriptions_are_nonempty(self):
        for name, description in ENV_VARS.items():
            assert name.startswith("REPRO_")
            assert description.strip(), name

    def test_overrides_keyed_by_inventory(self):
        overrides = env_overrides(environ={})
        assert set(overrides) == set(ENV_VARS)


class TestParsing:
    def test_empty_environ_gives_none(self):
        """Unset knobs are ``None`` across the board -- 'unset' and 'set
        to the default' stay distinguishable for callers."""
        overrides = env_overrides(environ={})
        assert all(value is None for value in overrides.values())

    def test_prune_levels(self):
        assert env_overrides(environ={"REPRO_PRUNE": "0"})["REPRO_PRUNE"] == 0
        assert env_overrides(environ={"REPRO_PRUNE": "1"})["REPRO_PRUNE"] == 1
        # Garbage falls back to the default instead of crashing import.
        assert env_overrides(environ={"REPRO_PRUNE": "zap"})["REPRO_PRUNE"] == 2

    def test_unwind_schedule_forms(self):
        def parse(raw):
            return env_overrides(
                environ={"REPRO_UNWIND_SCHEDULE": raw}
            )["REPRO_UNWIND_SCHEDULE"]

        assert parse("1") == "doubling"
        assert parse("true") == "doubling"
        assert parse("2,4,8") == (2, 4, 8)
        assert parse("0") is None
        assert parse("false") is None
        assert parse("garbage") is None

    def test_audit_truthiness(self):
        for raw in ("1", "true", "YES", "on"):
            assert env_overrides(environ={"REPRO_AUDIT": raw})["REPRO_AUDIT"]
        for raw in ("0", "false", "off"):
            assert (
                env_overrides(environ={"REPRO_AUDIT": raw})["REPRO_AUDIT"]
                is False
            )

    def test_faults_split(self):
        env = {"REPRO_FAULTS": "encode:crash:0.5, solve:hang:1.0"}
        assert env_overrides(environ=env)["REPRO_FAULTS"] == (
            "encode:crash:0.5",
            "solve:hang:1.0",
        )

    def test_bench_jobs(self):
        env = {"REPRO_BENCH_JOBS": "7"}
        assert env_overrides(environ=env)["REPRO_BENCH_JOBS"] == 7

    def test_server_stripped(self):
        env = {"REPRO_SERVER": "  127.0.0.1:9000  "}
        assert env_overrides(environ=env)["REPRO_SERVER"] == "127.0.0.1:9000"
        assert env_overrides(environ={"REPRO_SERVER": "  "})["REPRO_SERVER"] is None


_KNOBS = ("REPRO_PRUNE", "REPRO_UNWIND_SCHEDULE", "REPRO_AUDIT")


@pytest.mark.parametrize("raw", ["", " 0 ", "true", "2,4", "x", "on"])
def test_config_resolves_knobs_like_env_overrides(monkeypatch, raw):
    """``VerifierConfig`` resolves each knob through the same parsing
    :func:`env_overrides` reports."""
    for name in _KNOBS:
        monkeypatch.setenv(name, raw)
    parsed = env_overrides()
    config = VerifierConfig(unwind=8)
    prune = parsed["REPRO_PRUNE"]
    assert config.prune_level == (2 if prune is None else prune)
    assert config.audit is bool(parsed["REPRO_AUDIT"])
    schedule = parsed["REPRO_UNWIND_SCHEDULE"]
    bounds = {None: (), "doubling": (1, 2, 4, 8)}.get(schedule, schedule)
    expected = VerifierConfig(unwind=8, unwind_schedule=bounds).unwind_schedule
    assert config.unwind_schedule == expected


def test_blank_server_address_means_in_process(monkeypatch):
    """A blank ``REPRO_SERVER`` is unset, as :func:`env_overrides` says,
    not an address ``repro.verify`` tries to parse."""
    from repro.api import verify

    monkeypatch.setenv("REPRO_SERVER", "  ")
    result = verify("int x = 0; main { assert(x == 0); }")
    assert result.verdict == Verdict.SAFE
