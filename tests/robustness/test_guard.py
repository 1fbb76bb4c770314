"""Crash-containment tests: any engine exception becomes a structured
ERROR result with a captured diagnostic -- never an uncaught traceback."""

import pytest

from repro.robustness.budget import Budget, BudgetExceeded
from repro.robustness.guard import describe_exception, run_guarded
from repro.verify import Verdict, VerificationResult, VerifierConfig, verify
from repro.verify import registry
from tests.verify.programs import PAPER_FIG2


def _crashy(program, config, telemetry=None):
    raise RuntimeError("engine exploded")


@pytest.fixture()
def crashing_engine(monkeypatch):
    monkeypatch.setitem(
        registry.ENGINES, "crashy", registry.Engine(f"{__name__}:_crashy")
    )
    return "crashy"


class TestRunGuarded:
    def _config(self):
        return VerifierConfig()

    def test_passthrough(self):
        ok = VerificationResult(Verdict.SAFE, "zord")
        result = run_guarded(
            lambda p, c, telemetry=None: ok, None, self._config()
        )
        assert result is ok

    def test_exception_becomes_error(self):
        def boom(p, c, telemetry=None):
            raise ValueError("bad things")

        result = run_guarded(boom, None, self._config())
        assert result.verdict == Verdict.ERROR
        assert result.stats["error_type"] == "ValueError"
        assert "bad things" in result.diagnostic
        assert "Traceback" not in result.diagnostic

    def test_recursion_error_contained(self):
        def deep(p, c, telemetry=None):
            def f():
                return f()

            return f()

        result = run_guarded(deep, None, self._config())
        assert result.verdict == Verdict.ERROR
        assert result.stats["error_type"] == "RecursionError"

    def test_budget_exceeded_becomes_unknown(self):
        def exhausted(p, c, telemetry=None):
            raise BudgetExceeded("time", "solve", 2.0, 1.0, {"conflicts": 5})

        budget = Budget(time_limit_s=1.0)
        result = run_guarded(exhausted, None, self._config(), budget=budget)
        assert result.verdict == Verdict.UNKNOWN
        assert result.stats["budget_limit"] == "time"
        assert result.stats["budget_phase"] == "solve"
        assert result.stats["conflicts"] == 5  # partial stats preserved
        assert "budget_elapsed_s" in result.stats

    def test_memory_error_is_budget_not_bug(self):
        def oom(p, c, telemetry=None):
            raise MemoryError("cannot allocate")

        result = run_guarded(oom, None, self._config())
        assert result.verdict == Verdict.UNKNOWN
        assert result.stats["budget_limit"] == "memory"

    def test_keyboard_interrupt_propagates(self):
        def interrupted(p, c, telemetry=None):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_guarded(interrupted, None, self._config())

    def test_system_exit_propagates(self):
        def exiting(p, c, telemetry=None):
            raise SystemExit(3)

        with pytest.raises(SystemExit):
            run_guarded(exiting, None, self._config())


class TestDescribeException:
    def test_includes_type_message_location(self):
        try:
            raise KeyError("missing")
        except KeyError as exc:
            text = describe_exception(exc)
        assert "KeyError" in text
        assert "missing" in text
        assert "test_guard.py" in text

    def test_capped_length(self):
        text = describe_exception(ValueError("x" * 10_000))
        assert len(text) <= 600


class TestVerifyContainment:
    def test_engine_crash_yields_error_result(self, crashing_engine):
        result = verify(PAPER_FIG2, VerifierConfig(engine=crashing_engine))
        assert result.verdict == Verdict.ERROR
        assert result.is_error
        assert "engine exploded" in result.diagnostic
        assert result.wall_time_s >= 0.0
        # Stats are still normalized for downstream consumers.
        assert "conflicts" in result.stats

    def test_error_result_str_mentions_diagnostic(self, crashing_engine):
        result = verify(PAPER_FIG2, VerifierConfig(engine=crashing_engine))
        assert "engine exploded" in str(result)
