"""Portfolio semantics: first-verdict-wins, loser cancellation, serial
equivalence, verdict aggregation."""

import time

import pytest

from repro.bench import Task, run_suite
from repro.bench.patterns import bank_transfer, flag_handoff
from repro.portfolio import verify_batch, verify_portfolio
from repro.verify import Verdict, VerifierConfig, registry
from repro.verify.result import VerificationResult

SAFE_SRC = bank_transfer(locked=True)
UNSAFE_SRC = bank_transfer(locked=False)
CHAIN_SRC = flag_handoff(2)


def _sleepy(program, config, telemetry=None):
    time.sleep(30)
    return VerificationResult(Verdict.SAFE, config.name)


def _undecided(program, config, telemetry=None):
    return VerificationResult(Verdict.UNKNOWN, config.name)


@pytest.fixture()
def sleepy_engine(monkeypatch):
    monkeypatch.setitem(
        registry.ENGINES, "sleepy", registry.Engine(f"{__name__}:_sleepy")
    )
    return VerifierConfig(name="sleepy", engine="sleepy")


@pytest.fixture()
def undecided_engine(monkeypatch):
    monkeypatch.setitem(
        registry.ENGINES, "undecided",
        registry.Engine(f"{__name__}:_undecided"),
    )


class TestFirstVerdictWins:
    def test_fast_engine_wins_and_loser_is_cancelled(self, sleepy_engine):
        start = time.monotonic()
        outcome = verify_portfolio(
            SAFE_SRC, [sleepy_engine, VerifierConfig.zord()], jobs=2
        )
        elapsed = time.monotonic() - start
        assert outcome.verdict == Verdict.SAFE
        assert outcome.winner == "zord"
        assert outcome.result is not None and outcome.result.is_safe
        # The sleepy engine (30s of work) lost the race and was SIGTERMed:
        # the portfolio finishes in roughly the fast engine's wall time.
        assert outcome.runs[0].status == "cancelled"
        assert elapsed < 15

    def test_unsafe_verdict_wins_with_witness(self):
        outcome = verify_portfolio(
            UNSAFE_SRC, [VerifierConfig.zord(), VerifierConfig.cbmc()], jobs=2
        )
        assert outcome.verdict == Verdict.UNSAFE
        assert outcome.is_unsafe and not outcome.is_safe
        assert outcome.result is not None
        assert outcome.result.witness is not None

    def test_runs_aligned_with_configs(self, sleepy_engine):
        outcome = verify_portfolio(
            SAFE_SRC, [sleepy_engine, VerifierConfig.zord()], jobs=2
        )
        assert [r.config_name for r in outcome.runs] == ["sleepy", "zord"]


class TestSerialFallback:
    def test_jobs1_matches_parallel_verdict(self):
        configs = [VerifierConfig.zord(), VerifierConfig.cbmc()]
        serial = verify_portfolio(SAFE_SRC, configs, jobs=1)
        parallel = verify_portfolio(SAFE_SRC, configs, jobs=2)
        assert serial.verdict == parallel.verdict == Verdict.SAFE

    def test_jobs1_deterministic_winner_is_first_conclusive(self):
        outcome = verify_portfolio(
            SAFE_SRC, [VerifierConfig.cbmc(), VerifierConfig.zord()], jobs=1
        )
        assert outcome.winner == "cbmc"
        # The remaining config never ran.
        assert outcome.runs[1].status == "cancelled"

    def test_single_config_portfolio_runs_serially(self):
        outcome = verify_portfolio(SAFE_SRC, [VerifierConfig.zord()], jobs=8)
        assert outcome.verdict == Verdict.SAFE
        assert outcome.winner == "zord"


class TestAggregation:
    def test_all_unknown_aggregates_to_unknown(self, undecided_engine):
        configs = [
            VerifierConfig(name="u1", engine="undecided"),
            VerifierConfig(name="u2", engine="undecided"),
        ]
        outcome = verify_portfolio(SAFE_SRC, configs, jobs=2)
        assert outcome.verdict == Verdict.UNKNOWN
        assert outcome.winner is None and outcome.result is None
        assert [r.status for r in outcome.runs] == ["unknown", "unknown"]

    def test_unknown_then_conclusive(self, undecided_engine):
        configs = [
            VerifierConfig(name="u1", engine="undecided"),
            VerifierConfig.zord(),
        ]
        outcome = verify_portfolio(SAFE_SRC, configs, jobs=1)
        assert outcome.verdict == Verdict.SAFE
        assert outcome.winner == "zord"
        assert outcome.runs[0].status == "unknown"


class TestInputs:
    def test_preset_names_accepted(self):
        outcome = verify_portfolio(SAFE_SRC, ["zord", "cbmc"], jobs=1)
        assert outcome.verdict == Verdict.SAFE

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            verify_portfolio(SAFE_SRC, ["zord", "nope"], jobs=1)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            verify_portfolio(SAFE_SRC, [], jobs=1)

    def test_parse_error_raises_in_parent(self):
        from repro.lang.parser import ParseError

        with pytest.raises(ParseError):
            verify_portfolio("int x = ;", ["zord", "cbmc"], jobs=2)

    def test_time_limit_applied_to_unbudgeted_configs(self):
        outcome = verify_portfolio(
            SAFE_SRC, [VerifierConfig.zord()], jobs=1, time_limit_s=60.0
        )
        assert outcome.verdict == Verdict.SAFE

    def test_ast_program_accepted(self):
        from repro.lang import parse

        outcome = verify_portfolio(parse(SAFE_SRC), ["zord"], jobs=1)
        assert outcome.verdict == Verdict.SAFE

    def test_str_rendering(self):
        outcome = verify_portfolio(SAFE_SRC, ["zord"], jobs=1)
        text = str(outcome)
        assert "SAFE" in text and "zord" in text and "winner" in text


class TestVerifyBatch:
    TASKS = [
        Task("portfolio/locked", "demo", SAFE_SRC, True, unwind=4),
        Task("portfolio/racy", "demo", UNSAFE_SRC, False, unwind=4),
        Task("portfolio/chain", "demo", CHAIN_SRC, True, unwind=4),
    ]
    CONFIGS = {"zord": VerifierConfig.zord, "cbmc": VerifierConfig.cbmc}

    def test_grid_shape_and_alignment(self):
        results = verify_batch(self.TASKS, self.CONFIGS, jobs=2,
                               time_limit_s=30.0)
        assert set(results) == {"zord", "cbmc"}
        for rows in results.values():
            assert [r.task for r in rows] == [t.name for t in self.TASKS]

    def test_parallel_matches_serial_verdicts(self):
        serial = run_suite(self.TASKS, self.CONFIGS, time_limit_s=30.0)
        parallel = run_suite(self.TASKS, self.CONFIGS, time_limit_s=30.0,
                             jobs=2)
        for name in self.CONFIGS:
            assert [r.verdict for r in serial[name]] == [
                r.verdict for r in parallel[name]
            ]
            assert all(r.correct for r in parallel[name])

    def test_accepts_config_instances_and_preset_names(self):
        results = verify_batch(self.TASKS[:1], [VerifierConfig.zord(), "cbmc"],
                               jobs=1, time_limit_s=30.0)
        assert set(results) == {"zord", "cbmc"}

    def test_jobs1_serial_path(self):
        results = verify_batch(self.TASKS[:2], self.CONFIGS, jobs=1,
                               time_limit_s=30.0)
        assert results["zord"][0].verdict == Verdict.SAFE
        assert results["zord"][1].verdict == Verdict.UNSAFE
