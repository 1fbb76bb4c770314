"""Budget unit tests + the per-engine budget-exhaustion contract:
every preset must degrade to a structured UNKNOWN (never an exception,
never a wrong verdict) under a tiny time or conflict budget."""

import sys
import time
from pathlib import Path

import pytest

from repro.robustness.budget import (
    Budget,
    BudgetExceeded,
    active_budget,
    get_active,
)
from repro.verify import Verdict, verify
from repro.verify.config import PRESETS
from repro.verify.telemetry import STAT_KEYS
from tests.verify.programs import PAPER_FIG2

COUNTER_SAFE = (
    Path(__file__).resolve().parents[2] / "examples" / "programs" / "counter_safe.c"
).read_text()

#: ``COUNTER_SAFE`` with threads that add different amounts: the symmetry
#: edge that lets Zord⁻ prove ``COUNTER_SAFE`` within one conflict does
#: not apply, so every preset needs at least two units of work.
COUNTER_UNEVEN = COUNTER_SAFE.replace(
    "thread inc2 { int t; lock(m); t = counter; counter = t + 1;",
    "thread inc2 { int t; lock(m); t = counter; counter = t + 2;",
).replace("counter == 2", "counter == 3")

#: The counter each engine charges to the work cap, one unit per charge.
WORK_COUNTER = {
    "smt": "conflicts",
    "closure": "conflicts",
    "explicit": "explored",
    "lazyseq": "transitions",
    "smc-rfsc": "transitions",
    "smc-genmc": "transitions",
}


class TestBudgetUnit:
    def test_unlimited_budget_never_raises(self):
        b = Budget()
        b.check("x")
        b.charge_conflicts(10**9, "x")
        b.charge_events(10**9, "x")

    def test_time_limit(self):
        b = Budget(time_limit_s=0.0)
        time.sleep(0.001)
        with pytest.raises(BudgetExceeded) as ei:
            b.check("solve")
        assert ei.value.limit == "time"
        assert ei.value.phase == "solve"

    def test_conflicts_cumulative(self):
        b = Budget(max_conflicts=10)
        b.charge_conflicts(6, "solve")
        b.charge_conflicts(4, "solve")  # == cap: still fine
        with pytest.raises(BudgetExceeded) as ei:
            b.charge_conflicts(1, "solve")
        assert ei.value.limit == "conflicts"
        assert ei.value.used == 11

    def test_events_cumulative(self):
        b = Budget(max_events=3)
        b.charge_events(3, "frontend")
        with pytest.raises(BudgetExceeded) as ei:
            b.charge_events(1, "frontend")
        assert ei.value.limit == "events"

    def test_memory_cap_is_growth_not_absolute(self):
        # The cap measures growth since creation, so a fresh budget with a
        # generous cap must not trip on the interpreter's existing RSS.
        b = Budget(memory_limit_mb=10_000.0)
        b.check("x")

    def test_memory_cap_trips_on_allocation(self):
        b = Budget(memory_limit_mb=1.0)
        if b.memory_used_mb() is None:
            pytest.skip("no RSS source on this platform")
        ballast = bytearray(64 * 1024 * 1024)
        with pytest.raises(BudgetExceeded) as ei:
            b.check("engine")
        assert ei.value.limit == "memory"
        del ballast

    def test_partial_stats_carried(self):
        exc = BudgetExceeded("time", "solve", 1.0, 0.5, {"conflicts": 7})
        assert exc.partial_stats["conflicts"] == 7

    def test_snapshot_keys(self):
        b = Budget(max_conflicts=5)
        b.charge_conflicts(2, "x")
        snap = b.snapshot()
        assert snap["budget_conflicts"] == 2
        assert snap["budget_elapsed_s"] >= 0.0

    def test_active_budget_nesting(self):
        outer, inner = Budget(), Budget()
        assert get_active() is None
        with active_budget(outer):
            assert get_active() is outer
            with active_budget(inner):
                assert get_active() is inner
            assert get_active() is outer
        assert get_active() is None

    def test_charge_checks_the_deadline(self):
        b = Budget(time_limit_s=0.0)
        time.sleep(0.001)
        with pytest.raises(BudgetExceeded) as ei:
            b.charge_conflicts(1, "engine")
        assert ei.value.limit == "time"


@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestEveryEngineHonorsBudgets:
    """Satellite contract: UNKNOWN + populated stats under tiny budgets."""

    def test_tiny_time_limit(self, preset):
        result = verify(PAPER_FIG2, PRESETS[preset](time_limit_s=1e-9))
        assert result.verdict == Verdict.UNKNOWN
        assert set(STAT_KEYS) <= set(result.stats)
        # SMT-pipeline presets surface which limit tripped where.
        if "budget_limit" in result.stats and result.stats["budget_limit"]:
            assert result.stats["budget_limit"] == "time"
            assert result.stats["budget_phase"]

    def test_tiny_conflict_budget(self, preset):
        result = verify(PAPER_FIG2, PRESETS[preset](max_conflicts=1))
        assert result.verdict == Verdict.UNKNOWN
        assert set(STAT_KEYS) <= set(result.stats)

    def test_tiny_event_budget(self, preset):
        config = PRESETS[preset](max_events=2)
        result = verify(PAPER_FIG2, config)
        if config.engine in ("smt", "closure"):
            # Event-graph engines charge the cap in the frontend.
            assert result.verdict == Verdict.UNKNOWN
            assert result.stats["budget_limit"] == "events"
        else:
            # Interpreter engines build no event graph; the cap is inert
            # but must never produce a crash or a wrong verdict.
            assert result.verdict in (Verdict.SAFE, Verdict.UNKNOWN)


def test_memory_budget_smt():
    """A memspike fault supplies deterministic RSS growth: relying on the
    verifier's own allocations is flaky once the allocator is warm."""
    from repro.robustness.faults import clear_faults, install_faults

    install_faults("memspike@frontend:48")
    try:
        result = verify(PAPER_FIG2, PRESETS["zord"](memory_limit_mb=16))
    finally:
        clear_faults()
    assert result.verdict == Verdict.UNKNOWN
    assert result.stats["budget_limit"] == "memory"


def test_budget_unknown_carries_partial_solver_stats():
    result = verify(PAPER_FIG2, PRESETS["zord"](max_conflicts=1))
    # The SAT core attaches its counters to the budget exception.
    assert result.stats["conflicts"] >= 1


@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestBudgetIsTheOnlyEnforcer:
    """No engine holds a limit of its own: every preset's budget UNKNOWN is
    the structured one, with the engine's partial counter attached."""

    def test_work_cap_reports_conflicts_limit(self, preset):
        config = PRESETS[preset](max_conflicts=1)
        assert COUNTER_UNEVEN != COUNTER_SAFE
        result = verify(COUNTER_UNEVEN, config)
        assert result.verdict == Verdict.UNKNOWN
        assert result.stats["budget_limit"] == "conflicts"
        assert result.stats["budget_phase"]
        # A cap of 1 trips on the second unit; the engine reports how far
        # it got in its own counter.
        assert result.stats["budget_used"] == 2
        assert result.stats[WORK_COUNTER[config.engine]] == 2

    def test_deadline_reports_time_limit(self, preset):
        result = verify(COUNTER_SAFE, PRESETS[preset](time_limit_s=1e-9))
        assert result.verdict == Verdict.UNKNOWN
        assert result.stats["budget_limit"] == "time"
        assert result.stats["budget_phase"]


def _slow_module(monkeypatch, tmp_path, name, seconds, body):
    """A module ``name`` whose first import sleeps ``seconds`` (a cold
    import), removed from ``sys.modules`` after the test."""
    (tmp_path / f"{name}.py").write_text(
        f"import time\ntime.sleep({seconds})\n{body}"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    # Undoing this entry drops the imported module again.
    monkeypatch.setitem(sys.modules, name, None)
    del sys.modules[name]
    return name


def test_engine_import_is_not_charged_to_the_deadline(monkeypatch, tmp_path):
    """The budget's clock starts after every chain link's runner is
    resolved: an engine whose first load outlasts the deadline still
    answers within it."""
    from repro.verify import registry

    module = _slow_module(
        monkeypatch, tmp_path, "slow_import_engine", 0.15,
        "from repro.robustness import checkpoint\n"
        "from repro.verify import Verdict, VerificationResult\n"
        "def run(program, config, telemetry=None):\n"
        "    checkpoint('engine')\n"
        "    return VerificationResult(Verdict.SAFE, config.name)\n",
    )
    monkeypatch.setitem(
        registry.ENGINES, "slow-import", registry.Engine(f"{module}:run")
    )
    config = PRESETS["zord"]().with_(engine="slow-import", time_limit_s=0.1)
    result = verify(COUNTER_SAFE, config)
    assert result.verdict == Verdict.SAFE, result.stats
    assert "budget_limit" not in result.stats


def test_theory_import_is_not_charged_to_the_deadline(monkeypatch, tmp_path):
    """An SMT link's theory encoder is resolved before the budget's clock
    starts too: a theory whose first load outlasts the deadline still
    answers within it.  The deadline leaves room for a real (audited,
    loaded-host) zord run of the program."""
    from repro.verify import registry

    module = _slow_module(
        monkeypatch, tmp_path, "slow_import_theory", 0.4,
        "from repro.verify.verifier import encode_ord\n",
    )
    monkeypatch.setitem(registry.THEORIES, "ord", f"{module}:encode_ord")
    config = PRESETS["zord"](time_limit_s=0.3)
    result = verify(COUNTER_SAFE, config)
    budget = {k: v for k, v in result.stats.items() if k.startswith("budget")}
    assert result.verdict == Verdict.SAFE, budget
    assert "budget_limit" not in result.stats
