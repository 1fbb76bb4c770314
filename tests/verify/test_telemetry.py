"""Structured telemetry: normalized stats and the JSONL event trace."""

import json

import pytest

from repro.verify import STAT_KEYS, Verdict, VerifierConfig, normalize_stats, verify
from repro.verify.telemetry import Spans, TraceWriter, read_trace
from tests.verify.programs import LOOP_SUM_SAFE, PAPER_FIG2, RACE_UNSAFE


class TestNormalizedStats:
    def test_canonical_keys_always_present(self):
        for config in (VerifierConfig.zord(), VerifierConfig.cpa_seq(),
                       VerifierConfig.genmc()):
            result = verify(RACE_UNSAFE, config)
            missing = [k for k in STAT_KEYS if k not in result.stats]
            assert not missing, (config.name, missing)

    def test_normalize_fills_missing_and_keeps_extras(self):
        out = normalize_stats({"decisions": 3, "custom": 7})
        assert out["decisions"] == 3
        assert out["custom"] == 7
        assert out["conflicts"] == 0
        assert set(STAT_KEYS) <= set(out)

    def test_normalize_accepts_none(self):
        out = normalize_stats(None)
        assert all(out[k] == 0 for k in STAT_KEYS)

    def test_stat_keys_are_canonical(self):
        assert set(STAT_KEYS) == {
            "decisions", "propagations", "conflicts", "restarts", "learned",
            "theory_conflicts", "theory_propagations", "theory_reasons_read",
            "max_trail", "watcher_visits", "heap_ops", "incremental_calls",
            "clauses_retained", "shared_exported", "shared_imported",
            "rf_vars", "ws_vars", "fr_vars", "sat_vars", "sat_clauses",
            "analysis_pairs_total", "analysis_pairs_pruned",
            "analysis_time_s", "symmetry_edges", "traces", "transitions",
            "cache_hit", "queue_wait_s", "worker_recycles",
        }
        assert len(STAT_KEYS) == 29

    def test_smt_phase_times_reported(self):
        result = verify(RACE_UNSAFE, VerifierConfig.zord())
        for key in ("time_frontend_s", "time_encode_s", "time_solve_s",
                    "time_theory_s", "time_witness_s", "analysis_time_s"):
            assert key in result.stats
            assert result.stats[key] >= 0
        assert result.stats["time_theory_s"] <= result.stats["time_solve_s"]


class TestSpans:
    """One span record feeds both ``result.stats`` and the trace."""

    def test_phase_events_match_stats(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        result = verify(RACE_UNSAFE, VerifierConfig.zord(trace_jsonl=trace))
        phases = {
            r["name"]: r["wall_s"]
            for r in read_trace(trace)
            if r["event"] == "phase"
        }
        assert set(phases) == {
            "frontend", "encode", "analysis", "solve", "theory", "witness"
        }
        for name, wall_s in phases.items():
            assert result.stats[f"time_{name}_s"] == wall_s

    def test_theory_within_solve(self):
        for program in (RACE_UNSAFE, PAPER_FIG2, LOOP_SUM_SAFE):
            stats = verify(program, VerifierConfig.zord()).stats
            assert 0 <= stats["time_theory_s"] <= stats["time_solve_s"]

    def test_bounds_within_solve(self):
        # The violation needs three loop iterations: bounds 1 and 2 are
        # UNSAT under their assumptions, bound 4 finds it.
        deep_bug = LOOP_SUM_SAFE.replace("x == 3", "x != 3")
        config = VerifierConfig.zord(unwind=4, unwind_schedule=(1, 2, 4))
        stats = verify(deep_bug, config).stats
        assert [b["bound"] for b in stats["bounds"]] == [1, 2, 4]
        assert sum(b["wall_s"] for b in stats["bounds"]) <= stats["time_solve_s"]

    def test_budget_unknown_keeps_closed_spans(self):
        result = verify(PAPER_FIG2, VerifierConfig.zord(time_limit_s=1e-9))
        assert result.verdict == Verdict.UNKNOWN
        assert "budget_phase" in result.stats
        assert "time_frontend_s" in result.stats

    def test_spans_record_once_and_read_children_on_exit(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path) as writer:
            spans = Spans(writer)
            with spans.span("solve", theory=lambda: 0.25):
                pass
            with pytest.raises(RuntimeError):
                with spans.span("witness", never=lambda: 1 / 0):
                    raise RuntimeError
        assert list(spans.wall_s) == ["solve", "theory", "witness"]
        assert spans.as_stats()["time_theory_s"] == 0.25
        events = [(r["name"], r["wall_s"]) for r in read_trace(path)]
        assert events == list(spans.wall_s.items())


class TestJsonlTrace:
    def _events(self, path):
        with open(path) as f:
            records = [json.loads(line) for line in f]
        assert all("t" in r and "event" in r for r in records)
        return records

    def test_trace_written_and_well_formed(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        result = verify(RACE_UNSAFE, VerifierConfig.zord(trace_jsonl=trace))
        assert result.trace_path == trace
        records = self._events(trace)
        events = [r["event"] for r in records]
        assert events[0] == "verify_start"
        assert events[-1] == "verify_end"
        assert "solve_start" in events and "solve_end" in events
        assert "phase" in events

    def test_trace_timestamps_monotonic(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        verify(PAPER_FIG2, VerifierConfig.zord(trace_jsonl=trace))
        times = [r["t"] for r in self._events(trace)]
        assert times == sorted(times)

    def test_solve_end_carries_counters(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        verify(RACE_UNSAFE, VerifierConfig.zord(trace_jsonl=trace))
        (solve_end,) = [
            r for r in self._events(trace) if r["event"] == "solve_end"
        ]
        assert "conflicts" in solve_end and "decisions" in solve_end
        assert solve_end["result"] in ("sat", "unsat", "unknown")

    def test_verdict_recorded_in_verify_end(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        result = verify(RACE_UNSAFE, VerifierConfig.zord(trace_jsonl=trace))
        (end,) = [r for r in self._events(trace) if r["event"] == "verify_end"]
        assert end["verdict"] == result.verdict

    def test_no_trace_without_config(self):
        result = verify(PAPER_FIG2, VerifierConfig.zord())
        assert result.trace_path is None

    def test_icd_reorders_counted(self):
        result = verify(RACE_UNSAFE, VerifierConfig.zord())
        assert "theory_icd_reorders" in result.stats

    def test_icd_fast_path_counted(self):
        # Most ICD insertions on a realistic instance satisfy
        # ``ord[u] < ord[v]`` outright and skip the bounded search.
        result = verify(RACE_UNSAFE, VerifierConfig.zord())
        assert result.stats["theory_icd_fast_path"] > 0
        # The Tarjan baseline has no ICD, so the counter stays zero.
        baseline = verify(RACE_UNSAFE, VerifierConfig.zord_tarjan())
        assert baseline.stats.get("theory_icd_fast_path", 0) == 0


class TestStatCoercion:
    """Engines cannot poison canonical counters with non-numeric junk."""

    def test_numeric_strings_coerced(self):
        out = normalize_stats({"decisions": "12", "analysis_time_s": "0.5"})
        assert out["decisions"] == 12
        assert out["analysis_time_s"] == 0.5
        assert "stats_dropped" not in out

    def test_bools_become_ints(self):
        out = normalize_stats({"restarts": True})
        assert out["restarts"] == 1 and out["restarts"] is not True

    def test_garbage_dropped_and_flagged(self):
        out = normalize_stats(
            {"conflicts": None, "learned": "lots", "decisions": float("nan")}
        )
        assert out["conflicts"] == 0
        assert out["learned"] == 0
        assert out["decisions"] == 0
        assert out["stats_dropped"] == ["conflicts", "decisions", "learned"]

    def test_extras_pass_through_uncoerced(self):
        out = normalize_stats({"engine_note": "portfolio winner"})
        assert out["engine_note"] == "portfolio winner"


class TestTraceWriterRobustness:
    """A killed portfolio worker must not cost us its trace."""

    def test_emit_flushes_per_line(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path)
        try:
            writer.emit("solve_start", nvars=3)
            # Read back *without* closing: the line must already be on
            # disk, as it would be when the process is SIGKILL'd now.
            with open(path) as f:
                lines = f.readlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["event"] == "solve_start"
        finally:
            writer.close()

    def test_read_trace_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"t": 0.0, "event": "a"})
            + "\n"
            + '{"t": 0.1, "eve'  # writer killed mid-record
        )
        records = list(read_trace(str(path)))
        assert [r["event"] for r in records] == ["a"]

    def test_read_trace_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t": 0.0, "eve\n' + json.dumps({"t": 0.1, "event": "b"}) + "\n"
        )
        with pytest.raises(json.JSONDecodeError):
            list(read_trace(str(path)))

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path) as writer:
            writer.emit("verify_start")
        assert writer._file.closed
        assert [r["event"] for r in read_trace(path)] == ["verify_start"]
