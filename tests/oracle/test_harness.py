"""The differential harness: finding classification and the fuzz driver."""

import json

from repro.oracle.harness import _consensus, fuzz, run_program
from repro import api as api_mod  # run_program verifies via the repro.api facade
from repro.oracle.matrix import EngineSpec, build_matrix
from repro.oracle.report import EngineOutcome, FuzzReport
from repro.verify import Verdict
from repro.verify.witness import Trace, TraceStep

RACY = """int counter = 0;
thread inc1 { int t; t = counter; counter = t + 1; }
thread inc2 { int t; t = counter; counter = t + 1; }
main { start inc1; start inc2; join inc1; join inc2; assert(counter == 2); }
"""

SAFE = """int g = 0;
lock m;
thread a { lock(m); g = g + 1; unlock(m); }
thread b { lock(m); g = g + 1; unlock(m); }
main { start a; start b; join a; join b; assert(g == 2); }
"""


class FakeResult:
    def __init__(self, verdict, diagnostic=None, witness=None):
        self.verdict = verdict
        self.diagnostic = diagnostic
        self.witness = witness


def fake_spec(key="fake", **kw):
    kw.setdefault("preset", "zord")
    return EngineSpec(key=key, **kw)


class TestRunProgram:
    def test_racy_program_clean_through_quick_matrix(self):
        outcomes, findings = run_program(RACY, build_matrix("quick"), seed=0)
        assert findings == []
        assert all(o.verdict == Verdict.UNSAFE for o in outcomes)
        replayed = [o for o in outcomes if o.replay_ok is not None]
        assert replayed and all(o.replay_ok for o in replayed)

    def test_safe_program_clean(self):
        outcomes, findings = run_program(SAFE, build_matrix("quick"))
        assert findings == []
        assert all(o.verdict == Verdict.SAFE for o in outcomes)

    def test_verdict_mismatch_detected(self, monkeypatch):
        answers = iter([Verdict.SAFE, Verdict.UNSAFE])
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(next(answers)),
        )
        specs = [fake_spec("a"), fake_spec("b")]
        _, findings = run_program(RACY, specs, replay=False)
        assert [f.kind for f in findings] == ["verdict_mismatch"]
        assert "a" in findings[0].detail and "b" in findings[0].detail

    def test_unknown_never_indicts(self, monkeypatch):
        answers = iter([Verdict.SAFE, Verdict.UNKNOWN])
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(next(answers)),
        )
        _, findings = run_program(RACY, [fake_spec("a"), fake_spec("b")], replay=False)
        assert findings == []

    def test_unsound_safe_engine_cannot_indict(self, monkeypatch):
        answers = iter([Verdict.SAFE, Verdict.UNSAFE])
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(next(answers)),
        )
        specs = [fake_spec("a", sound_safe=False), fake_spec("b")]
        _, findings = run_program(RACY, specs, replay=False)
        assert findings == []

    def test_engine_error_classified(self, monkeypatch):
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(Verdict.ERROR, diagnostic="boom"),
        )
        _, findings = run_program(RACY, [fake_spec()], replay=False)
        assert [f.kind for f in findings] == ["engine_error"]

    def test_audit_violation_classified(self, monkeypatch):
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(
                Verdict.ERROR, diagnostic="AuditError: ord not a permutation"
            ),
        )
        _, findings = run_program(RACY, [fake_spec()], replay=False)
        assert [f.kind for f in findings] == ["audit_violation"]

    def test_bad_witness_classified(self, monkeypatch):
        # An UNSAFE verdict whose witness claims an impossible read.
        bogus = Trace(steps=[TraceStep("inc1", "R", "counter", 99, eid=0)])
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(Verdict.UNSAFE, witness=bogus),
        )
        specs = [fake_spec()]
        _, findings = run_program(RACY, specs, replay=True)
        assert [f.kind for f in findings] == ["bad_witness"]


class TestConsensus:
    def test_rules(self):
        def out(v):
            return EngineOutcome(key="k", verdict=v, wall_s=0.0)

        assert _consensus([out(Verdict.UNSAFE), out(Verdict.SAFE)]) == Verdict.UNSAFE
        assert _consensus([out(Verdict.SAFE), out(Verdict.SAFE)]) == Verdict.SAFE
        assert _consensus([out(Verdict.SAFE), out(Verdict.UNKNOWN)]) == Verdict.SAFE
        assert _consensus([out(Verdict.UNKNOWN)]) == Verdict.UNKNOWN


class TestFuzz:
    def test_small_clean_run(self):
        report = fuzz(seeds=range(3), matrix="quick", shrink=False)
        assert report.ok
        assert report.seeds_run == 3
        assert report.engine_runs == 3 * len(build_matrix("quick"))
        assert (
            report.programs_safe + report.programs_unsafe + report.programs_unknown
            == 3
        )

    def test_max_findings_stops_early(self, monkeypatch):
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(Verdict.ERROR, diagnostic="boom"),
        )
        report = fuzz(
            seeds=range(50),
            matrix=[fake_spec()],
            shrink=False,
            max_findings=2,
        )
        assert not report.ok
        assert len(report.findings) >= 2
        assert report.seeds_run < 50

    def test_shrunk_finding_is_minimized(self, monkeypatch):
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(Verdict.ERROR, diagnostic="boom"),
        )
        report = fuzz(
            seeds=range(1), matrix=[fake_spec()], shrink=True, shrink_checks=30,
            max_findings=1,
        )
        f = report.findings[0]
        assert f.shrunk_source is not None
        assert len(f.shrunk_source) < len(f.source)

    def test_progress_callback(self):
        seen = []
        fuzz(
            seeds=range(2),
            matrix="quick",
            shrink=False,
            progress=lambda seed, rep: seen.append(seed),
        )
        assert seen == [0, 1]

    def test_report_jsonl(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            api_mod, "verify",
            lambda src, cfg: FakeResult(Verdict.ERROR, diagnostic="boom"),
        )
        report = fuzz(
            seeds=range(1), matrix=[fake_spec()], shrink=False, max_findings=1
        )
        out = tmp_path / "findings.jsonl"
        report.write_jsonl(str(out))
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
        assert lines[-1].get("summary") or "seeds_run" in lines[-1]
        assert any(rec.get("kind") == "engine_error" for rec in lines[:-1])

    def test_report_format_mentions_counts(self):
        report = FuzzReport(seeds_run=5, engine_runs=15)
        text = report.format()
        assert "5" in text and "15" in text
