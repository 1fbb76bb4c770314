"""Findings and reports for the differential fuzzing harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = ["EngineOutcome", "Finding", "FuzzReport"]

#: Finding kinds, in decreasing severity.
KINDS = (
    "verdict_mismatch",   # sound SAFE vs sound UNSAFE disagreement
    "bad_witness",        # UNSAFE witness fails concrete replay
    "audit_violation",    # internal invariant check fired (AuditError)
    "engine_error",       # engine crashed (contained ERROR verdict)
)


@dataclass
class EngineOutcome:
    """One engine's verdict on one program."""

    key: str
    verdict: str
    wall_s: float = 0.0
    diagnostic: Optional[str] = None
    #: Replay of the UNSAFE witness: True = assert failed concretely
    #: (witness confirmed), False = replayed but no assert failed,
    #: None = not replayed (no Trace witness / not UNSAFE / replay off).
    replay_ok: Optional[bool] = None
    replay_error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class Finding:
    """One reportable disagreement/violation on one generated program."""

    kind: str
    seed: Optional[int]
    source: str
    detail: str
    outcomes: List[EngineOutcome] = field(default_factory=list)
    #: Minimized source (present when the shrinker ran and made progress).
    shrunk_source: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "detail": self.detail,
            "source": self.source,
            "shrunk_source": self.shrunk_source,
            "outcomes": [o.as_dict() for o in self.outcomes],
        }

    def __str__(self) -> str:
        head = f"[{self.kind}] seed={self.seed}: {self.detail}"
        verdicts = ", ".join(f"{o.key}={o.verdict}" for o in self.outcomes)
        return f"{head}\n  verdicts: {verdicts}"


@dataclass
class FuzzReport:
    """Aggregate result of a fuzzing run."""

    seeds_run: int = 0
    programs_safe: int = 0
    programs_unsafe: int = 0
    programs_unknown: int = 0
    engine_runs: int = 0
    replays: int = 0
    findings: List[Finding] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out = {k: 0 for k in KINDS}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def write_jsonl(self, path: str) -> None:
        """One JSON object per finding, plus a trailing summary line."""
        with open(path, "w") as fh:
            for f in self.findings:
                fh.write(json.dumps(f.as_dict(), sort_keys=True) + "\n")
                fh.flush()
            fh.write(json.dumps({"summary": self.summary()}, sort_keys=True) + "\n")

    def summary(self) -> Dict[str, object]:
        return {
            "seeds_run": self.seeds_run,
            "programs_safe": self.programs_safe,
            "programs_unsafe": self.programs_unsafe,
            "programs_unknown": self.programs_unknown,
            "engine_runs": self.engine_runs,
            "replays": self.replays,
            "findings": len(self.findings),
            "by_kind": {k: v for k, v in self.counts().items() if v},
            "wall_s": round(self.wall_s, 3),
        }

    def format(self) -> str:
        lines = [
            f"fuzz: {self.seeds_run} programs, {self.engine_runs} engine runs, "
            f"{self.replays} witness replays in {self.wall_s:.1f}s",
            f"  verdict mix: {self.programs_unsafe} unsafe / "
            f"{self.programs_safe} safe / {self.programs_unknown} unknown",
        ]
        if self.ok:
            lines.append("  no findings: all engines agree, all witnesses replay")
        else:
            by_kind = self.counts()
            mix = ", ".join(f"{k}={v}" for k, v in by_kind.items() if v)
            lines.append(f"  FINDINGS: {len(self.findings)} ({mix})")
            for f in self.findings:
                lines.append("")
                lines.append(str(f))
                if f.shrunk_source:
                    lines.append("  minimized:")
                    lines.extend("    " + ln for ln in f.shrunk_source.splitlines())
        return "\n".join(lines)
