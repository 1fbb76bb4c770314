"""The public facade (:mod:`repro.api`) and the retired spelling.

``repro.api.verify`` is the one front door: plain calls solve in-process,
``portfolio=`` races presets, ``server=``/``REPRO_SERVER`` routes through
a daemon.  The old ``repro.verify.verifier.verify`` spelling is gone;
nothing in the source tree may use it.
"""

import warnings

import pytest

import repro
from repro import api
from repro.verify import Verdict, VerifierConfig
from repro.verify.result import VerificationResult

SAFE_PROGRAM = """
int x = 0;
thread t { x = x + 1; }
main { start t; join t; assert(x == 1); }
"""


class TestFacadeDispatch:
    def test_plain_verify_runs_in_process(self):
        result = api.verify(SAFE_PROGRAM, VerifierConfig(unwind=4))
        assert isinstance(result, VerificationResult)
        assert result.verdict == Verdict.SAFE

    def test_default_config(self):
        assert api.verify(SAFE_PROGRAM).verdict == Verdict.SAFE

    def test_portfolio_dispatch(self):
        outcome = api.verify(
            SAFE_PROGRAM, portfolio=["zord", "cbmc"], jobs=1
        )
        assert outcome.verdict == Verdict.SAFE
        assert outcome.winner in ("zord", "cbmc")

    def test_analyze_dispatch(self):
        report = api.analyze(SAFE_PROGRAM, unwind=4)
        assert report.pairs_total >= 0

    def test_top_level_reexports(self):
        assert repro.verify is api.verify
        assert repro.analyze is api.analyze
        assert repro.serve is api.serve
        assert repro.connect is api.connect
        assert repro.verify_batch is api.verify_batch

    def test_connect_requires_address(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        with pytest.raises(ValueError, match="REPRO_SERVER"):
            api.connect()

    def test_server_kwarg_rejects_dead_address(self):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError):
            api.verify(SAFE_PROGRAM, server="127.0.0.1:1")


class TestDeprecationShim:
    def test_unrelated_attribute_still_raises(self):
        from repro.verify import verifier

        with pytest.raises(AttributeError):
            verifier.does_not_exist

    def test_package_level_verify_is_quiet(self):
        """``repro.verify.verify`` (the package alias) is the supported
        in-process spelling and must not warn."""
        from repro.verify import verify as package_verify

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = package_verify(SAFE_PROGRAM, VerifierConfig(unwind=4))
        assert result.verdict == Verdict.SAFE

    def test_no_in_repo_callers_of_deprecated_spelling(self):
        """Nothing inside src/ still imports the deprecated name."""
        from pathlib import Path
        import re

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        pattern = re.compile(
            r"from repro\.verify\.verifier import ([\w, ]+)"
        )
        offenders = []
        for path in src.rglob("*.py"):
            for match in pattern.finditer(path.read_text()):
                names = {n.strip() for n in match.group(1).split(",")}
                if "verify" in names:
                    offenders.append(str(path))
        assert not offenders, offenders
