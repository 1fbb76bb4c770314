"""The ``repro verify-py`` command, driven in-process."""

import pytest

from repro.cli import EXIT_ERROR, EXIT_SAFE, EXIT_UNSAFE, main

from tests.pyfront.corpus import example


def test_safe_file_exits_zero(capsys):
    code = main(["verify-py", example("counter_lock_safe.py"), "--no-confirm"])
    out = capsys.readouterr().out
    assert code == EXIT_SAFE
    assert "SAFE" in out


def test_unsafe_file_exits_ten(capsys):
    code = main(["verify-py", example("counter_unsafe.py"), "--no-confirm"])
    out = capsys.readouterr().out
    assert code == EXIT_UNSAFE
    assert "UNSAFE" in out


def test_witness_prints_python_lines(capsys):
    code = main(
        ["verify-py", example("counter_unsafe.py"), "--witness", "--no-confirm"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_UNSAFE
    assert "counter_unsafe.py:" in out
    assert "counterexample trace:" in out


def test_confirmation_runs_both_oracles(capsys):
    code = main(
        ["verify-py", example("augassign_unsafe.py"), "--witness",
         "--confirm-trials", "80"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_UNSAFE
    assert "symbolic replay: ok" in out
    assert "concrete execution: CONFIRMED" in out


def test_replay_error_is_reported_not_raised(monkeypatch, capsys):
    import repro.smc.witness_replay as witness_replay

    def broken(*args, **kwargs):
        raise witness_replay.ReplayError("step 3 disagrees")

    monkeypatch.setattr(witness_replay, "replay_witness", broken)
    code = main(
        ["verify-py", example("dcl_unsafe.py"), "--confirm-trials", "0"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_UNSAFE
    assert "symbolic replay: FAILED (step 3 disagrees)" in out


def test_subset_violation_exits_one_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import threading\nimport socket\n\n"
        "if __name__ == \"__main__\":\n    pass\n"
    )
    code = main(["verify-py", str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert f"{bad}:2:1" in err  # the `import socket` line, 1-based col
    assert "unsupported import" in err


def test_syntax_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    code = main(["verify-py", str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert f"{bad}:1:" in err


def test_missing_file_exits_one(tmp_path, capsys):
    code = main(["verify-py", str(tmp_path / "nope.py")])
    assert code == EXIT_ERROR
    assert "nope.py" in capsys.readouterr().err


def test_fuzz_pycheck_flag(capsys):
    code = main(["fuzz", "--pycheck", "--seeds", "5", "--unwind", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_SAFE
    assert "cross-check" in out
