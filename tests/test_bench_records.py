"""Trajectory records (``BENCH_*.json``) say what they measured."""

import json
import subprocess

import pytest

from benchmarks import common


@pytest.mark.parametrize(
    "porcelain, dirty", ((" M src/repro/cli.py\n", True), ("", False))
)
def test_bench_record_carries_commit_and_dirty_flag(
    tmp_path, monkeypatch, porcelain, dirty
):
    """A PR benches its working tree before committing: the record must
    not pass the parent's hash off as a clean measurement."""
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        stdout = "abc1234\n" if argv[1] == "rev-parse" else porcelain
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(common.subprocess, "run", fake_run)
    monkeypatch.setattr(common, "_COMMIT_CACHE", [])
    monkeypatch.setattr(common, "REPO_ROOT", str(tmp_path))
    record = common.emit_bench_record("probe", "w", wall_s=1.5)
    assert (record["commit"], record["dirty"]) == ("abc1234", dirty)
    # The trajectory files are the bench's own output, not a dirty tree.
    status = next(argv for argv in calls if argv[1] == "status")
    assert ":(exclude)BENCH_*.json" in status
    (line,) = (tmp_path / "BENCH_probe.json").read_text().splitlines()
    assert json.loads(line) == record


def test_bench_record_outside_a_git_checkout(tmp_path, monkeypatch):
    def no_git(argv, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(common.subprocess, "run", no_git)
    monkeypatch.setattr(common, "_COMMIT_CACHE", [])
    monkeypatch.setattr(common, "REPO_ROOT", str(tmp_path))
    record = common.emit_bench_record("probe", "w")
    assert (record["commit"], record["dirty"]) == ("unknown", None)
