"""Tests for the repro-run command line (repro.runtime.cli)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runtime.cli import main


def test_cli_import_leaves_networkx_unloaded():
    """The serving cold start imports only declared dependencies."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, repro.runtime.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.slow
class TestRunCommand:
    def test_run_writes_json_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--app",
                "synthetic",
                "--seconds",
                "0.8",
                "--seed",
                "0",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "active fraction" in text
        data = json.loads(out.read_text())
        assert data["app"] == "synthetic"
        assert data["missed_items"] == 0
        assert data["outputs"] > 0
        assert 0 < data["measured_active_fraction"] <= 1.0
        assert data["planned_active_fraction"] == pytest.approx(
            data["measured_active_fraction"], rel=0.15
        )
        assert {n["name"] for n in data["nodes"]} == {
            "filter",
            "expand",
            "score",
        }

    def test_drift_flags_trigger_replan(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--app",
                "synthetic",
                "--seconds",
                "2.5",
                "--drift-node",
                "1",
                "--drift-factor",
                "1.8",
                "--drift-after",
                "0.7",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["replans"] >= 1
        assert any(e["adopted"] for e in data["replan_events"])


class TestArgumentSurface:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "quantum"])

    def test_rejects_unknown_shed_policy(self):
        with pytest.raises(SystemExit):
            main(["run", "--shed", "telepathy"])
