"""Smoke tests: every demo script runs to completion and prints its walk-through,
and the shipped smoke config runs clean through the command line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from widthlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_shipped_smoke_config_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(ROOT / "demos" / "configs" / "smoke.cfg"),
                 "--out", str(out), "--quiet"]) == 0
    assert (out / "results.csv").read_text().count("\n") > 1
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts and all(v["status"] != "violated" for v in verdicts)
