"""The scripts run end to end: the oracle sweep agrees on every family, and
the two example scripts print JSON.  The sweep imports random builders and
twins from the test modules by name, so this also catches a renamed twin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )


def test_oracle_sweep_agrees():
    done = run_script("oracle_sweep.py", "--iterations", "3", "--seed", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all families agree"


@pytest.mark.parametrize("name", ["dendrogram_pipeline.py", "loop_example.py"])
def test_example_prints_json(name):
    done = run_script(name)
    assert done.returncode == 0, done.stderr
    assert isinstance(json.loads(done.stdout), dict)
