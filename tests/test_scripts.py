"""The scripts run end to end: the oracle sweep runs every row of its
`FAMILIES` table and agrees, and the two example scripts print JSON, each
run with no site-packages.  The sweep imports its random builders from
`conftest` and its twins from `twins` by name, so this also catches a
renamed twin or one that needs more than the standard library.
README's library example runs too, and its module table and the tests it
names match the tree."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    """Run a script on the package's source with no site-packages
    (`python -S`): every script needs the standard library alone."""
    return subprocess.run(
        [sys.executable, "-S", str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )


def sweep_families():
    """The names of the oracle sweep's `FAMILIES` rows, in table order."""
    path = ROOT / "scripts" / "oracle_sweep.py"
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return [family.name for family in sweep.FAMILIES]


def test_oracle_sweep_agrees():
    """Each row of `FAMILIES` prints one line, in table order, with the
    requested instance count, `infinite` with every answer INF, and every
    family agrees, with no site-packages: the builders in `conftest` and the
    twins in `twins` need the standard library alone."""
    done = run_script("oracle_sweep.py", "--iterations", "3", "--seed", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    *families, verdict = done.stdout.splitlines()
    lines = [line.split() for line in families]
    assert [words[:3] for words in lines] == [[name, "3", "instances"] for name in sweep_families()]
    infinite = [words for words in lines if words[0] == "infinite"]
    assert [words[:5] for words in infinite] == [["infinite", "3", "instances", "3", "infinite"]]
    assert verdict == "all families agree"


@pytest.mark.parametrize("name", ["dendrogram_pipeline.py", "loop_example.py"])
def test_example_prints_json(name):
    done = run_script(name)
    assert done.returncode == 0, done.stderr
    assert isinstance(json.loads(done.stdout), dict)


def readme():
    return (ROOT / "README.md").read_text()


def test_readme_library_example_runs():
    example = readme().split("## Library example", 1)[1]
    code = example.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_has_one_short_row_per_module():
    """One row per module of the package, each at most two lines of a page
    (180 characters): the mechanism belongs in the module's docstring."""
    rows = [line for line in readme().splitlines() if line.startswith("| `stairdist.")]
    names = [row.split("`")[1] for row in rows]
    modules = [f"stairdist.{p.stem}" for p in (ROOT / "src" / "stairdist").glob("*.py")]
    assert sorted(names) == sorted(set(modules) - {"stairdist.__init__"})
    assert all(len(row.split(" | ", 1)[1]) <= 180 for row in rows), rows


def test_readme_names_only_tests_that_exist():
    named = set(re.findall(r"`(test_\w+)`", readme()))
    defined = {
        name
        for path in (ROOT / "tests").glob("test_*.py")
        for name in re.findall(r"^def (test_\w+)", path.read_text(), re.M)
    }
    assert named and named <= defined, named - defined
