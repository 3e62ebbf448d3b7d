"""Every demo script runs to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

EDIT_COSTS_OUTPUT = """\
forward map: [0 2 1 3]
reverse map: [0 2 1]
substituted edges: [(1, 2)]
removed edges:     [(0, 3), (1, 3), (2, 3)]
inserted edges:    [(0, 2)]
vertex operations: 3.0
edge operations: 12.0
total: 3.0 + 12.0 = 15.0
exact edit distance: 11.0 via [3 1 2 0]
"""


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_edit_costs_demo_output(tmp_path):
    # the split of one map's edit operations adds up to what transformation_cost prices whole
    assert _run([str(ROOT / "demos" / "01_edit_costs.py")], tmp_path) == EDIT_COSTS_OUTPUT


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = _run(["-c", code], tmp_path).splitlines()
    assert lines[0] == "11.0 [3 1 2 0]"  # the value the README's comment gives
    assert lines[1].endswith("True")
