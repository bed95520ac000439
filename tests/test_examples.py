"""Run the example programs.

Nothing else executes ``examples/*.py``, so an example that imports a
module that has gone, or greps a trace for a method name that was
renamed, would rot silently.  Each fast example runs here as its own
process, the way its docstring says to run it.  ``availability_study.py``
takes about half a minute; CI runs it as a step of the vector-engine
job instead.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SLOW = {"availability_study.py"}
EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py")
                  if path.name not in SLOW)


def test_there_are_examples_to_run():
    assert "grouped_items.py" in EXAMPLES and len(EXAMPLES) >= 5


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, str(REPO_ROOT / "examples" / name)],
                          env=env, cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip(), f"{name} printed nothing"
