"""Every script under demos/, and the README's Quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import critvar

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv):
    src = str(Path(critvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                           capture_output=True, text=True, timeout=120)


def test_all_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    done = _run([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    done = _run(["-c", block])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "3\n"  # the one print: the algebra's dimension C(3, 2)
