"""Every script in demos/ runs to completion against the current package.

The demos are narrative walkthroughs of the public API; running each one
in a fresh interpreter catches a renamed or deleted name before a reader
does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedlie

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_directory_is_not_empty():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_error(script):
    src = Path(gradedlie.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout
