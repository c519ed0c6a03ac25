"""Smoke test: every script in demos/ runs to completion without errors."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srt

# The directory holding the imported `srt` package, so that a child process
# runs the same code as this one, installed or not.
SRT_IMPORT_ROOT = str(Path(srt.__file__).resolve().parent.parent)
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
DEMO_TIMEOUT_S = 60  # each demo takes well under a second


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRT_IMPORT_ROOT, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=DEMO_TIMEOUT_S,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
