"""Every demo runs to completion, as a user runs it: its own process, exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import altgen

SRC = Path(altgen.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))
# about 24 s of Lanczos at N = 117,649
SLOW = {"demo_spectral"}


def test_demos_are_found():
    assert DEMOS and SLOW <= {path.stem for path in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    if demo.stem in SLOW and not os.environ.get("ALTGEN_SLOW"):
        pytest.skip("117,649-point spectral run only in the slow suite")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
