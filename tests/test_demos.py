"""Every demo script runs to completion against this checkout's sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
