"""Every demo script runs to completion against this checkout's sources."""

from __future__ import annotations

import pytest

from conftest import REPO, run_python

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    result = run_python(str(demo), timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
