"""The worked examples in demos/ run to completion."""

from pathlib import Path

import pytest

from test_series import _run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run_python([str(demo)], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 3
