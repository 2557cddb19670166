"""Every demo script runs to completion.

The demos import the public API and assert their own identities, so a demo
that stops running is an API break the unit tests would not show.
"""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
