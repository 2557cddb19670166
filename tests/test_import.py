"""`import mrey`, `mrey spectrum --n 0 --l 0` and a coupling fit load numpy only:
no scipy, no mpmath.

scipy is imported where it is called (the NU root oracle, Dawson's integral
and the thermodynamic quadrature), mpmath where the 40-digit reference is,
so a session that never calls them does not pay for loading them.  The
coupling fit runs on numpy alone.
"""

import subprocess
import sys

HEAVY = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
SPECTRUM = """
import runpy, sys
sys.argv = ["mrey", "spectrum", "--n", "0", "--l", "0"]
try:
    runpy.run_module("mrey", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def _heavy_modules_after(code):
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + HEAVY], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert _heavy_modules_after("import sys, mrey") == "[]"


def test_spectrum_command_loads_no_scipy():
    assert _heavy_modules_after(SPECTRUM) == "[]"


def test_coupling_fit_loads_no_scipy():
    fit = "import sys, mrey\nmrey.fit_couplings([(0, 0, -0.28125), (1, 0, -0.02)], 0.5)"
    assert _heavy_modules_after(fit) == "[]"
