"""`import mrey`, `mrey spectrum --n 0 --l 0`, a coupling fit and one well's
levels-and-waves analysis load numpy only: no scipy, no mpmath.

scipy is imported where it is called (Dawson's integral and the thermodynamic
quadrature), mpmath where the 40-digit reference is, so a session that never
calls them does not pay for loading them.  The NU root oracle, the waves and
the coupling fit run on numpy alone.
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
LEVELS = """
import sys, mrey
from mrey import nu, wavefunction
params, consts = mrey.PotentialParams(0.0, 0.0, 1.5, 0.02), mrey.PhysicalConstants()
valid = [r for r in mrey.spectrum_table(params, consts, 5, 3).rows if r.valid_bound_state]
assert len(valid) == 23, len(valid)
for level in valid:
    nu.solve_bound_state(params, consts, level.n, level.l)
    wave = mrey.build_wave(params, consts, level)
    assert mrey.count_nodes(wave, mrey.default_node_grid(wave)) == level.n
    wavefunction.ode_residual(wave)
mrey.fit_couplings([(r.n, r.l, r.energy) for r in valid], params.alpha, consts)
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


def test_levels_and_waves_load_no_scipy():
    assert _heavy_modules_after(LEVELS) == "[]"
