"""`import mrey`, `mrey spectrum --n 0 --l 0`, a coupling fit, one well's
levels-and-waves analysis, a thermodynamic curve and `mrey figures` load
numpy only: no scipy, no mpmath.

scipy is imported where the thermodynamic quadrature (the oracle) is called,
mpmath where the 40-digit reference is, so a session that never calls them
does not pay for loading them.  The NU root oracle, the waves, the coupling
fit and the closed-form thermodynamics, Dawson's integral included, run on
numpy alone.
"""

import subprocess
import sys

HEAVY = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
CLI = """
import runpy, sys
sys.argv = {argv!r}
try:
    runpy.run_module("mrey", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""
SPECTRUM = CLI.format(argv=["mrey", "spectrum", "--n", "0", "--l", "0"])
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
# a beta sweep through all three branches of h: power series, Dawson's
# integral, asymptotic series
CURVE = """
import sys, numpy as np, mrey
from mrey import thermo
branches = set()
h = thermo._h

def spy(a, t):
    w = a * t * t
    branch = np.where(w < thermo._Z2_SERIES, 0, np.where(w < thermo._Z2_ASYMPTOTIC, 1, 2))
    branches.update(branch.tolist())
    return h(a, t)

thermo._h = spy
coeffs = mrey.spectral_coefficients(mrey.PotentialParams(0.0, 0.0, 1.0, 0.5),
                                    mrey.PhysicalConstants(1.0, 1.0, 1.0), 0)
curve = mrey.thermo_curve(coeffs, "beta", np.geomspace(1e-3, 1e2, 30), fixed_lambda=20.0)
assert branches == {0, 1, 2} and not curve.errors, (branches, curve.errors)
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


def test_thermo_curve_loads_no_scipy():
    assert _heavy_modules_after(CURVE) == "[]"


def test_figures_command_loads_no_scipy(tmp_path):
    figures = CLI.format(argv=["mrey", "figures", "--output-dir", str(tmp_path)])
    assert _heavy_modules_after(figures) == "[]"
    assert len(list(tmp_path.iterdir())) == 11  # ten curve files and the config


def test_direct_route_still_loads_scipy_integrate():
    # the quadrature oracle stays independent of the closed form's code
    direct = """
import sys, mrey
from mrey import thermo
coeffs = mrey.spectral_coefficients(mrey.PotentialParams(0.0, 0.0, 1.0, 0.5),
                                    mrey.PhysicalConstants(1.0, 1.0, 1.0), 0)
thermo.thermo_direct(mrey.ThermoInput(coeffs, 20.0, 0.5))
"""
    assert "'scipy.integrate'" in _heavy_modules_after(direct)


def test_star_import_binds_exactly_all():
    # no deleted name can linger in the export list, and no public name is
    # missing from it
    import mrey

    namespace = {}
    exec("from mrey import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mrey.__all__)
    assert len(set(mrey.__all__)) == len(mrey.__all__)
    for name in mrey.__all__:
        assert getattr(mrey, name) is namespace[name]
