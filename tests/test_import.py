"""`import mrey` leaves the solver and quadrature modules of scipy unloaded.

They are imported where they are called (the NU root oracle, the coupling
fit and the thermodynamic quadrature), so a session that never calls them
does not pay for loading them.
"""

import subprocess
import sys

CHECK = (
    "import sys, mrey; "
    "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
)


def test_import_loads_neither_optimize_nor_integrate():
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
