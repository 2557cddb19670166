"""`import mrey` loads numpy but no part of scipy.

scipy is imported where it is called (the NU root oracle, the coupling fit
and the thermodynamic quadrature), so a session that never calls them does
not pay for loading it.
"""

import subprocess
import sys

CHECK = "import sys, mrey; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
