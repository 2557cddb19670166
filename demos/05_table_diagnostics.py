"""What published level tables can and cannot come from this formula.

The level formula obeys a hard bound E <= Q1(l) = (hbar alpha)^2 l(l+1)/(2 mu)
for every real evaluation, because the energy is Q1 minus a square.  In
particular every l = 0 entry must be <= 0.  The recovery fitter makes this
actionable: given tabulated (n, l, E) rows and alpha, it fits the two coupling
combinations the energies depend on (x1 + x2 and x2 - x3) and reports which
rows no coupling choice can reach.

Run:  python3 demos/05_table_diagnostics.py
"""

import numpy as np

from mrey import PhysicalConstants, PotentialParams, energy, fit_couplings
from mrey.recovery import TableRow, channel_bound

consts = PhysicalConstants()

print("== the bound ==")
rng = np.random.default_rng(2)
worst = -np.inf
for _ in range(2000):
    alpha = rng.uniform(0.1, 1.0)
    scale = alpha * alpha / 16.0
    params = PotentialParams(
        rng.uniform(-scale, scale), rng.uniform(-scale, scale),
        rng.uniform(-2.0, 4.0), alpha,
    )
    n, l = int(rng.integers(0, 6)), int(rng.integers(0, 4))
    margin = energy(params, consts, n, l).energy - channel_bound(l, alpha, consts)
    worst = max(worst, margin)
print(f"  2000 random levels: max of E - Q1(l) = {worst:.3e}  (never positive)")

print()
print("== a column that cannot be reproduced ==")
fixture = (0.109375, 0.046875, -0.078125, -0.265625, -0.515625, -0.828125)
rows = [TableRow(n, 0, e) for n, e in enumerate(fixture)]
report = fit_couplings(rows, alpha=0.5, consts=consts)
print(f"  rows: {fixture}")
print(f"  {report.verdict}")
print("  residuals per row:",
      "  ".join(f"{r:+.4f}" for r in report.residuals))

print()
print("== yet its curvature is exactly right ==")
print("  second differences:", np.diff(fixture, n=2))
print("  a zero-Q3 configuration reproduces that constant exactly:")
params = PotentialParams(0.0, 0.01, 0.02, 0.5)  # x2 = x3 makes Q3 = 0 at l = 0
column = [energy(params, consts, n, 0).energy for n in range(6)]
print("  model second differences:", np.diff(column, n=2))
print("  (-2 Q2 = -0.0625 at alpha = 0.5; the published positive entries are")
print("  consistent with a sign or offset slip, not a different formula)")

print()
print("== a clean table round-trips ==")
truth = PotentialParams(0.005, 0.002, 1.2, 0.4)
rows = [
    TableRow(n, l, energy(truth, consts, n, l).energy)
    for n in range(4) for l in range(3)
]
report = fit_couplings(rows, alpha=0.4, consts=consts)
print(f"  {report.verdict}")
print(f"  identifiable combinations: x1+x2 = {report.x1_plus_x2:+.6f}, "
      f"x2-x3 = {report.x2_minus_x3:+.6f}")
h2a2 = 0.4 ** 2
print(f"  from the generating couplings:  {2 * (truth.a1 + truth.a2) / h2a2:+.6f}, "
      f"{2 * truth.a2 / h2a2 - 2 * truth.a3 / 0.4:+.6f}")
print("  (the raw triple (a1, a2, a3) is one gauge direction short of")
print("  identifiable; the fit pins the two combinations the energies see)")
