"""Radial wavefunctions: construction, normalization, nodes, self-test.

Run:  python3 demos/03_wavefunctions.py
"""

import numpy as np
from scipy.integrate import simpson

from mrey import (
    PhysicalConstants,
    PotentialParams,
    build_wave,
    count_nodes,
    default_node_grid,
    energy,
)
from mrey.wavefunction import ode_residual

consts = PhysicalConstants()
deep = PotentialParams(0.0, 0.0, 5.0, 0.5)

print("== bound-state profiles of a deep screened-Coulomb well ==")
waves = []
for n in range(4):
    level = energy(deep, consts, n, 0)
    wave = build_wave(deep, consts, level)
    waves.append(wave)
    grid = default_node_grid(wave)
    nodes = count_nodes(wave, grid)
    residual = ode_residual(wave)
    print(f"  n={n}  E={level.energy:+.6f}  exponents (beta, zeta) = "
          f"({wave.beta_exp:.4f}, {wave.zeta_exp:.4f})  nodes={nodes}  "
          f"ode residual {residual:.1e}")

print()
print("the (1 - e^-ar) exponent zeta equals delta from the level algebra;")
print("node counts equal n; the residual of the screened radial equation")
print("sits at the rounding floor.")

print()
print("== a rough picture of psi_0 and psi_2 ==")
r_grid = np.linspace(0.25, 12.0, 48)
for wave in (waves[0], waves[2]):
    values = wave.psi(r_grid)
    peak = np.max(np.abs(values))
    line = "".join(
        "#" if v > 0.55 else "+" if v > 0.15 else "." if v > -0.15 else "-"
        for v in values / peak
    )
    print(f"  n={wave.level.n}: {line}")

print()
print("== how orthogonal are different n? ==")
print("each level carries its own decay exponent, so the Jacobi weights of")
print("different n do not match and the polynomial family alone promises")
print("nothing; but all levels solve the same self-adjoint screened problem,")
print("and the overlaps, by Simpson's rule in ln r, vanish accordingly:")
r_max = 1.5 * max(wave.r_tail for wave in waves[:3])
u = np.linspace(np.log(1e-9 / deep.alpha), np.log(r_max), 20001)
psis = [wave.psi(np.exp(u)) for wave in waves[:3]]
for i, first in enumerate(psis):
    row = [simpson(first * second * np.exp(u), x=u) for second in psis]
    print(f"  n={i}: " + "  ".join(f"{v:+.2e}" for v in row))

print()
print("== against the true (unscreened) radial equation ==")
shallow = PotentialParams(0.0, 0.0, 1.0, 0.5)
wave = build_wave(shallow, consts, energy(shallow, consts, 0, 0))
print(f"  screened residual   {ode_residual(wave):.2e}   (solved exactly)")
print(f"  unscreened residual {ode_residual(wave, screened=False):.2e}   "
      "(the screening substitution is the error source)")
