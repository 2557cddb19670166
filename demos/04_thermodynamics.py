"""Partition function and derived quantities over temperature and level cap.

Z is an integral over the continuous level index n in [0, lambda] with an
exact form through Dawson's integral; U, S, F and C come from the same form
and its derivatives, so the usual identities hold to near machine precision
and survive to extreme arguments (the integrand spans ~1.5 million e-folds
at lambda = 700, beta = 100).  Direct quadrature of the moments
integral g^m e^{-beta g} dn, g = E - min E and m = 0, 1, 2, checks ln Z, U
and C.

Run:  python3 demos/04_thermodynamics.py
"""

import math

import numpy as np

from mrey import (
    PhysicalConstants,
    PotentialParams,
    ThermoInput,
    spectral_coefficients,
    thermo_curve,
    thermo_state,
)
from mrey.thermo import (
    level_energies,
    log_partition_direct,
    partition_discrete,
    thermo_direct,
)

consts = PhysicalConstants()
params = PotentialParams(0.0, 0.0, 1.0, 0.5)
coeffs = spectral_coefficients(params, consts, l=0)

print("== closed form against quadrature ==")
print("Dawson closed form vs direct e^{-beta E(n)} quadrature:")
for lam, beta in ((1.0, 1.0), (20.0, 1.0), (700.0, 10.0), (700.0, 100.0)):
    inp = ThermoInput(coeffs, lam, beta)
    a = thermo_state(inp).ln_z
    b = log_partition_direct(inp)
    print(f"  lambda={lam:5g} beta={beta:5g}  ln Z = {a:16.6f}  "
          f"route gap {abs(a - b):.2e}")

print()
print("== sum vs integral ==")
print("the discrete sum tracks the integral when the integrand varies slowly")
print("per unit n (half-integer cap, small beta):")
for lam, beta in ((20.5, 0.01), (100.5, 0.001)):
    zi = thermo_state(ThermoInput(coeffs, lam, beta)).z
    zd = partition_discrete(level_energies(coeffs, lam), beta)
    print(f"  lambda={lam:6g} beta={beta:6g}  integral {zi:10.4f}  "
          f"sum {zd:10.4f}  rel gap {abs(zd - zi) / zi:.2e}")

print()
print("== derived quantities along a temperature sweep (lambda = 1) ==")
print(f"  {'beta':>7} {'Z':>10} {'U':>10} {'S':>10} {'F':>10} {'C':>10}")
for beta in (0.1, 0.5, 1.0, 5.0, 20.0, 100.0):
    st = thermo_state(ThermoInput(coeffs, 1.0, beta))
    print(f"  {beta:>7g} {st.z:>10.4f} {st.u:>10.4f} {st.s:>10.4f} "
          f"{st.f:>10.4f} {st.c:>10.4f}")
    assert abs(st.f - (st.u - st.s / beta)) <= 1e-9 * max(1.0, abs(st.f))

print("  (F = U - TS checked at every row)")

print()
print("== closed-form U and C vs direct quadrature of the moments ==")
for beta in (0.5, 5.0, 50.0):
    inp = ThermoInput(coeffs, 5.0, beta)
    st = thermo_state(inp)
    _, u_q, c_q = thermo_direct(inp)
    print(f"  beta={beta:5g}  U={st.u:.10f}  C={st.c:.10f}  "
          f"gaps {abs(st.u - u_q):.1e}, {abs(st.c - c_q):.1e}")

print()
print("== sweeps for the figure analogs ==")
curve = thermo_curve(coeffs, "lambda", np.linspace(1.0, 100.0, 12), fixed_beta=0.1)
print("  Z grows with the level cap at fixed temperature:")
print("   ", "  ".join(f"{z:.3g}" for z in curve.z))
curve = thermo_curve(coeffs, "beta", np.geomspace(0.1, 100.0, 10), fixed_lambda=1.0)
print("  and grows with beta when every level in [0, lambda] is negative:")
print("   ", "  ".join(f"{z:.3g}" for z in curve.z))
