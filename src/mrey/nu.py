"""Parametric Nikiforov-Uvarov engine.

A second-order equation brought to the standard form

    psi''(s) + (c1 - c2 s) / (s (1 - c3 s)) psi'(s)
             + (-xi1 s^2 + xi2 s - xi3) / (s (1 - c3 s))^2 psi(s) = 0

is solved by a known recipe: ten constants c4..c13 follow algebraically from
(c1, c2, c3, xi1, xi2, xi3), bound states satisfy a transcendental
quantization condition, and the eigenfunctions are weighted Jacobi
polynomials.  This module implements that recipe generically plus the mapping
from the screened radial problem onto it, and solve_bound_state, a root
finder that brackets the quantization condition itself (no closed-form input)
and solves it numerically by _brent, a pure-Python port of scipy's brentq.
It is the independent oracle used to validate every closed-form energy
expression in spectrum.py.  c4..c9, the residual and xi1..xi3 are each coded
once, in float helpers that the dataclass API wraps and solve_bound_state
calls directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ComplexBranchError, DomainError, NoRootError, NumericalError
from .potential import (
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
    dimensionless_params,
    xi_squared,
)

_BRENTQ_RTOL = 4.0 * sys.float_info.epsilon
_BRENTQ_XTOL = 1e-14
_BRENTQ_MAXITER = 200


@dataclass(frozen=True)
class NuCoefficients:
    """Inputs (c1, c2, c3) and (xi1, xi2, xi3) of the standard form."""

    c1: float
    c2: float
    c3: float
    xi1: float
    xi2: float
    xi3: float


@dataclass(frozen=True)
class NuDerived:
    """The derived constants c4..c13."""

    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float


@dataclass(frozen=True)
class WaveShape:
    """Exponents and Jacobi indices of the NU eigenfunction shape.

    psi(s) = N s^{s_exponent} (1 - c3 s)^{one_minus_s_exponent}
             P_n^{(jacobi_a, jacobi_b)}(1 - 2 c3 s)
    """

    s_exponent: float
    one_minus_s_exponent: float
    jacobi_a: float
    jacobi_b: float


def _constants(c1, c2, c3, xi1, xi2, xi3):
    """c4..c9, sqrt(c8), sqrt(c9); ComplexBranchError if c8 < 0 or c9 < 0."""
    c4 = 0.5 * (1.0 - c1)
    c5 = 0.5 * (c2 - 2.0 * c3)
    c6 = c5**2 + xi1
    c7 = 2.0 * c4 * c5 - xi2
    c8 = c4**2 + xi3
    c9 = c3 * c7 + c3**2 * c8 + c6
    if c8 < 0.0 or c9 < 0.0:
        raise ComplexBranchError(c8, c9)
    return c4, c5, c6, c7, c8, c9, math.sqrt(c8), math.sqrt(c9)


def _residual(c1, c2, c3, xi1, xi2, xi3, n):
    """The quantization residual on plain floats, n already validated."""
    _, c5, _, c7, c8, _, sqrt_c8, sqrt_c9 = _constants(c1, c2, c3, xi1, xi2, xi3)
    return (
        c2 * n
        - (2.0 * n + 1.0) * c5
        + (2.0 * n + 1.0) * (sqrt_c9 + c3 * sqrt_c8)
        + n * (n - 1.0) * c3
        + c7
        + 2.0 * c3 * c8
        + 2.0 * sqrt_c8 * sqrt_c9
    )


def derive_constants(coeffs: NuCoefficients) -> NuDerived:
    """c4..c13 from the NU inputs.

    Raises ComplexBranchError when c8 < 0 or c9 < 0 (the square roots in
    c10..c13 would leave the real axis).
    """
    c1, c2, c3 = coeffs.c1, coeffs.c2, coeffs.c3
    c4, c5, c6, c7, c8, c9, sqrt_c8, sqrt_c9 = _constants(
        c1, c2, c3, coeffs.xi1, coeffs.xi2, coeffs.xi3)
    return NuDerived(
        c4, c5, c6, c7, c8, c9,
        c10=c1 + 2.0 * c4 + 2.0 * sqrt_c8,
        c11=c2 - 2.0 * c5 + 2.0 * (sqrt_c9 + c3 * sqrt_c8),
        c12=c4 + sqrt_c8,
        c13=c5 - (sqrt_c9 + c3 * sqrt_c8),
    )


def quantization_residual(coeffs: NuCoefficients, n: int) -> float:
    """Left-hand side of the NU quantization condition at radial number n.

    Zero exactly at a bound-state energy.  For the screened radial mapping
    the residual is strictly increasing in xi^2, so each n has at most one
    root.  Raises DomainError unless n is an integer >= 0.
    """
    QuantumNumbers(n, 0)
    c = coeffs
    return _residual(c.c1, c.c2, c.c3, c.xi1, c.xi2, c.xi3, n)


def wave_shape(coeffs: NuCoefficients) -> WaveShape:
    """Eigenfunction exponents and Jacobi indices from the derived constants."""
    if coeffs.c3 == 0.0:
        raise DomainError("wave shape requires c3 != 0 (the 1 - c3 s factor degenerates)")
    derived = derive_constants(coeffs)
    return WaveShape(
        s_exponent=derived.c12,
        one_minus_s_exponent=-derived.c12 - derived.c13 / coeffs.c3,
        jacobi_a=derived.c10 - 1.0,
        jacobi_b=derived.c11 / coeffs.c3 - derived.c10 - 1.0,
    )


def _screened_xi(x1, x2, x3, ll1, xi_sq):
    """(xi1, xi2, xi3) of the screened radial problem, ll1 = l(l+1)."""
    return xi_sq - x2 + x3, 2.0 * xi_sq + x1 + x3, xi_sq + ll1


def mrey_mapping(
    params: PotentialParams, consts: PhysicalConstants, l: int
) -> Callable[[float], NuCoefficients]:
    """Map the screened radial problem at angular momentum l onto NU form.

    Returns energy -> NuCoefficients with c1 = c2 = c3 = 1 and

        xi1 = xi^2 - x2 + x3
        xi2 = 2 xi^2 + x1 + x3
        xi3 = xi^2 + l(l+1)

    in the dimensionless variables of potential.dimensionless_params.
    """
    QuantumNumbers(0, l)
    ll1 = float(l * (l + 1))

    def mapping(energy: float) -> NuCoefficients:
        dim = dimensionless_params(params, consts, energy)
        xi1, xi2, xi3 = _screened_xi(dim.x1, dim.x2, dim.x3, ll1, dim.xi_sq)
        return NuCoefficients(c1=1.0, c2=1.0, c3=1.0, xi1=xi1, xi2=xi2, xi3=xi3)

    return mapping


def _brent(f, xa, xb, level, fa=None):
    """The root of f in [xa, xb] by Brent's method, as scipy's brentq finds it.

    A port of scipy's Zeros/brentq.c (after Brent 1973, ch. 4) that does the
    same float operations in the same order, so its root and every point at
    which it calls f are bit-identical to brentq(f, xa, xb, xtol=_BRENTQ_XTOL,
    rtol=_BRENTQ_RTOL, maxiter=_BRENTQ_MAXITER).  fa, when given, is f(xa)
    already evaluated, and f is not called at xa again.  Where brentq raises, this
    raises NumericalError naming `level` (the label of the level, "n=.., l=..")
    and the xi^2 reached: when f returns NaN (checked on every call, as
    brentq's NaN guard does), when f(xa) and f(xb) have the same sign, and
    when _BRENTQ_MAXITER steps do not converge.
    """
    xtol, rtol = _BRENTQ_XTOL, _BRENTQ_RTOL

    def value(x, fx=None):
        fx = float(f(x) if fx is None else fx)  # as brentq's C converts it
        if math.isnan(fx):
            raise NumericalError(f"root search for {level}: NaN residual at xi^2 = {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre, fa)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # C compares signbit; on nonzero, non-NaN values (f < 0.0) is the same
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(
            f"root search for {level}: residual {fpre!r} at xi^2 = {xpre!r} and "
            f"{fcur!r} at xi^2 = {xcur!r} have the same sign")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant through the two points
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation through the three points
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    # C's quotient is inf or NaN there, which fails the test below
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # short enough to stay well inside the bracket: take it
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericalError(
        f"root search for {level}: not converged at xi^2 = {xcur!r} "
        f"after {_BRENTQ_MAXITER} steps")


def solve_bound_state(
    params: PotentialParams,
    consts: PhysicalConstants,
    n: int,
    l: int,
) -> float:
    """Bracket and solve the quantization condition for level (n, l).

    Works in xi^2 = -2 mu E / (hbar alpha)^2, where the residual is strictly
    increasing: a bound state exists iff the residual is negative at xi^2 = 0,
    and its own terms make it positive at xi^2 = max(1, ((x1 + x3) / (2n + 1))^2).
    Raises NoRootError when the level is unbound, and NumericalError when the
    root search breaks down (see _brent).  This never consults the closed-form
    spectrum: it runs the generic recipe through the float helpers and solves
    it with _brent, the in-repo port of scipy's brentq, so each root is
    bit-identical to brentq's on the dataclass path
    quantization_residual(mrey_mapping(...)(E), n).

    Precision limit: with c1 = c2 = c3 = 1, c9 = radicand/4 is formed from
    xi1, xi2 and xi3, each of size xi^2, so the root's relative error grows
    with xi^2: it is 8.6e-9 against 50 digits (the closed form's: 8.5e-18)
    at n = l = 0 of (a1, a2, a3, alpha) = (1.3038747019433676e-06,
    -2.993045207634939e-07, 76.21960089335214, 0.01370259605402353).
    """
    QuantumNumbers(n, l)
    ll1 = float(l * (l + 1))
    dim = dimensionless_params(params, consts, 0.0)  # x1..x3 do not depend on E
    x1, x2, x3 = dim.x1, dim.x2, dim.x3
    e_scale = (consts.hbar * params.alpha) ** 2 / (2.0 * consts.mu)

    def residual_of_xi_sq(xi_sq):
        # mrey_mapping's energy round trip, so roots match the public path
        mapped = xi_squared(params, consts, -xi_sq * e_scale)
        return _residual(1.0, 1.0, 1.0, *_screened_xi(x1, x2, x3, ll1, mapped), n)

    r0 = residual_of_xi_sq(0.0)
    if r0 == 0.0:
        return 0.0
    if r0 > 0.0:
        raise NoRootError(f"no bound state for n={n}, l={l}: residual {r0:.6g} at E=0")
    # At c1 = c2 = c3 = 1 the residual is (2n + 1)/2 + n^2 + 2 l(l+1) - x1 - x3
    # + (2n + 1)(sqrt(c8) + sqrt(c9)) + 2 sqrt(c8 c9), with sqrt(c8) >= xi: at
    # least (2n + 1)/2 once (2n + 1) xi >= x1 + x3.  That slack outlasts the
    # rounding of its xi^2-sized terms, a few eps xi^2, for xi^2 < 1e14.
    hi = max(1.0, ((x1 + x3) / (2.0 * n + 1.0)) ** 2)
    return -_brent(residual_of_xi_sq, 0.0, hi, f"n={n}, l={l}", r0) * e_scale
