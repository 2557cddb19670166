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
expression in spectrum.py.  c4..c13, the residual, xi1..xi3 and the wave
shape are each coded once, in float helpers that solve_bound_state and
wavefunction.build_wave call.  Each xi is handed over as the tuple of its
addends, and c8, c9 and the residual are each one exact sum (math.fsum,
Shewchuk's algorithm) over the expanded terms.  With c1 = c2 = c3 = 1,
c9 = 1/4 - x1 - x2 + l(l+1) takes xi^2 from xi1, xi2 and xi3, where it
cancels; summed exactly it carries no error of size eps xi^2, which the root
and, in deep wells, the (1 - s) exponent zeta would otherwise inherit.
"""

from __future__ import annotations

import math
import sys

from .errors import ComplexBranchError, NoRootError, NumericalError
from .potential import (PhysicalConstants, PotentialParams, _check_quantum_numbers, _couplings,
                        xi_squared)

_BRENTQ_RTOL = 4.0 * sys.float_info.epsilon
_BRENTQ_XTOL = 1e-14
_BRENTQ_MAXITER = 200


def _constants(c1, c2, c3, xi1, xi2, xi3):
    """c4, c5, c8, c9, sqrt(c8), sqrt(c9); ComplexBranchError if c8 < 0 or c9 < 0.

    Each xi is the tuple of its addends, as _screened_xi hands them over
    (three for xi2, two for xi3).  c8 = c4^2 + xi3 and
    c9 = c5^2 + xi1 + c3 (2 c4 c5 - xi2) + c3^2 (c4^2 + xi3) are each one exact
    sum over the expanded terms, so the xi^2 that xi1, xi2 and xi3 share
    cancels without rounding (exactly so where c3 times an addend is exact, as
    at c3 = 1).
    """
    c4 = 0.5 * (1.0 - c1)
    c5 = 0.5 * (c2 - 2.0 * c3)
    c3_sq = c3 * c3
    p, q, r = xi2
    t, u = xi3
    c8 = math.fsum((c4 * c4, t, u))
    c9 = math.fsum((c5 * c5, *xi1, 2.0 * c3 * c4 * c5, -c3 * p, -c3 * q, -c3 * r,
                    c3_sq * c4 * c4, c3_sq * t, c3_sq * u))
    if c8 < 0.0 or c9 < 0.0:
        raise ComplexBranchError(c8, c9)
    return c4, c5, c8, c9, math.sqrt(c8), math.sqrt(c9)


def _residual(c1, c2, c3, xi1, xi2, xi3, n):
    """The quantization residual, zero at a bound state of radial number n:

        c2 n - (2n + 1) c5 + (2n + 1)(sqrt(c9) + c3 sqrt(c8)) + n (n - 1) c3
        + c7 + 2 c3 c8 + 2 sqrt(c8 c9)

    one exact sum, with c7 + 2 c3 c8 = 2 c4 c5 - xi2 + 2 c3 (c4^2 + xi3)
    expanded into xi2's and xi3's addends; n is already validated.  For the
    screened radial mapping it is strictly increasing in xi^2, so each n has
    at most one root.
    """
    c4, c5, _, _, sqrt_c8, sqrt_c9 = _constants(c1, c2, c3, xi1, xi2, xi3)
    k = 2.0 * n + 1.0
    two_c3 = 2.0 * c3
    p, q, r = xi2
    t, u = xi3
    return math.fsum((c2 * n, -k * c5, k * sqrt_c9, k * c3 * sqrt_c8, n * (n - 1.0) * c3,
                      2.0 * c4 * c5, -p, -q, -r, two_c3 * c4 * c4, two_c3 * t, two_c3 * u,
                      2.0 * sqrt_c8 * sqrt_c9))


def _wave_shape(c1, c2, c3, xi1, xi2, xi3):
    """The NU eigenfunction's shape, c3 != 0: (s exponent, (1 - c3 s) exponent,
    Jacobi a, Jacobi b) = (c12, -c12 - c13/c3, c10 - 1, c11/c3 - c10 - 1) of

        psi(s) = N s^{c12} (1 - c3 s)^{-c12 - c13/c3} P_n^{(c10 - 1, c11/c3 - c10 - 1)}(1 - 2 c3 s)

    with c10 = c1 + 2 c4 + 2 sqrt(c8), c11 = c2 - 2 c5 + 2 (sqrt(c9) + c3 sqrt(c8)),
    c12 = c4 + sqrt(c8) and c13 = c5 - (sqrt(c9) + c3 sqrt(c8)).
    """
    c4, c5, _, _, sqrt_c8, sqrt_c9 = _constants(c1, c2, c3, xi1, xi2, xi3)
    c10 = c1 + 2.0 * c4 + 2.0 * sqrt_c8
    c11 = c2 - 2.0 * c5 + 2.0 * (sqrt_c9 + c3 * sqrt_c8)
    c12 = c4 + sqrt_c8
    c13 = c5 - (sqrt_c9 + c3 * sqrt_c8)
    return c12, -c12 - c13 / c3, c10 - 1.0, c11 / c3 - c10 - 1.0


def _screened_xi(x1, x2, x3, ll1, xi_sq):
    """The addends of (xi1, xi2, xi3) of the screened radial problem,
    xi1 = xi^2 - x2 + x3, xi2 = 2 xi^2 + x1 + x3 and xi3 = xi^2 + l(l+1),
    with c1 = c2 = c3 = 1 in the dimensionless couplings of
    potential._couplings and xi^2 = -2 mu E / (hbar alpha)^2
    (potential.xi_squared); ll1 = l(l+1)."""
    return (xi_sq, -x2, x3), (2.0 * xi_sq, x1, x3), (xi_sq, ll1)


def _mrey_xi(params, consts, ll1, energy):
    """_screened_xi at this energy, ll1 = l(l+1)."""
    xi_sq = xi_squared(params, consts, energy)
    return _screened_xi(*_couplings(params, consts)[1:], ll1, xi_sq)


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
    it with _brent, the in-repo port of scipy's brentq.

    Precision: the residual is summed exactly, so the root keeps its digits at
    large xi^2.  At n = l = 0 of (a1, a2, a3, alpha) = (1.3038747019433676e-06,
    -2.993045207634939e-07, 76.21960089335214, 0.01370259605402353),
    xi^2 = 3.2e7, it is 1.6e-16 off 50 digits (the closed form: 8.5e-18).
    """
    _check_quantum_numbers(n, l)
    ll1 = float(l * (l + 1))
    h2a2, x1, x2, x3 = _couplings(params, consts)  # x1..x3 do not depend on E
    e_scale = h2a2 / (2.0 * consts.mu)

    def residual_of_xi_sq(xi_sq):
        return _residual(1.0, 1.0, 1.0, *_screened_xi(x1, x2, x3, ll1, xi_sq), n)

    r0 = residual_of_xi_sq(0.0)
    if r0 == 0.0:
        return 0.0
    if r0 > 0.0:
        raise NoRootError(f"no bound state for n={n}, l={l}: residual {r0:.6g} at E=0")
    # At c1 = c2 = c3 = 1 the residual is (2n + 1)/2 + n^2 + 2 l(l+1) - x1 - x3
    # + (2n + 1)(sqrt(c8) + sqrt(c9)) + 2 sqrt(c8 c9), with sqrt(c8) >= xi: at
    # least (2n + 1)/2 once (2n + 1) xi >= x1 + x3.  Summed exactly, it rounds
    # only in its products and square roots, by ~eps (2n + 1 + 2 sqrt(c9)) xi:
    # below that slack while xi^2 < ~1e28.
    hi = max(1.0, ((x1 + x3) / (2.0 * n + 1.0)) ** 2)
    return -_brent(residual_of_xi_sq, 0.0, hi, f"n={n}, l={l}", r0) * e_scale
