"""The two derivative-free searches of a fit, ported from ``scipy.optimize`` so that a fit does not import it.

- ``nelder_mead`` is the Nelder & Mead (1965) simplex search as
  ``scipy.optimize.minimize(method="Nelder-Mead")`` runs it for a fit: from a
  given initial simplex, without bounds, with ``adaptive`` off and ``maxfev``
  unset.
- ``bounded_minimum`` is Brent's (1973) bounded scalar minimization as
  ``scipy.optimize.minimize_scalar(method="bounded")`` runs it.

Both keep scipy's order of operations line by line (the argsort, the simplex
sums and step coefficients, the copy handed to the objective, numpy's sign,
abs and maximum), so that every output bit stays what scipy gives; importing
``scipy.optimize`` costs a CLI process 0.4-0.8 s and about 43 MB. The test
suite holds both equal to scipy.
"""

from __future__ import annotations

from math import sqrt
from typing import NamedTuple

import numpy as np


class Search(NamedTuple):
    """One search: its start, iterations, objective calls and minimum, and whether it converged before ``max_iter``."""

    start: tuple[float, ...]
    nit: int
    nfev: int
    fun: float
    success: bool


def nelder_mead(f, simplex, max_iter, xatol, fatol):
    """Minimize ``f`` from the (N + 1, N) ``simplex``; returns the best vertex and its ``Search``.

    The search stops once every vertex lies within ``xatol`` of the best in
    each coordinate and within ``fatol`` of it in value, or when the
    iteration count reaches ``max_iter`` (the count starts at 1, as scipy's
    does). ``f`` gets a copy of each point and returns a scalar.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(simplex, dtype=float)
    start = tuple(float(v) for v in sim[0])
    N = sim.shape[1]
    nfev = 0

    def func(x):
        nonlocal nfev
        nfev += 1
        return f(np.copy(x))

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = func(sim[k])
    # scipy sorts the first simplex twice; both sorts stay, since the unstable default argsort can reorder ties
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)

    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while iterations < max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break

        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        doshrink = 0

        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:  # contraction outside
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = 1
            else:  # contraction inside
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = 1
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], Search(start, iterations, nfev, float(np.min(fsim)), iterations < max_iter)


def bounded_minimum(f, lo, hi, xatol, max_iter):
    """Minimize the scalar function ``f`` over [``lo``, ``hi``]; returns the best point and its ``Search``.

    Golden-section steps, with parabolic steps where they are acceptable,
    until the bracket is within ``xatol`` of the best point (plus a relative
    part) or ``max_iter`` evaluations have been made. ``nit`` counts the
    evaluations, as scipy's does. A NaN best point or value fails the search.
    """
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    start = (float(x),)
    fx = f(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if np.abs(e) > tol1:  # try a parabola
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= max_iter:
            converged = False
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        converged = False
    return xf, Search(start, num, num, float(fx), converged)
