"""The ported searches against scipy.optimize, which stays the oracle: the same points, values and counts, bit for bit.

The plateau objectives make ties: equal values at several vertices for
argsort to order, and a contracted or trial point that only equals the point
it is compared with. There the two ports must take scipy's side of every
``<`` and ``<=``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import optimize

from claimsplice._search import bounded_minimum, nelder_mead

NM_OBJECTIVES = {
    "quadratic": lambda x, c: np.sum((x - c) ** 2),
    "abs": lambda x, c: np.sum(np.abs(x - c)),
    # the objective's guard: +inf outside the region where the kernel runs
    "half-space": lambda x, c: np.inf if x[0] > c else np.sum((x - 1.0) ** 2),
    "plateau": lambda x, c: np.floor(4.0 * np.sum((x - c) ** 2)) / 4.0,
}

BRENT_OBJECTIVES = {
    "parabola": lambda x, c: (x - c) ** 2,
    "floored-parabola": lambda x, c: np.floor(4.0 * (x - c) ** 2) / 4.0,
    "nan-above": lambda x, c: np.nan if x > c else (x - c + 1.0) ** 2,
}

TOLERANCES = st.sampled_from([1e-10, 1e-8, 1e-4, 1e-2, 0.5])
# a few iterations leave the search unconverged; a few hundred let most cases converge
MAX_ITER = st.one_of(st.integers(1, 3), st.integers(4, 400))
CENTER = st.floats(-2.0, 2.0)


@st.composite
def simplices(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):  # the shape fit_marginal starts from: a point and a step along each axis
        x0 = draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))
        return x0 + draw(st.floats(0.01, 1.0)) * np.vstack([np.zeros(n), np.eye(n)])
    return draw(arrays(float, (n + 1, n), elements=st.floats(-3.0, 3.0)))


@pytest.mark.parametrize("name", NM_OBJECTIVES)
@settings(max_examples=100, deadline=None)
@given(simplex=simplices(), max_iter=MAX_ITER, xatol=TOLERANCES, fatol=TOLERANCES, c=CENTER)
def test_nelder_mead_equals_scipy(name, simplex, max_iter, xatol, fatol, c):
    f = NM_OBJECTIVES[name]
    with np.errstate(invalid="ignore"):  # +inf minus +inf where every vertex is outside the half-space
        x, search = nelder_mead(lambda x: f(x, c), simplex, max_iter, xatol, fatol)
        res = optimize.minimize(lambda x: f(x, c), simplex[0], method="Nelder-Mead",
                                options={"initial_simplex": simplex, "maxiter": max_iter,
                                         "xatol": xatol, "fatol": fatol})
    assert np.array_equal(x, res.x)
    assert (search.fun, search.nit, search.nfev, search.success) == (res.fun, res.nit, res.nfev, res.success)
    assert search.start == tuple(simplex[0])


@pytest.mark.parametrize("name", BRENT_OBJECTIVES)
@settings(max_examples=100, deadline=None)
@given(lo=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0), max_iter=MAX_ITER, xatol=TOLERANCES, c=CENTER)
def test_bounded_minimum_equals_scipy(name, lo, width, max_iter, xatol, c):
    f = BRENT_OBJECTIVES[name]
    hi = lo + width
    x, search = bounded_minimum(lambda x: f(x, c), lo, hi, xatol, max_iter)
    res = optimize.minimize_scalar(lambda x: f(x, c), bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol, "maxiter": max_iter})
    assert np.array_equal(x, res.x, equal_nan=True)
    assert np.array_equal(search.fun, res.fun, equal_nan=True)
    assert (search.nit, search.nfev, search.success) == (res.nit, res.nfev, res.success)
    assert lo <= search.start[0] <= hi

