"""The likelihood kernels against direct sums of the model log densities."""

from dataclasses import replace

import numpy as np
import pytest

from claimsplice import _kernels
from claimsplice.composite import CompositeModel
from claimsplice.copula import GumbelCopula
from claimsplice.families import WeibullParams
from tests.conftest import FAMILIES, random_composite


def _check_nll(params, data):
    nll = _kernels.composite_nll(type(params.head), params.as_vector(), data)
    assert nll == pytest.approx(-np.sum(CompositeModel(params).logpdf(data)), rel=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_composite_nll_equals_sum_of_logpdf(family, rng):
    for _ in range(25):
        params = random_composite(family, rng)
        data = np.ascontiguousarray(CompositeModel(params).sample(500, rng))
        _check_nll(params, data)
        # a threshold on a data point, the minimum or the maximum: y <= theta is head
        for theta in (data[rng.integers(data.size)], data.min(), data.max()):
            _check_nll(replace(params, theta=float(theta)), data)


def test_composite_nll_invalid_params_infinite():
    data = np.array([1.0, 2.0])
    for bad in ([1.0, -1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 1.0, 1.0, np.inf]):
        assert _kernels.composite_nll(WeibullParams, np.array(bad), data) == np.inf
    # theta far outside both supports: both continuity terms underflow
    with np.errstate(over="ignore"):
        assert _kernels.composite_nll(WeibullParams, np.array([5.0, 1e-80, 5.0, 1e80, 1.0]), data) == np.inf


def test_gumbel_nll_equals_sum_of_logpdf(rng):
    for phi in (1.0, 1.3, 2.0, 10.0, 150.0):
        u = np.ascontiguousarray(rng.uniform(1e-10, 1 - 1e-10, size=300))
        v = np.ascontiguousarray(rng.uniform(1e-10, 1 - 1e-10, size=300))
        expected = -np.sum(GumbelCopula(phi).logpdf(u, v))
        assert _kernels.gumbel_nll(phi, u, v) == pytest.approx(expected, rel=1e-10)


def test_gumbel_nll_inadmissible_phi():
    u = np.array([0.5])
    for phi in (0.5, 1.0 - 1e-12, np.nan):
        assert _kernels.gumbel_nll(phi, u, u) == np.inf
