"""The likelihood kernels against direct sums of the model log densities."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimsplice import _kernels, estimation
from claimsplice.composite import FAMILIES as COMPOSITE_FAMILIES
from claimsplice.composite import CompositeModel
from claimsplice.copula import GumbelCopula
from claimsplice.families import InverseWeibullParams, WeibullParams
from tests.conftest import FAMILIES, random_composite
from tests.test_composite import IBIW, PIW, WIW


def _nll(params, data):
    return _kernels.composite_nll(type(params.head), params.as_vector(), _kernels.Sample(data))


def _check_nll(params, data):
    assert _nll(params, data) == pytest.approx(-np.sum(CompositeModel(params).logpdf(data)), rel=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_composite_nll_equals_sum_of_logpdf(family, rng):
    for _ in range(25):
        params = random_composite(family, rng)
        data = CompositeModel(params).sample(500, rng)
        _check_nll(params, data)
        # a threshold on a data point, the minimum or the maximum: y <= theta is head
        for theta in (data[rng.integers(data.size)], data.min(), data.max()):
            _check_nll(replace(params, theta=float(theta)), data)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(FAMILIES),
    st.integers(20, 400),
    st.sampled_from(["point", "min", "max"]),
)
def test_composite_nll_property_theta_on_data(seed, family, n, where):
    rng = np.random.default_rng(seed)
    params = random_composite(family, rng)
    # cents-rounded claims drawn from a pool a quarter of the sample's size, so values repeat
    pool = np.maximum(np.round(CompositeModel(params).sample(1 + n // 4, rng), 2), 0.01)
    data = rng.choice(pool, size=n)
    theta = {"point": data[rng.integers(n)], "min": data.min(), "max": data.max()}[where]
    _check_nll(replace(params, theta=float(theta)), data)


def _nll_by_boolean_index(head, vector, data):
    """The kernel's sum with the head/tail split by boolean indexing, as it was first written (oracle)."""
    *head_params, alpha, gamma, theta = vector
    log_r, log_1mr, log_head_cdf, log_tail_sf = _kernels.splice_constants(head, head_params, alpha, gamma, theta)
    log_y, in_head = np.log(data), data <= theta
    total = np.sum(log_r + head.unchecked_logpdf(log_y[in_head], *head_params) - log_head_cdf) + np.sum(
        log_1mr + InverseWeibullParams.unchecked_logpdf(log_y[~in_head], alpha, gamma) - log_tail_sf
    )
    return -float(total)


# The split must keep every element's order, since a change of summation order
# moves the last bits, and with them the Nelder-Mead path and the fitted parameters.
PINNED_VECTORS = {
    "weibull": ([1.3, 2600.0, 1.7, 3900.0, 4500.0], [0.8, 1200.0, 1.1, 9000.0, 20000.0], [2.1, 5000.0, 2.4, 3000.0]),
    "paralogistic": ([1.4, 4.0e-4, 1.7, 3900.0, 4500.0], [0.9, 9.0e-4, 1.1, 9000.0, 20000.0],
                     [2.2, 2.5e-4, 2.4, 3000.0]),
    "invburr": ([1.2, 1.6, 3.0e-4, 1.7, 3900.0, 4500.0], [0.7, 2.5, 8.0e-4, 1.1, 9000.0, 20000.0],
                [2.0, 1.1, 2.0e-4, 2.4, 3000.0]),
}


def _pinned_data():
    return np.maximum(np.round(np.random.default_rng(20261018).lognormal(8.0, 1.3, size=4000), 2), 0.01)


@pytest.mark.parametrize("family", FAMILIES)
def test_composite_nll_pinned_bits(family):
    data = _pinned_data()
    assert np.unique(data).size < data.size  # ties
    first, second, no_theta = PINNED_VECTORS[family]
    head = COMPOSITE_FAMILIES[family].head
    for v in (first, second, no_theta + [float(data[1234])]):  # the last with theta on a data point
        assert _kernels.composite_nll(head, np.array(v), _kernels.Sample(data)) == _nll_by_boolean_index(head, v, data)


def _theta_walk(data):
    """Thresholds in the order one ``Sample`` sees them, each with whether the split is the one before it."""
    values, counts = np.unique(data, return_counts=True)
    i = values.size // 2
    lo, mid, hi = values[i], values[i + 1], values[i + 2]  # two neighbouring gaps, (lo, mid) and (mid, hi)
    tied = values[np.flatnonzero(counts > 1)[-1]]
    return [
        (lo + 0.25 * (mid - lo), False),
        (lo + 0.75 * (mid - lo), True),  # the same gap
        (lo + 0.75 * (mid - lo), True),  # the same theta
        (mid + 0.5 * (hi - mid), False),  # the next gap
        (lo + 0.5 * (mid - lo), False),  # and back
        (mid, False),  # on the order statistic between the two gaps: y <= theta is head
        (lo + 0.5 * (mid - lo), False),
        (tied, False),
        (values[0], False),
        (0.5 * values[0], False),  # below the minimum: no head
        (0.25 * values[0], True),
        (values[-1], False),  # on the maximum: no tail
        (2.0 * values[-1], True),  # above it
        (lo + 0.25 * (mid - lo), False),
    ]


@pytest.mark.parametrize("family", FAMILIES)
def test_composite_nll_reused_sample_equals_the_oracle_along_a_theta_walk(family):
    data = _pinned_data()
    head = COMPOSITE_FAMILIES[family].head
    no_theta = PINNED_VECTORS[family][2]
    sample = _kernels.Sample(data)
    assert len(sample) == data.size
    last = None
    for theta, reused in _theta_walk(data):
        v = no_theta + [float(theta)]
        assert _kernels.composite_nll(head, np.array(v), sample) == _nll_by_boolean_index(head, v, data), theta
        split = sample.split(theta)
        assert (last is not None and split[0] is last[0] and split[1] is last[1]) == reused, theta
        assert split[0].size == np.count_nonzero(data <= theta)
        last = split


def _oracle_kernel(family, params, sample):
    """``composite_nll`` computed by the boolean-index oracle, with the kernel's +inf cases."""
    params = np.asarray(params, dtype=float)
    if not np.all(np.isfinite(params)) or np.any(params <= 0.0):
        return np.inf
    *head, alpha, gamma, theta = params
    if _kernels.splice_constants(family, head, alpha, gamma, theta) is None:
        return np.inf
    nll = _nll_by_boolean_index(family, params, sample.y)
    return nll if np.isfinite(nll) else np.inf


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_marginal_is_the_fit_of_the_oracle_kernel(family, monkeypatch):
    # the optimizer must see the same bits from the kernel as from the oracle: same optimum, same iterations
    truth = {"weibull": WIW, "paralogistic": PIW, "invburr": IBIW}[family]
    data = np.maximum(np.round(CompositeModel(truth).sample(500, 1), 2), 0.01)
    fit = estimation.fit_marginal(data, family)
    monkeypatch.setattr(_kernels, "composite_nll", _oracle_kernel)
    assert estimation.fit_marginal(data, family) == fit


def test_composite_nll_invalid_params_infinite():
    sample = _kernels.Sample(np.array([1.0, 2.0]))
    for bad in ([1.0, -1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 1.0, 1.0, np.inf]):
        assert _kernels.composite_nll(WeibullParams, np.array(bad), sample) == np.inf
    # theta far outside both supports: both continuity terms underflow
    with np.errstate(over="ignore"):
        assert _kernels.composite_nll(WeibullParams, np.array([5.0, 1e-80, 5.0, 1e80, 1.0]), sample) == np.inf


def test_gumbel_nll_equals_sum_of_logpdf(rng):
    for phi in (1.0, 1.3, 2.0, 10.0, 150.0):
        u = rng.uniform(1e-10, 1 - 1e-10, size=300)
        v = rng.uniform(1e-10, 1 - 1e-10, size=300)
        expected = -np.sum(GumbelCopula(phi).logpdf(u, v))
        assert _kernels.gumbel_nll(phi, u, v) == pytest.approx(expected, rel=1e-10)


def test_gumbel_nll_inadmissible_phi():
    u = np.array([0.5])
    for phi in (0.5, 1.0 - 1e-12, np.nan):
        assert _kernels.gumbel_nll(phi, u, u) == np.inf
