import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from claimsplice.composite import CompositeModel, CompositeParams, mixing_weight
from claimsplice.families import (
    InverseBurrParams,
    InverseWeibullParams,
    ParalogisticParams,
    WeibullParams,
)
from tests.conftest import FAMILIES, random_composite, total_mass

# fitted estimates reported for the two claim coordinates, with the
# published mixing weight; inputs are rounded to 4 digits so +-0.01
PUBLISHED_WEIGHTS = [
    (CompositeParams(ParalogisticParams(0.7991, 0.0008), InverseWeibullParams(0.9046, 10034.72), 25449.23), 0.8832),
    (CompositeParams(WeibullParams(0.5394, 4644.45), InverseWeibullParams(1.3988, 13751.62), 27179.21), 0.9102),
    (CompositeParams(ParalogisticParams(1.2596, 0.0007), InverseWeibullParams(2.4474, 11634.1078), 16941.38), 0.9865),
    (CompositeParams(WeibullParams(0.5485, 1.2e11), InverseWeibullParams(0.5139, 410.9973), 100.0001), 0.2191),
]

WIW = CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(1.2, 8000.0), 5000.0)
PIW = CompositeParams(ParalogisticParams(1.3, 0.0005), InverseWeibullParams(1.5, 9000.0), 6000.0)
IBIW = CompositeParams(InverseBurrParams(1.2, 1.6, 0.0004), InverseWeibullParams(1.3, 10000.0), 7000.0)
MODELS = [WIW, PIW, IBIW]


def mixing_weight_direct(params: CompositeParams):
    """r from the per-family closed-form A/(A+B) expressions in plain arithmetic.

    Redundant with :func:`mixing_weight` by algebra; kept as the direct
    transcription of the closed forms for cross-checking.
    """
    h, t, th = params.head, params.tail, params.theta
    f_t = (t.alpha / th) * (t.gamma / th) ** t.alpha * np.exp(-((t.gamma / th) ** t.alpha))
    s_t = 1.0 - np.exp(-((t.gamma / th) ** t.alpha))
    if isinstance(h, WeibullParams):
        cdf_h = 1.0 - np.exp(-((th / h.sigma) ** h.mu))
        f_h = (h.mu / h.sigma) * np.exp(-((th / h.sigma) ** h.mu)) * (th / h.sigma) ** (h.mu - 1.0)
    elif isinstance(h, ParalogisticParams):
        cdf_h = 1.0 - (1.0 / ((h.sigma * th) ** h.mu + 1.0)) ** h.mu
        f_h = h.mu**2 * (th * h.sigma) ** h.mu / (th * ((th * h.sigma) ** h.mu + 1.0) ** (h.mu + 1.0))
    else:
        cdf_h = ((h.tau * th) ** h.sigma + 1.0) ** (-h.mu) * (h.tau * th) ** (h.mu * h.sigma)
        f_h = (
            h.mu * h.sigma * (th * h.tau) ** (h.mu * h.sigma)
            / (th * ((th * h.tau) ** h.sigma + 1.0) ** (h.mu + 1.0))
        )
    a = f_t * cdf_h
    b = f_h * s_t
    return float(a / (a + b))


@pytest.mark.parametrize("params,expected", PUBLISHED_WEIGHTS)
def test_mixing_weight_matches_published_estimates(params, expected):
    assert mixing_weight(params) == pytest.approx(expected, abs=0.01)


def test_mixing_weight_half_at_balance_point():
    # tune theta so that both continuity terms are equal
    def gap(theta):
        p = CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(1.2, 8000.0), theta)
        return mixing_weight(p) - 0.5

    theta = optimize.brentq(gap, 100.0, 1e6, xtol=1e-10)
    p = CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(1.2, 8000.0), theta)
    assert mixing_weight(p) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_generic_weight_equals_closed_form(family, rng):
    for _ in range(20):
        p = random_composite(family, rng)
        direct = mixing_weight_direct(p)
        if not np.isfinite(direct) or direct in (0.0, 1.0):
            continue  # plain arithmetic under/overflowed; log-space path still works
        assert mixing_weight(p) == pytest.approx(direct, rel=1e-12)


def test_mixing_weight_degenerate_raises():
    # theta far outside both supports: both continuity terms underflow to -inf
    p = CompositeParams(WeibullParams(5.0, 1e-80), InverseWeibullParams(5.0, 1e80), 1.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="degenerate"):
        mixing_weight(p)


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_pdf_continuous_at_threshold(params):
    m = CompositeModel(params)
    th = params.theta
    eps = 1e-6 * th
    assert m.pdf(th - eps) == pytest.approx(m.pdf(th + eps), rel=1e-4)
    # exact branch limits
    left = m.r * params.head.pdf(th) / params.head.cdf(th)
    right = (1 - m.r) * params.tail.pdf(th) / params.tail.sf(th)
    assert left == pytest.approx(right, rel=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_pdf_continuity_random_params(family, rng):
    for _ in range(10):
        p = random_composite(family, rng)
        m = CompositeModel(p)
        log_left = m.log_r + p.head.logpdf(p.theta) - m.log_head_cdf_theta
        log_right = m.log_1mr + p.tail.logpdf(p.theta) - m.log_tail_sf_theta
        # |left - right| / left < 1e-8 stated on the log scale so extreme
        # splices whose density underflows in doubles still check
        assert abs(log_left - log_right) < 1e-8


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_pdf_integrates_to_one(params):
    m = CompositeModel(params)
    assert total_mass(m.pdf, m.ppf, extra_breaks=[params.theta]) == pytest.approx(1.0, abs=1e-6)


def test_pdf_branch_formulas_direct():
    m = CompositeModel(WIW)
    th = WIW.theta
    y_head, y_tail = 0.4 * th, 2.5 * th
    assert m.pdf(y_head) == pytest.approx(m.r * WIW.head.pdf(y_head) / WIW.head.cdf(th), rel=1e-12)
    assert m.pdf(y_tail) == pytest.approx((1 - m.r) * WIW.tail.pdf(y_tail) / WIW.tail.sf(th), rel=1e-12)


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_cdf_at_threshold_equals_weight(params):
    m = CompositeModel(params)
    assert m.cdf(params.theta) == pytest.approx(m.r, rel=1e-12)
    assert m.cdf(1e12 * params.theta) > 1 - 1e-6


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_cdf_matches_pdf_integral(params):
    from scipy import integrate

    m = CompositeModel(params)
    for u in np.linspace(0.05, 0.95, 20):
        y = m.ppf(u)
        pieces = sorted({y, min(y, params.theta)})
        total, prev = 0.0, 1e-12
        for b in pieces:
            total += integrate.quad(m.pdf, prev, b, limit=200)[0]
            prev = b
        assert total == pytest.approx(m.cdf(y), abs=1e-5)


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_quantile_round_trip(params):
    m = CompositeModel(params)
    assert m.ppf(m.r) == pytest.approx(params.theta, rel=1e-10)
    assert m.ppf(m.r / 2) < params.theta
    u = np.linspace(0.01, 0.99, 50)
    assert m.cdf(m.ppf(u)) == pytest.approx(u, rel=1e-8)


@pytest.mark.parametrize("q", [1e-6, 1e-9, 1e-12, 1e-15])
def test_quantile_far_tail_relative_accuracy(q):
    # tail: S_T(y) = (1 - u) / (1 - r) * S_T(theta), inverted in plain arithmetic
    m = CompositeModel(WIW)
    t, th = WIW.tail, WIW.theta
    u = 1.0 - q
    s = (1.0 - u) / (1.0 - m.r) * -np.expm1(-((t.gamma / th) ** t.alpha))
    assert m.ppf(u) == pytest.approx(t.gamma * (-np.log1p(-s)) ** (-1.0 / t.alpha), rel=1e-12)


@pytest.mark.parametrize("theta", [50.0, 100.0, 300.0])
def test_quantile_just_above_weight_when_tail_sf_rounds_to_one(theta):
    # far below the tail scale S_T(theta) is 1 to double precision
    m = CompositeModel(CompositeParams(WIW.head, WIW.tail, theta))
    assert m.params.tail.sf(theta) == 1.0
    u = [m.r]
    for _ in range(50):
        u.append(np.nextafter(u[-1], 1.0))
    y = m.ppf(np.array(u[1:]))
    assert np.all(np.isfinite(y))
    assert np.all(y >= theta)
    assert np.all(np.diff(y) >= 0)


def _ulps_around(x, k):
    """x and the k doubles on either side of it, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return np.array(below[:0:-1] + above)


def _check_splice_contract(m, u):
    y = np.array([m.ppf(x) for x in u])
    assert np.all(np.isfinite(y))
    assert np.all(y[u <= m.r] <= m.theta)
    assert np.all(y[u > m.r] >= m.theta)
    assert np.all(np.diff(y) >= 0)


def test_quantile_contract_across_the_weight():
    # some Weibull heads have F_H(theta) = 1 to double precision, where the
    # head quantile of u = r used to exceed 1 or land above theta
    rng = np.random.default_rng(7)
    for i in range(600):
        m = CompositeModel(random_composite(FAMILIES[i % 3], rng))
        u = _ulps_around(m.r, 3)
        _check_splice_contract(m, u[(u > 0.0) & (u < 1.0)])


@pytest.mark.parametrize("seed,family", [(2093, "invburr"), (2456, "invburr"), (10259, "weibull")])
def test_quantile_at_the_weight_is_theta_where_the_clamp_binds(seed, family):
    # heads with r > 1/2 where (1 - u) - (1 - r) clamps to 0 an ulp below r: the quantile of S_H(theta)
    # at u = r came out an ulp below theta, under the quantile of the u before it, clipped to theta
    m = CompositeModel(random_composite(family, np.random.default_rng(seed)))
    assert m.r > 0.5
    u = _ulps_around(m.r, 3)
    _check_splice_contract(m, u)
    assert m.ppf(m.r) == m.theta


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(FAMILIES),
    st.floats(1e-15, 0.5),
    st.booleans(),
)
def test_quantile_round_trip_property(seed, family, q, upper):
    m = CompositeModel(random_composite(family, np.random.default_rng(seed)))
    u = 1.0 - q if upper else q
    assume(abs(u - m.r) > 1e-12)
    assert abs(m.cdf(m.ppf(u)) - u) <= 1e-9 * min(u, 1.0 - u) + 1e-15
    u = _ulps_around(m.r, 1)
    _check_splice_contract(m, u[(u > 0.0) & (u < 1.0)])


@pytest.mark.parametrize(
    "params",
    [
        CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(2.0, 6e5), 30000.0),
        CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(3.0, 1.2e5), 30000.0),
        CompositeParams(ParalogisticParams(3.0, 0.001), InverseWeibullParams(2.0, 6e5), 1e5),
        CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(1.2, 8000.0), 24000.0),
    ],
    ids=["weibull-r3e-148", "weibull-r6e-3", "paralogistic-r0.9995", "weibull-1-r5e-17"],
)
@pytest.mark.parametrize("q", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
def test_head_quantile_just_below_the_weight(params, q):
    # F_H(theta) is within 1e-17 of 1 here, so 1 - u / r * F_H(theta) keeps no digits in floats
    # near u = r; the oracle forms S_H(y) = (r - u) / r + u / r * S_H(theta) exactly from the model's
    # r and S_H(theta). Above 1/2 the model's r is 1 - exp(log(1 - r)): the float r rounds off the
    # digits of 1 - r below 1.1e-16, all of them in the weibull-1-r5e-17 case
    m = CompositeModel(params)
    s_theta = math.exp(m.log_head_sf_theta)
    assert s_theta < 1e-17
    r = 1 - Fraction(math.exp(m.log_1mr)) if m.r > 0.5 else Fraction(m.r)
    u = m.r * (1.0 - q)
    survival = (r - Fraction(u)) / r + Fraction(u) / r * Fraction(s_theta)
    y = m.ppf(u)
    assert y <= params.theta
    assert params.head.logsf(y) == pytest.approx(math.log(survival), rel=1e-12)
    assert m.sf(y) == pytest.approx(1.0 - u, rel=1e-9)


def test_quantile_domain_errors():
    m = CompositeModel(WIW)
    for bad in (0.0, 1.0, -0.2, 1.7, np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError):
            m.ppf(bad)


@pytest.mark.parametrize(
    "head,floored",
    [(WeibullParams(0.5, 2000.0), True), (ParalogisticParams(0.5, 0.001), True), (InverseBurrParams(0.5, 1.5, 1e-3), False)],
    ids=["weibull", "paralogistic", "invburr"],
)
def test_quantile_floored_where_the_head_quantile_underflows(head, floored):
    # the README model with a head steep near 0: for the Weibull and Paralogistic heads u <= 1e-200 has a
    # quantile below the least normal double; the Inverse Burr one is near 1e-264 there, where u^(-1/mu) overflows
    m = CompositeModel(CompositeParams(head, WIW.tail, WIW.theta))
    u = np.array([5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-12, m.r])
    y = m.ppf(u)
    if floored:
        assert y[3] == np.finfo(float).tiny
    else:
        assert y[3] > np.finfo(float).tiny
        assert m.cdf(y[3]) == pytest.approx(1e-200, rel=1e-9)
    assert np.all(y > 0.0) and np.all(np.diff(y) >= 0.0) and y[-1] <= m.theta
    for x in u:
        y = m.ppf(x)
        assert 0.0 <= m.cdf(y) <= m.r + 1e-15
        assert np.isfinite(m.logpdf(y))


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_survival_function_complements_cdf(params):
    m = CompositeModel(params)
    y = m.ppf(np.linspace(0.01, 0.99, 99))
    assert m.sf(y) == pytest.approx(1.0 - m.cdf(y), rel=1e-12)
    assert m.logsf(y) == pytest.approx(np.log(1.0 - m.cdf(y)), rel=1e-12)
    assert m.sf(params.theta) == pytest.approx(1.0 - m.r, rel=1e-12)
    assert isinstance(m.sf(1000.0), float) and isinstance(m.logsf(1e6), float)


def test_survival_far_tail_relative_accuracy():
    # W-IW tail in closed form: S(y) = (1 - r) S_T(y) / S_T(theta), S_T(y) = 1 - exp(-(gamma / y)^alpha)
    m = CompositeModel(WIW)
    t, th = WIW.tail, WIW.theta
    y = np.geomspace(1.001 * th, 1e12, 60)
    expected = (1.0 - m.r) * np.expm1(-((t.gamma / y) ** t.alpha)) / np.expm1(-((t.gamma / th) ** t.alpha))
    assert m.sf(y) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert m.logsf(y) == pytest.approx(np.log(expected), rel=1e-12)


@pytest.mark.parametrize("q", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_survival_of_quantile(params, q):
    m = CompositeModel(params)
    u = 1.0 - q
    assert m.sf(m.ppf(u)) == pytest.approx(1.0 - u, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES), st.floats(1e-15, 0.5))
def test_survival_round_trip_property(seed, family, q):
    m = CompositeModel(random_composite(family, np.random.default_rng(seed)))
    u = 1.0 - q
    assert abs(m.sf(m.ppf(u)) - (1.0 - u)) <= 1e-9 * (1.0 - u)


def test_sample_head_fraction_and_determinism():
    m = CompositeModel(PIW)
    n = 100_000
    s = m.sample(n, 123)
    frac = np.mean(s <= m.theta)
    assert abs(frac - m.r) < 3 * np.sqrt(m.r * (1 - m.r) / n)
    assert np.array_equal(s, m.sample(n, 123))
    with pytest.raises(ValueError):
        m.sample(0, 123)


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_sample_kolmogorov_smirnov(params):
    m = CompositeModel(params)
    n = 100_000
    y = np.sort(m.sample(n, 77))
    f = m.cdf(y)
    d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    assert d < 1.63 / np.sqrt(n)  # 1% critical value


def test_log_likelihood_single_point():
    m = CompositeModel(WIW)
    y = 1234.5
    assert m.log_likelihood([y]) == pytest.approx(np.log(m.pdf(y)), rel=1e-12)
    assert m.log_likelihood(y) == m.log_likelihood([y])
    data = m.sample(6, 3)
    assert m.log_likelihood(data.reshape(2, 3)) == m.log_likelihood(data)


@pytest.mark.parametrize("params", MODELS, ids=["wiw", "piw", "ibiw"])
def test_log_likelihood_matches_direct_sum(params):
    m = CompositeModel(params)
    data = m.sample(100, 5)
    direct = float(np.sum(np.log(m.pdf(data))))
    assert m.log_likelihood(data) == pytest.approx(direct, abs=1e-10 * abs(direct))
    assert m.log_likelihood(data[::-1]) == pytest.approx(m.log_likelihood(data), rel=1e-14)


def test_log_likelihood_rejects_nonpositive():
    m = CompositeModel(WIW)
    with pytest.raises(ValueError):
        m.log_likelihood([100.0, -1.0])
