import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import integrate, optimize

from claimsplice.families import (
    InverseBurrParams,
    InverseWeibullParams,
    ParalogisticParams,
    WeibullParams,
    _log1mexp,
    _softplus,
)
from tests.conftest import FAMILIES, random_head, total_mass

ALL_PARAMS = [
    WeibullParams(1.5, 2000.0),
    WeibullParams(0.6, 300.0),
    ParalogisticParams(1.3, 0.0005),
    ParalogisticParams(0.8, 0.002),
    InverseBurrParams(1.2, 1.6, 0.0004),
    InverseBurrParams(2.5, 0.9, 0.003),
    InverseWeibullParams(1.2, 8000.0),
    InverseWeibullParams(0.9, 400.0),
]


def test_weibull_pdf_exponential_special_case():
    assert WeibullParams(1.0, 1.0).pdf(1.0) == pytest.approx(math.exp(-1), rel=1e-12)


def test_inverse_weibull_pdf_at_gamma():
    assert InverseWeibullParams(1.0, 1.0).pdf(1.0) == pytest.approx(math.exp(-1), rel=1e-12)


def test_paralogistic_pdf_loglogistic_case():
    assert ParalogisticParams(1.0, 1.0).pdf(1.0) == pytest.approx(0.25, rel=1e-12)


def test_inverse_burr_pdf_matches_cdf_derivative():
    p = InverseBurrParams(2.0, 3.0, 0.5)
    h = 1e-6
    fd = (p.cdf(2.0 + h) - p.cdf(2.0 - h)) / (2 * h)
    assert p.pdf(2.0) == pytest.approx(fd, rel=1e-7)


def test_weibull_cdf_at_scale():
    assert WeibullParams(2.0, 3.0).cdf(3.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)


def test_inverse_weibull_cdf_at_scale():
    assert InverseWeibullParams(2.0, 3.0).cdf(3.0) == pytest.approx(math.exp(-1), rel=1e-12)


def test_inverse_burr_cdf_symmetry_point():
    assert InverseBurrParams(1.0, 1.0, 1.0).cdf(1.0) == pytest.approx(0.5, rel=1e-12)


def test_weibull_quantile_closed_form():
    assert WeibullParams(1.0, 1.0).ppf(1 - math.exp(-1)) == pytest.approx(1.0, rel=1e-12)


def test_inverse_weibull_quantile_closed_form():
    assert InverseWeibullParams(1.0, 1.0).ppf(math.exp(-1)) == pytest.approx(1.0, rel=1e-12)


def test_paralogistic_quantile_against_bisection():
    p = ParalogisticParams(2.0, 0.01)
    q = p.ppf(0.5)
    root = optimize.brentq(lambda y: p.cdf(y) - 0.5, 1e-9, 1e9, xtol=1e-12, rtol=1e-14)
    assert q == pytest.approx(root, rel=1e-9)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_pdf_integrates_to_one(params):
    assert total_mass(params.pdf, params.ppf) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("family", FAMILIES)
def test_pdf_integrates_to_one_random_params(family, rng):
    for _ in range(5):
        p = random_head(family, rng)
        assert total_mass(p.pdf, p.ppf) == pytest.approx(1.0, abs=1e-6), p


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_cdf_monotone_on_log_grid(params):
    y = np.geomspace(1e-3, 1e9, 1000)
    c = params.cdf(y)
    assert np.all(np.diff(c) >= 0)
    assert c[0] < 1e-3 or params.cdf(1e-12) < c[0]
    assert params.cdf(1e30) > 1 - 1e-9


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_pdf_matches_cdf_finite_difference(params):
    for y in np.geomspace(params.ppf(0.05), params.ppf(0.95), 11):
        h = 1e-6 * y
        fd = (params.cdf(y + h) - params.cdf(y - h)) / (2 * h)
        assert params.pdf(y) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_quantile_cdf_round_trip(params):
    u = np.arange(0.01, 1.0, 0.01)
    assert params.cdf(params.ppf(u)) == pytest.approx(u, rel=1e-8)


@pytest.mark.parametrize("params", ALL_PARAMS[::2], ids=str)
def test_quantile_far_tail_round_trip(params):
    # every family inverts log(1 - u) with one formula: both log probabilities of the quantile hold at either end
    u = np.array([1e-300, 1e-15, 0.5, 1.0 - 1e-15])
    y = params.ppf(u)
    assert np.all(y > 0.0) and np.all(np.diff(y) > 0.0)
    assert params.logcdf(y) == pytest.approx(np.log(u), rel=1e-9)
    assert params.logsf(y) == pytest.approx(np.log1p(-u), rel=1e-9)


def test_inverse_burr_quantile_past_the_overflow_of_its_power():
    # u^(-1/mu) - 1 overflows for -log(u) / mu above about 709.8; y*tau = (u^(-1/mu) - 1)^(-1/sigma) does not
    h = InverseBurrParams(0.5, 1.5, 1e-3)
    u = np.array([1e-230, 1e-200, 1e-160, 1e-150])  # the last short of the overflow
    y = h.ppf(u)
    assert np.all(y > 0.0) and np.all(np.diff(y) > 0.0)
    assert h.cdf(y) == pytest.approx(u, rel=1e-9)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_logpdf_agrees_and_stays_finite(params):
    y = np.geomspace(1e-3, 1e9, 200)
    lp = params.logpdf(y)
    assert np.all(np.isfinite(lp))
    pdf = params.pdf(y)
    mask = pdf > 1e-300
    assert lp[mask] == pytest.approx(np.log(pdf[mask]), rel=1e-10)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
def test_domain_errors(params):
    with pytest.raises(ValueError):
        params.pdf(0.0)
    with pytest.raises(ValueError):
        params.cdf(-1.0)
    for bad in (0.0, 1.0, np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError):
            params.ppf(bad)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: WeibullParams(0.0, 1.0),
        lambda: WeibullParams(1.0, -2.0),
        lambda: ParalogisticParams(np.nan, 1.0),
        lambda: InverseBurrParams(1.0, 0.0, 1.0),
        lambda: InverseWeibullParams(1.0, np.inf),
    ],
)
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def _softplus_two_branch(t):
    """The np.where form of softplus that evaluated both branches on every element (oracle)."""
    t = np.asarray(t, dtype=float)
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(np.minimum(t, 0.0))))


def _log1mexp_two_branch(x):
    """The np.where form of log1mexp that evaluated both branches on every element (oracle)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        small = np.log(-np.expm1(-np.minimum(x, 0.6931471805599453)))
        large = np.log1p(-np.exp(-np.maximum(x, 0.6931471805599453)))
    return np.where(x < 0.6931471805599453, small, large)


def _edge_grid():
    """+-0, subnormals, +-708, +-745, +-1e308, +-inf, NaN, doubles around log 2, and random values."""
    tiny = np.finfo(float).tiny
    edges = [0.0, 5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny, 1e-300, 1e-16, 0.5, 1.0, 20.0, 36.0, 37.0,
             700.0, 708.0, 709.0, 709.8, 745.0, 746.0, 1e10, 1e308, np.inf]
    ln2 = [0.6931471805599453]
    for _ in range(3):
        ln2 = [np.nextafter(ln2[0], 0.0)] + ln2 + [np.nextafter(ln2[-1], 1.0)]
    rng = np.random.default_rng(11)
    positive = np.concatenate([edges, ln2, np.exp(rng.uniform(-50.0, 7.0, 2000)), rng.uniform(0.0, 3.0, 1000)])
    return np.concatenate([positive, -positive, [np.nan, np.nan]])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


@pytest.mark.parametrize("new,oracle", [(_softplus, _softplus_two_branch), (_log1mexp, _log1mexp_two_branch)],
                         ids=["softplus", "log1mexp"])
def test_one_branch_helpers_match_two_branch_forms_bit_for_bit(new, oracle):
    grid = _edge_grid()
    # log1mexp takes x >= 0; below 0 both forms give NaN or overflow, which is compared and not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(new(grid), oracle(grid))
        assert _same_bits(new(grid.reshape(2, -1)), oracle(grid.reshape(2, -1)))
        assert _same_bits([new(x) for x in grid], oracle(grid))
        assert _same_bits([new(np.float64(x)) for x in grid], oracle(grid))
        assert new(np.empty(0)).shape == (0,)


def test_one_branch_helpers_raise_no_warning_in_their_domain():
    grid = _edge_grid()
    grid = np.sort(grid[grid > 0.0])
    assert np.all(np.isfinite(_softplus(grid[:-1])))
    assert _log1mexp(0.0) == -np.inf and _log1mexp(-0.0) == -np.inf
    assert _log1mexp(np.inf) == 0.0
    assert np.all(np.diff(_log1mexp(grid)) >= 0.0)


# The complement side each family once wrote out as its own closed form, kept as the oracle of the side that
# _PositiveParamsMixin now derives from the other one: (the derived method, its written-out form).
_WRITTEN_OUT_COMPLEMENTS = {
    WeibullParams: (
        "unchecked_logcdf",
        lambda log_y, mu, sigma: _log1mexp(np.exp(mu * (log_y - np.log(sigma)))),
    ),
    ParalogisticParams: (
        "unchecked_logcdf",
        lambda log_y, mu, sigma: _log1mexp(mu * _softplus(mu * (log_y + np.log(sigma)))),
    ),
    InverseBurrParams: (
        "unchecked_logsf",
        lambda log_y, mu, sigma, tau: _log1mexp(mu * _softplus(-sigma * (log_y + np.log(tau)))),
    ),
    InverseWeibullParams: (
        "unchecked_logsf",
        lambda log_y, alpha, gamma: _log1mexp(np.exp(alpha * (np.log(gamma) - log_y))),
    ),
}


@pytest.mark.parametrize("cls", list(_WRITTEN_OUT_COMPLEMENTS), ids=lambda c: c.__name__)
def test_each_family_states_exactly_one_of_log_cdf_and_log_sf(cls):
    derived, _ = _WRITTEN_OUT_COMPLEMENTS[cls]
    stated = {"unchecked_logcdf", "unchecked_logsf"} - {derived}
    assert [name for name in ("unchecked_logcdf", "unchecked_logsf") if name in vars(cls)] == list(stated)


@pytest.mark.parametrize("cls", list(_WRITTEN_OUT_COMPLEMENTS), ids=lambda c: c.__name__)
def test_derived_side_equals_the_written_out_complement_bit_for_bit(cls):
    derived, oracle = _WRITTEN_OUT_COMPLEMENTS[cls]
    rng = np.random.default_rng(17)
    log_y = np.concatenate([[-745.0, -709.0, -1.0, 0.0, 1.0, 709.0, 745.0], np.linspace(-745.0, 745.0, 1001),
                            rng.uniform(-745.0, 745.0, 1000)])
    dim = len(fields(cls))
    for _ in range(100):
        # shapes across [0.05, 20], scales and rates across 1e-8 to 1e8
        params = [float(np.exp(rng.uniform(np.log(0.05), np.log(20.0)))) for _ in range(dim - 1)]
        params.append(float(np.exp(rng.uniform(np.log(1e-8), np.log(1e8)))))
        with np.errstate(over="ignore"):  # exp(mu * z) overflows to inf at the ends, on both sides alike
            assert _same_bits(getattr(cls, derived)(log_y, *params), oracle(log_y, *params))
            # the scalar path, as the splice constants take it
            for x in log_y[::50]:
                got, want = getattr(cls, derived)(float(x), *params), oracle(float(x), *params)
                assert type(got) is type(want) and _same_bits(got, want)
