import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimsplice.composite import CompositeModel
from claimsplice.copula import BivariateModel, GumbelCopula, clamp_pseudo_obs
from claimsplice.estimation import empirical_kendall_tau
from tests.test_composite import PIW, WIW


def test_cdf_independence():
    assert GumbelCopula(1.0).cdf(0.3, 0.7) == pytest.approx(0.21, rel=1e-12)


def test_cdf_comonotone_limit():
    assert GumbelCopula(200.0).cdf(0.3, 0.7) == pytest.approx(0.3, abs=1e-3)


def test_cdf_hand_evaluated():
    expected = math.exp(-math.log(2) * math.sqrt(2))
    assert GumbelCopula(2.0).cdf(0.5, 0.5) == pytest.approx(expected, rel=1e-12)


def test_density_independence_is_one():
    c = GumbelCopula(1.0)
    grid = np.linspace(0.1, 0.9, 5)
    for u in grid:
        for v in grid:
            assert c.pdf(u, v) == pytest.approx(1.0, abs=1e-10)


def test_density_matches_finite_difference_spec_point():
    c = GumbelCopula(1.5)
    h = 1e-5
    u, v = 0.4, 0.6
    fd = (c.cdf(u + h, v + h) - c.cdf(u + h, v - h) - c.cdf(u - h, v + h) + c.cdf(u - h, v - h)) / (4 * h * h)
    assert c.pdf(u, v) == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("phi", [1.2, 1.5, 2.0, 5.0])
def test_density_matches_mixed_finite_difference(phi):
    c = GumbelCopula(phi)
    # h balances truncation against roundoff: at phi=5 the corner densities
    # are ~2e-4 and h=1e-5 leaves the difference quotient roundoff-dominated
    h = 1e-4
    for u in np.linspace(0.15, 0.85, 5):
        for v in np.linspace(0.15, 0.85, 5):
            fd = (c.cdf(u + h, v + h) - c.cdf(u + h, v - h) - c.cdf(u - h, v + h) + c.cdf(u - h, v - h)) / (4 * h * h)
            assert c.pdf(u, v) == pytest.approx(fd, rel=1e-4)


def test_density_integrates_to_one():
    from scipy import integrate

    c = GumbelCopula(2.0)
    total, _ = integrate.dblquad(lambda v, u: c.pdf(u, v), 1e-9, 1 - 1e-9, 1e-9, 1 - 1e-9, epsabs=1e-6)
    assert total == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("phi", [1.0, 1.5, 2.0, 5.0, 20.0, 100.0, 400.0, 2000.0])
def test_frechet_hoeffding_bounds(phi):
    c = GumbelCopula(phi)
    g = np.linspace(0.01, 0.99, 50)
    u, v = np.meshgrid(g, g)
    cc = c.cdf(u, v)
    assert np.all(cc <= np.minimum(u, v) + 1e-12)
    assert np.all(cc >= np.maximum(u + v - 1.0, 0.0) - 1e-12)


@pytest.mark.parametrize("phi", [1.0, 1.5, 5.0, 20.0, 100.0, 400.0, 2000.0])
def test_cdf_diagonal_closed_form(phi):
    # C(u, u) = exp(-(2 lu^phi)^(1/phi)) = u^(2^(1/phi)), with lu = -log u; lu^phi alone over- or underflows a
    # double long before phi = 2 000. For tiny u both sides lose |log C| ulps to the exponent, so the grid stops at 0.01
    u = np.concatenate([np.linspace(0.01, 0.99, 50), 1.0 - np.geomspace(1e-12, 1e-2, 20)])
    assert GumbelCopula(phi).cdf(u, u) == pytest.approx(u ** (2.0 ** (1.0 / phi)), rel=1e-12, abs=0.0)


def test_boundary_behavior():
    c = GumbelCopula(2.0)
    g = np.linspace(0.05, 0.95, 19)
    assert np.all(c.cdf(g, np.full_like(g, 1e-9)) < 1e-6)
    assert c.cdf(g, np.full_like(g, 1 - 1e-9)) == pytest.approx(g, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    phi=st.floats(1.0, 30.0),
    u1=st.floats(0.01, 0.99),
    u2=st.floats(0.01, 0.99),
    v1=st.floats(0.01, 0.99),
    v2=st.floats(0.01, 0.99),
)
def test_rectangle_inequality(phi, u1, u2, v1, v2):
    ua, ub = sorted((u1, u2))
    va, vb = sorted((v1, v2))
    c = GumbelCopula(phi)
    vol = c.cdf(ub, vb) - c.cdf(ub, va) - c.cdf(ua, vb) + c.cdf(ua, va)
    assert vol >= -1e-12


def test_kendall_tau_closed_form():
    assert GumbelCopula(1.0).kendall_tau() == 0.0
    assert GumbelCopula(2.0).kendall_tau() == 0.5
    # the paper's pair: the fitted phi and the Kendall tau it implies
    assert GumbelCopula(1.0710).kendall_tau() == pytest.approx(0.0663, abs=1e-4)


def test_uniforms_outside_the_open_unit_square_rejected():
    c = GumbelCopula(1.5)
    for u, v in ((0.0, 0.5), (0.5, 1.0), (np.nan, 0.5), (0.5, np.nan), ([0.5, np.nan], [0.5, 0.5])):
        with pytest.raises(ValueError):
            c.cdf(u, v)
        with pytest.raises(ValueError):
            c.logpdf(u, v)


def test_phi_admissibility():
    with pytest.raises(ValueError):
        GumbelCopula(0.99)


@pytest.mark.parametrize("phi", [1.1, 1.5, 2.0, 3.0])
def test_sampled_tau_matches_identity(phi):
    u, v = GumbelCopula(phi).sample(100_000, 42)
    assert empirical_kendall_tau(u, v) == pytest.approx(1 - 1 / phi, abs=0.02)


@pytest.mark.parametrize("phi", [100.0, 200.0, 1e3, 1e10, 1e300])
def test_sample_at_large_phi_stays_finite_and_uniform(phi):
    # the stable variate raised to phi overflowed here and gave NaN pairs (21 at phi = 100, 1 643 at 200);
    # a RuntimeWarning fails the test too
    n = 200_000
    u, v = GumbelCopula(phi).sample(n, 1)
    for x in (u, v):
        assert np.all((x > 0.0) & (x < 1.0))
        assert np.max(np.abs(np.sort(x) - np.arange(0.5, n) / n)) < 0.01  # Kolmogorov-Smirnov against U(0, 1)
    assert empirical_kendall_tau(u, v) == pytest.approx(1 - 1 / phi, abs=0.005)


def test_sampled_tau_reproduces_reported_value():
    # tau = 0.0663 corresponds to phi = 1/(1 - 0.0663)
    phi = 1.0 / (1.0 - 0.0663)
    u, v = GumbelCopula(phi).sample(100_000, 7)
    assert empirical_kendall_tau(u, v) == pytest.approx(0.0663, abs=0.01)


def test_independent_sampling_uncorrelated():
    n = 100_000
    u, v = GumbelCopula(1.0).sample(n, 3)
    assert abs(np.corrcoef(u, v)[0, 1]) < 3 / np.sqrt(n)


def test_sample_determinism():
    c = GumbelCopula(1.7)
    u1, v1 = c.sample(1000, 5)
    u2, v2 = c.sample(1000, 5)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)


def test_log_likelihood_zero_at_independence():
    rng = np.random.default_rng(0)
    u, v = rng.uniform(size=100), rng.uniform(size=100)
    assert GumbelCopula(1.0).log_likelihood(u, v) == pytest.approx(0.0, abs=1e-10)


def test_log_likelihood_single_pair():
    c = GumbelCopula(1.8)
    assert c.log_likelihood([0.3], [0.6]) == pytest.approx(float(c.logpdf(0.3, 0.6)), rel=1e-12)


def test_log_likelihood_peaks_near_generating_phi():
    u, v = GumbelCopula(2.0).sample(100, 21)
    u, v = clamp_pseudo_obs(u), clamp_pseudo_obs(v)
    c2 = GumbelCopula(2.0).log_likelihood(u, v)
    assert c2 > GumbelCopula(1.0).log_likelihood(u, v)
    assert c2 > GumbelCopula(4.0).log_likelihood(u, v)


def test_bivariate_sample_marginals_pass_ks():
    model = BivariateModel(CompositeModel(WIW), CompositeModel(PIW), GumbelCopula(1.5))
    n = 100_000
    y1, y2 = model.sample_pairs(n, 11)
    for y, m in ((y1, model.marginal1), (y2, model.marginal2)):
        ys = np.sort(y)
        f = m.cdf(ys)
        d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
        assert d < 1.63 / np.sqrt(n)


def test_bivariate_sample_tau():
    model = BivariateModel(CompositeModel(WIW), CompositeModel(PIW), GumbelCopula(2.0))
    y1, y2 = model.sample_pairs(100_000, 13)
    assert empirical_kendall_tau(y1, y2) == pytest.approx(0.5, abs=0.02)
