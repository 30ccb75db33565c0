import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from claimsplice import estimation
from claimsplice.composite import CompositeModel, CompositeParams
from claimsplice.copula import GumbelCopula, clamp_pseudo_obs
from claimsplice.estimation import (
    DegenerateDataError,
    OptimizerConfig,
    aic,
    bic,
    empirical_kendall_tau,
    fit_bivariate,
    fit_bivariate_by_tag,
    fit_copula,
    fit_marginal,
)
from claimsplice.families import InverseWeibullParams, WeibullParams
from tests.test_composite import IBIW, PIW, WIW


def brute_force_tau(x, y):
    """O(n^2) tie-adjusted tau-b by direct pair enumeration."""
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = np.sign(x[i] - x[j])
            b = np.sign(y[i] - y[j])
            if a == 0 and b == 0:
                continue
            if a == 0:
                tx += 1
            elif b == 0:
                ty += 1
            elif a == b:
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    n1 = n0 - conc - disc - ty  # pairs tied in x (incl. tied in both)
    n2 = n0 - conc - disc - tx
    return (conc - disc) / math.sqrt((n0 - n1) * (n0 - n2))


# ---------------------------------------------------------------------------
# information criteria

def test_aic_arithmetic():
    assert aic(-100.0, 3) == 206.0


def test_bic_equals_aic_when_log_n_is_two():
    assert bic(-100.0, 3, math.e**2) == pytest.approx(206.0, rel=1e-12)


def test_published_aic_bic_row():
    ll, df, n = -132673.955, 9, 7263
    assert aic(ll, df) == pytest.approx(265365.91, abs=0.01)
    # the reproducible part is the BIC-AIC gap df * (ln n - 2)
    gap = bic(ll, df, n) - aic(ll, df)
    assert gap == pytest.approx(62.10, abs=0.15)
    assert 11 * (math.log(n) - 2) == pytest.approx(75.80, abs=0.15)
    # implied df from each published gap
    assert 62.10 / (math.log(n) - 2) == pytest.approx(9, abs=0.05)
    assert 75.80 / (math.log(n) - 2) == pytest.approx(11, abs=0.05)
    assert (270280.81 - 270218.81) / (math.log(n) - 2) == pytest.approx(9, abs=0.05)


def test_aic_bic_validate():
    with pytest.raises(ValueError):
        aic(-1.0, 0)
    with pytest.raises(ValueError):
        bic(-1.0, 1, 0)


# ---------------------------------------------------------------------------
# stage 1

def test_fit_marginal_recovers_known_parameters():
    truth = CompositeParams(WeibullParams(1.5, 2000.0), InverseWeibullParams(1.2, 8000.0), 5000.0)
    model = CompositeModel(truth)
    data = model.sample(5000, 7)
    fit = fit_marginal(data, "weibull")
    rel = np.abs(fit.params.as_vector() - truth.as_vector()) / truth.as_vector()
    assert np.all(rel < 0.15)
    assert abs(fit.r - model.r) < 0.05
    # maximizer dominance over the generating parameters
    assert fit.loglik >= model.log_likelihood(data) - 1e-6


def test_fit_marginal_df_accounting():
    rng = np.random.default_rng(2)
    for params, fam, df in ((WIW, "weibull", 5), (PIW, "paralogistic", 5), (IBIW, "invburr", 6)):
        data = CompositeModel(params).sample(400, rng)
        fit = fit_marginal(data, fam, OptimizerConfig(restarts=1, max_iter=800))
        assert fit.df == df


def test_fit_marginal_validation():
    with pytest.raises(DegenerateDataError):
        fit_marginal(np.full(100, 7.0), "weibull")
    with pytest.raises(DegenerateDataError):
        fit_marginal([1.0, 2.0], "weibull")
    with pytest.raises(ValueError):
        fit_marginal([1.0, -2.0] * 20, "weibull")
    with pytest.raises(ValueError):
        fit_marginal(np.ones(100), "lognormal")


def test_fit_marginal_scale_equivariance():
    data = CompositeModel(WIW).sample(3000, 17)
    f1 = fit_marginal(data, "weibull")
    f2 = fit_marginal(data * 10.0, "weibull")
    v1, v2 = f1.params.as_vector(), f2.params.as_vector()
    # scale-type parameters (sigma, gamma, theta) scale by 10
    for i in (1, 3, 4):
        assert v2[i] / v1[i] == pytest.approx(10.0, rel=0.01)
    # shapes and the weight are invariant
    for i in (0, 2):
        assert v2[i] == pytest.approx(v1[i], rel=0.01)
    assert f2.r == pytest.approx(f1.r, abs=0.01)
    assert f2.loglik == pytest.approx(f1.loglik - data.size * math.log(10.0), rel=1e-4)


def test_fit_marginal_rate_parameter_scales_inversely():
    data = CompositeModel(PIW).sample(3000, 19)
    f1 = fit_marginal(data, "paralogistic")
    f2 = fit_marginal(data * 10.0, "paralogistic")
    assert f2.params.head.sigma / f1.params.head.sigma == pytest.approx(0.1, rel=0.01)
    assert f2.params.head.mu == pytest.approx(f1.params.head.mu, rel=0.01)


# ---------------------------------------------------------------------------
# stage 2

def test_fit_copula_recovers_phi():
    u, v = GumbelCopula(2.0).sample(5000, 11)
    fit = fit_copula(u, v)
    assert 1.85 <= fit.phi <= 2.15
    assert not fit.at_boundary


def test_fit_copula_independent_data():
    rng = np.random.default_rng(4)
    fit = fit_copula(rng.uniform(size=5000), rng.uniform(size=5000))
    assert fit.phi <= 1.05


def test_fit_copula_single_pair_no_crash():
    fit = fit_copula([0.4], [0.7])
    assert np.isfinite(fit.loglik)
    assert fit.phi >= 1.0


def test_fit_copula_boundary_flag_set_at_independence():
    # strongly discordant pseudo-observations favor phi = 1 exactly
    u = np.linspace(0.05, 0.95, 200)
    fit = fit_copula(u, 1.0 - u)
    assert fit.phi == 1.0
    assert fit.at_boundary
    assert fit.loglik == 0.0


def test_fit_copula_reports_max_iter_stop():
    u, v = GumbelCopula(2.0).sample(500, 11)
    assert fit_copula(u, v).converged
    assert not fit_copula(u, v, OptimizerConfig(max_iter=1)).converged


# ---------------------------------------------------------------------------
# full pipeline

def test_fit_bivariate_report_consistency():
    m1 = CompositeModel(PIW)
    m2 = CompositeModel(CompositeParams(PIW.head, PIW.tail, 4000.0))
    from claimsplice.copula import BivariateModel

    y1, y2 = BivariateModel(m1, m2, GumbelCopula(1.5)).sample_pairs(5000, 23)
    rep = fit_bivariate(y1, y2, "paralogistic", "paralogistic")
    assert rep.df == rep.marginal1.df + rep.marginal2.df + 1
    assert rep.df_fixed_thresholds == rep.df - 2
    assert rep.model_tau == pytest.approx(rep.empirical_tau, abs=0.03)
    assert rep.loglik == pytest.approx(rep.marginal1.loglik + rep.marginal2.loglik + rep.copula.loglik)
    assert rep.aic == pytest.approx(-2 * rep.loglik + 2 * rep.df)
    assert rep.bic == pytest.approx(-2 * rep.loglik + math.log(rep.n) * rep.df)


def test_fit_bivariate_stage2_depends_only_on_pseudo_obs():
    from claimsplice.copula import BivariateModel

    model = BivariateModel(CompositeModel(WIW), CompositeModel(PIW), GumbelCopula(1.5))
    y1, y2 = model.sample_pairs(2000, 29)
    rep = fit_bivariate(y1, y2, "weibull", "paralogistic")
    u = clamp_pseudo_obs(rep.marginal1.model.cdf(y1))
    v = clamp_pseudo_obs(rep.marginal2.model.cdf(y2))
    refit = fit_copula(u, v)
    assert refit.phi == rep.copula.phi


def test_fit_bivariate_stage_attribution():
    y = np.ones(100) * 5.0
    with pytest.raises(DegenerateDataError, match="stage 1, marginal 1"):
        fit_bivariate(y, y, "weibull", "weibull")


# ---------------------------------------------------------------------------
# stage 1 across the process boundary: marginal 2 is fitted in a forked child

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the child process needs POSIX fork")


@pytest.fixture(scope="module")
def pair_and_fits():
    from claimsplice.copula import BivariateModel

    y1, y2 = BivariateModel(CompositeModel(WIW), CompositeModel(PIW), GumbelCopula(1.5)).sample_pairs(1500, 41)
    return y1, y2, fit_marginal(y1, "weibull"), fit_marginal(y2, "paralogistic")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_fit_bivariate_marginals_equal_in_process_fits(pair_and_fits):
    y1, y2, fit1, fit2 = pair_and_fits
    rep = fit_bivariate(y1, y2, "weibull", "paralogistic")
    # dataclass ==: params, loglik, n_iter and converged, field by field
    assert (rep.marginal1, rep.marginal2) == (fit1, fit2)
    assert_no_child_left()


@needs_fork
def test_fit_bivariate_attributes_a_marginal_2_failure():
    y1 = np.random.default_rng(5).lognormal(8.0, 1.0, 100)
    with pytest.raises(DegenerateDataError, match=r"stage 1, marginal 2 \(weibull\): degenerate sample"):
        fit_bivariate(y1, np.full(100, 5.0), "weibull", "weibull")
    assert_no_child_left()


@needs_fork
def test_fit_bivariate_reports_marginal_1_when_both_fail_and_leaves_no_child():
    y = np.full(100, 5.0)
    with pytest.raises(DegenerateDataError, match="stage 1, marginal 1"):
        fit_bivariate(y, y, "weibull", "weibull")
    assert_no_child_left()


@needs_fork
def test_fit_bivariate_inside_a_daemonic_pool_worker(pair_and_fits):
    y1, y2 = pair_and_fits[:2]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply_async(fit_bivariate, (y1, y2, "weibull", "paralogistic")).get(timeout=300)
    assert pooled == fit_bivariate(y1, y2, "weibull", "paralogistic")


def test_fit_bivariate_without_fork_fits_in_process(pair_and_fits, monkeypatch):
    y1, y2, fit1, fit2 = pair_and_fits
    monkeypatch.delattr(os, "fork")
    rep = fit_bivariate(y1, y2, "weibull", "paralogistic")
    assert (rep.marginal1, rep.marginal2) == (fit1, fit2)


@needs_fork
def test_fit_bivariate_calls_a_closure_in_place_of_fit_marginal(pair_and_fits, monkeypatch):
    y1, y2, fit1, fit2 = pair_and_fits
    seen = []
    real = estimation.fit_marginal

    def wrapped(data, family, config=None):  # a local closure cannot be pickled
        seen.append(family)
        return real(data, family, config)

    monkeypatch.setattr(estimation, "fit_marginal", wrapped)
    rep = fit_bivariate(y1, y2, "weibull", "paralogistic")
    assert (rep.marginal1, rep.marginal2) == (fit1, fit2)
    assert seen == ["weibull"]  # marginal 2's call was made, and recorded, in the child


class TwoArgError(ValueError):
    """Pickles, but does not unpickle: its constructor takes two arguments and ``args`` holds one."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@needs_fork
def test_fit_bivariate_names_marginal_2_when_its_process_dies_or_its_error_cannot_travel(pair_and_fits, monkeypatch):
    y1, y2 = pair_and_fits[:2]
    real = estimation.fit_marginal

    def dies(data, family, config=None):
        if family == "paralogistic":
            os._exit(3)
        return real(data, family, config)

    def odd_error(data, family, config=None):
        if family == "paralogistic":
            raise TwoArgError("odd", "error")
        return real(data, family, config)

    monkeypatch.setattr(estimation, "fit_marginal", dies)
    with pytest.raises(RuntimeError, match=r"stage 1, marginal 2 \(paralogistic\): .*exit code 3"):
        fit_bivariate(y1, y2, "weibull", "paralogistic")
    monkeypatch.setattr(estimation, "fit_marginal", odd_error)
    with pytest.raises(RuntimeError, match=r"stage 1, marginal 2 \(paralogistic\): TwoArgError\('odd error'\)"):
        fit_bivariate(y1, y2, "weibull", "paralogistic")
    assert_no_child_left()


def test_fit_bivariate_by_tag_validates():
    with pytest.raises(ValueError, match="unknown model tag"):
        fit_bivariate_by_tag([1.0], [1.0], "gaussian")


def test_fit_bivariate_near_independence_sanity():
    from claimsplice.copula import BivariateModel

    model = BivariateModel(CompositeModel(WIW), CompositeModel(PIW), GumbelCopula(1.0))
    y1, y2 = model.sample_pairs(5000, 31)
    rep = fit_bivariate(y1, y2, "weibull", "paralogistic")
    # with an independence-generating copula the phi contribution to the
    # joint AIC must be within one penalty unit of zero
    marginal_aic = aic(rep.marginal1.loglik + rep.marginal2.loglik, rep.df - 1)
    assert abs(rep.aic - marginal_aic) <= 2.0


# ---------------------------------------------------------------------------
# Kendall's tau

def test_tau_perfect_concordance():
    assert empirical_kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0


def test_tau_perfect_discordance():
    assert empirical_kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0


def test_tau_matches_brute_force_exactly():
    rng = np.random.default_rng(99)
    for trial in range(50):
        n = int(rng.integers(5, 301))
        if trial % 3 == 0:
            # coarse grids force heavy ties in both coordinates
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        assert empirical_kendall_tau(x, y) == pytest.approx(brute_force_tau(x, y), abs=1e-14)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=70))
def test_tau_property_heavy_ties(pairs):
    # small integers force heavy ties; n up to 70 crosses every merge width up to 64
    x, y = (np.array(col, dtype=float) for col in zip(*pairs))
    assume(not (np.all(x == x[0]) or np.all(y == y[0])))
    tau = empirical_kendall_tau(x, y)
    assert abs(tau - brute_force_tau(x, y)) <= 1e-13
    assert empirical_kendall_tau(x, -y) == -tau
    assert empirical_kendall_tau(y, x) == tau


def test_tau_pinned_on_cents_rounded_sample():
    # the counts are exact integers, so tau on this fixed input must not move in the last bit
    rng = np.random.default_rng(20000)
    z = rng.standard_normal((2, 20000))
    x = np.round(np.exp(7.0 + 1.5 * z[0]), 2)
    y = np.round(np.exp(7.0 + 1.5 * (0.6 * z[0] + 0.8 * z[1])), 2)
    assert empirical_kendall_tau(x, y) == 0.4105433220349085


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tau_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        empirical_kendall_tau([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="finite"):
        empirical_kendall_tau([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])


def test_tau_degenerate_coordinate():
    with pytest.raises(DegenerateDataError):
        empirical_kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        empirical_kendall_tau([1.0], [2.0])
