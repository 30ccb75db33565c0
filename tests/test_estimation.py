import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from claimsplice import estimation
from claimsplice.composite import FAMILIES, CompositeModel, CompositeParams
from claimsplice.copula import GumbelCopula, clamp_pseudo_obs
from claimsplice.estimation import (
    DegenerateDataError,
    OptimizerConfig,
    aic,
    bic,
    empirical_kendall_tau,
    fit_bivariate,
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


def _initial_guesses(family, data, theta0):
    """Start values as fit_marginal chose them before the family table held each head's start rule: the oracle."""
    head_data = data[data <= theta0]
    if head_data.size == 0:
        head_data = data
    med = float(np.median(head_data))
    if family == "weibull":
        head = [1.0, float(np.mean(head_data))]
    elif family == "paralogistic":
        head = [1.0, 1.0 / med]
    else:
        head = [1.0, 1.0, 1.0 / med]
    tail = [1.5, theta0]
    return np.array(head + tail + [theta0])


@pytest.mark.parametrize("family", ["weibull", "paralogistic", "invburr"])
def test_fit_marginal_starts_where_the_oracle_does(family):
    k = FAMILIES[family].dim
    for seed in range(4):
        rng = np.random.default_rng(seed)
        # the last two samples are rounded to tens, so that the start thresholds sit on runs of ties
        data = CompositeModel(WIW).sample(300, rng) if seed % 2 else rng.lognormal(8.0, 1.2, 300)
        data = np.round(data, -1) + 10.0 if seed >= 2 else data
        searches = fit_marginal(data, family, OptimizerConfig(max_iter=1)).searches
        assert len(searches) == 3
        lo, hi = float(np.min(data)), float(np.max(data))
        for q, search in zip([0.5, 0.7, 0.9], searches):
            raw0 = _initial_guesses(family, data, float(np.quantile(data, q)))
            expected = np.concatenate([np.log(raw0[: k + 2]), [estimation._unpack_theta(raw0[k + 2], lo, hi)]])
            assert np.array_equal(search.start, expected), (seed, q)


def test_fit_marginal_records_each_start(pair_and_fits, monkeypatch):
    y1 = pair_and_fits[0]
    calls = 0
    composite_nll = estimation._kernels.composite_nll

    def counted(*args):
        nonlocal calls
        calls += 1
        return composite_nll(*args)

    monkeypatch.setattr(estimation._kernels, "composite_nll", counted)
    fit = fit_marginal(y1, "weibull")
    assert len(fit.searches) == 3
    # every objective call reaches the kernel: the +inf guard never fires on this sample
    assert sum(s.nfev for s in fit.searches) == calls > 0
    best = min(fit.searches, key=lambda s: s.fun)
    assert (fit.loglik, fit.converged) == (-best.fun, best.success)
    assert all(isinstance(v, float) for s in fit.searches for v in s.start)


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


@pytest.mark.parametrize("family, truth", [("weibull", WIW), ("invburr", IBIW)], ids=["wiw", "ibiw"])
def test_fit_marginal_loglik_is_scale_equivariant_to_1e6(family, truth):
    # the likelihood of c * y is that of y less n log c, and the fit finds the same optimum to within 1e-6;
    # at c = 1e300 the searches start with log-scales near 700, close to the largest log a double holds
    data = CompositeModel(truth).sample(2000, 23)
    base = fit_marginal(data, family).loglik
    for c in (0.01, 10.0, 1024.0, 1e300):
        assert fit_marginal(data * c, family).loglik == pytest.approx(base - data.size * math.log(c), rel=0, abs=1e-6)


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
    assert rep.model_tau == pytest.approx(empirical_kendall_tau(y1, y2), abs=0.03)
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
    # dataclass ==: params, loglik, converged and each start's search record, field by field
    assert (rep.marginal1, rep.marginal2) == (fit1, fit2)
    assert len(rep.marginal2.searches) == 3
    assert_no_child_left()


def test_fit_marginal_runs_at_most_three_starts(pair_and_fits):
    # the search is deterministic from its start, so a fourth start would repeat the first
    y1, _, fit1, _ = pair_and_fits
    assert fit_marginal(y1, "weibull", OptimizerConfig(restarts=4)) == fit1


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


def test_tau_pinned_on_a_tie_free_sample():
    # 200 000 distinct values in each column: every merge level runs, and no tie correction hides a miscount
    rng = np.random.default_rng(200000)
    z = rng.standard_normal((2, 200000))
    x, y = z[0], 0.6 * z[0] + 0.8 * z[1]
    assert np.unique(x).size == np.unique(y).size == x.size
    assert empirical_kendall_tau(x, y) == 0.40981053745268725


def test_tau_counts_signed_zeros_as_ties():
    rng = np.random.default_rng(7)
    x, y = rng.integers(-2, 3, size=(2, 300)).astype(float)
    signed = [np.where((v == 0) & (rng.random(v.size) < 0.5), -0.0, v) for v in (x, y)]
    for v in signed:
        assert np.any(np.signbit(v) & (v == 0)) and np.any(~np.signbit(v) & (v == 0))
    tau = empirical_kendall_tau(*signed)
    assert tau == empirical_kendall_tau(x, y)
    assert tau == pytest.approx(brute_force_tau(*signed), abs=1e-13)


def brute_force_inversions(ranks):
    r = np.asarray(ranks)
    return int(np.sum(np.triu(r[:, None] > r[None, :], k=1)))


def test_inversions_equal_the_pair_count():
    # every n up to 70, and n = 2^k - 1, 2^k, 2^k + 1 up to 1 025: full, partial and one-slot last blocks
    sizes = list(range(1, 71)) + [m for k in range(7, 11) for m in (2**k - 1, 2**k, 2**k + 1)]
    rng = np.random.default_rng(1966)
    for n in sizes:
        for ranks in (rng.permutation(n), rng.integers(0, n // 4 + 1, size=n)):
            assert estimation._inversions(ranks) == brute_force_inversions(ranks), n


def test_inversions_of_equal_and_reversed_ranks():
    for n in (1, 2, 3, 64, 65, 1025):
        assert estimation._inversions(np.zeros(n, dtype=np.int64)) == 0
        assert estimation._inversions(np.arange(n)[::-1]) == n * (n - 1) // 2


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
