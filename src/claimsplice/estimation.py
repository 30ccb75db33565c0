"""Two-stage (margins-first) maximum likelihood and model selection.

Stage 1 maximizes each marginal composite log-likelihood with a restarted
Nelder-Mead simplex on transformed parameters; the likelihood is not smooth
in the threshold at data points, so a derivative-free search is deliberate.
The two marginal fits share nothing, so ``fit_bivariate`` runs marginal 2
in a forked child, through the helper in ``claimsplice._fork``, while
marginal 1 runs in the calling process.
Stage 2 plugs the fitted marginal cdfs in as pseudo-observations and
maximizes the Gumbel copula likelihood over its single parameter.

Model selection uses AIC = -2 l + 2 df and BIC = -2 l + ln(n) df on the
joint decomposition l = l_marginal1 + l_marginal2 + l_copula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from claimsplice import _kernels
from claimsplice._fork import _forked
from claimsplice.composite import FAMILIES, TAGS, CompositeModel, CompositeParams, family_of_tag
from claimsplice.families import InverseWeibullParams
from claimsplice.copula import BivariateModel, GumbelCopula, clamp_pseudo_obs

SIMPLEX_SCALE = 0.1  # Nelder-Mead's initial step along each transformed axis
MIN_N = 20  # fewest observations a marginal fit accepts


class ConvergenceError(RuntimeError):
    """Raised when no optimizer restart reaches the tolerance."""


class DegenerateDataError(ValueError):
    """Raised for data the estimator cannot work with (e.g. all equal)."""


@dataclass(frozen=True)
class OptimizerConfig:
    max_iter: int = 5000
    tol: float = 1e-8
    restarts: int = 3

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be >= 1")


@dataclass
class MarginalFit:
    family: str  # head-family name
    params: CompositeParams
    r: float
    loglik: float
    df: int
    converged: bool
    n_iter: int
    n: int

    @property
    def model(self):
        return CompositeModel(self.params)


@dataclass
class CopulaFit:
    phi: float
    loglik: float
    at_boundary: bool
    converged: bool  # False when the search stopped at maxiter


@dataclass
class FitReport:
    marginal1: MarginalFit
    marginal2: MarginalFit
    copula: CopulaFit
    n: int
    loglik: float = field(init=False)
    df: int = field(init=False)
    df_fixed_thresholds: int = field(init=False)
    aic: float = field(init=False)
    bic: float = field(init=False)
    model_tau: float = field(init=False)
    empirical_tau: Optional[float] = None

    def __post_init__(self):
        self.loglik = self.marginal1.loglik + self.marginal2.loglik + self.copula.loglik
        self.df = self.marginal1.df + self.marginal2.df + 1
        # alternative accounting that leaves the threshold out of each marginal count
        self.df_fixed_thresholds = self.df - 2
        self.aic = aic(self.loglik, self.df)
        self.bic = bic(self.loglik, self.df, self.n)
        self.model_tau = 1.0 - 1.0 / self.copula.phi

    @property
    def model(self):
        return BivariateModel(self.marginal1.model, self.marginal2.model, GumbelCopula(self.copula.phi))


def aic(loglik, df):
    """Akaike information criterion, -2 l + 2 df."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return -2.0 * loglik + 2.0 * df


def bic(loglik, df, n):
    """Bayesian information criterion, -2 l + ln(n) df (natural log)."""
    if df < 1 or n < 1:
        raise ValueError("df >= 1 and n >= 1 required")
    return -2.0 * loglik + math.log(n) * df


# ---------------------------------------------------------------------------
# stage 1: marginal fits

def _pack_params(k, x, lo, hi):
    """Transformed optimizer vector -> raw kernel parameter vector, for a head of k parameters.

    Positive parameters ride on the log scale; the threshold is squashed
    into (lo, hi) by a logistic so every simplex point stays feasible.
    """
    raw = np.empty(k + 3)
    raw[: k + 2] = np.exp(x[: k + 2])
    t = x[k + 2]
    raw[k + 2] = lo + (hi - lo) / (1.0 + np.exp(-t))
    return raw


def _unpack_theta(theta, lo, hi):
    p = (theta - lo) / (hi - lo)
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return math.log(p / (1.0 - p))


def _initial_guesses(family, data, theta0):
    """Crude moment-style starting values given a threshold guess."""
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


def fit_marginal(data, family, config=None):
    """Maximum-likelihood fit of one composite marginal.

    Runs a Nelder-Mead search from up to three threshold initializations
    (the first ``config.restarts`` of the data quantiles 0.5, 0.7, 0.9) and
    keeps the best local maximum. The search is deterministic from its
    start, so a fourth start would repeat the first.
    """
    from scipy import optimize  # imported on first use: it makes up most of a CLI start

    config = config or OptimizerConfig()
    if family not in FAMILIES:
        raise ValueError(f"unknown head family {family!r}; expected one of {sorted(FAMILIES)}")
    data = np.asarray(data, dtype=float)
    if np.any(data <= 0) or np.any(~np.isfinite(data)):
        raise ValueError("all observations must be strictly positive and finite")
    if data.size < MIN_N:
        raise DegenerateDataError(f"need at least {MIN_N} observations, got {data.size}")
    if np.all(data == data[0]):
        raise DegenerateDataError("degenerate sample: all observations are equal")

    head_cls, k = FAMILIES[family].head, FAMILIES[family].dim
    lo, hi = float(np.min(data)), float(np.max(data))
    log_data = np.log(data)

    def objective(x):
        if np.any(np.abs(x) > 700):
            return np.inf
        return _kernels.composite_nll(head_cls, _pack_params(k, x, lo, hi), data, log_data)

    best = None
    total_iter = 0
    for q in [0.5, 0.7, 0.9][: config.restarts]:
        theta0 = float(np.quantile(data, q))
        raw0 = _initial_guesses(family, data, theta0)
        x0 = np.concatenate([np.log(raw0[: k + 2]), [_unpack_theta(raw0[k + 2], lo, hi)]])
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iter,
                "fatol": config.tol,
                "xatol": 1e-8,
                "initial_simplex": x0 + SIMPLEX_SCALE * np.vstack([np.zeros_like(x0), np.eye(x0.size)]),
            },
        )
        total_iter += res.nit
        if best is None or res.fun < best.fun:
            best = res

    if not np.isfinite(best.fun):
        raise ConvergenceError(f"no finite likelihood found for family {family!r}")
    raw = _pack_params(k, best.x, lo, hi)
    tail = InverseWeibullParams(alpha=raw[k], gamma=raw[k + 1])
    params = CompositeParams(head=head_cls(*raw[:k]), tail=tail, theta=float(raw[k + 2]))
    model = CompositeModel(params)
    return MarginalFit(
        family=family,
        params=params,
        r=model.r,
        loglik=-float(best.fun),
        df=FAMILIES[family].df,
        converged=bool(best.success),
        n_iter=total_iter,
        n=data.size,
    )


# ---------------------------------------------------------------------------
# stage 2: copula fit

def fit_copula(u, v, config=None):
    """Maximize the Gumbel likelihood over phi >= 1 on pseudo-observations.

    Works on the unconstrained scale eta = ln(phi - 1). The independence
    boundary (phi = 1, log-likelihood 0) is compared against the interior
    optimum explicitly.
    """
    from scipy import optimize

    config = config or OptimizerConfig()
    u = clamp_pseudo_obs(u)
    v = clamp_pseudo_obs(v)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")

    def objective(eta):
        return _kernels.gumbel_nll(1.0 + math.exp(eta), u, v)

    res = optimize.minimize_scalar(objective, bounds=(-15.0, 8.0), method="bounded",
                                   options={"xatol": 1e-10, "maxiter": config.max_iter})
    phi = 1.0 + math.exp(res.x)
    loglik = -float(res.fun)
    # the boundary phi = 1 has log-likelihood exactly 0
    if loglik <= 0.0 or phi <= 1.0 + 1e-6:
        phi, loglik = 1.0, 0.0
    return CopulaFit(phi=phi, loglik=loglik, at_boundary=phi == 1.0, converged=bool(res.success))


def fit_bivariate(y1, y2, family1, family2, config=None):
    """Full two-stage fit of the bivariate composite model.

    Marginal 2 is fitted in a forked child while marginal 1 is fitted here;
    each fit runs the same code on the same data as a call of
    ``fit_marginal``. Stage failures carry the stage identity in the raised
    error message, and marginal 1's failure is the one reported.
    """
    import scipy.optimize  # noqa: F401  (loaded before the fork, so the child does not import it again)

    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.shape != y2.shape:
        raise ValueError("coordinates must be paired: unequal lengths")
    fits = []
    with _forked(fit_marginal, y2, family2, config) as marginal2:
        stage1 = ((family1, functools.partial(fit_marginal, y1, family1, config)), (family2, marginal2))
        for j, (fam, fit) in enumerate(stage1, start=1):
            try:
                fits.append(fit())
            except (ValueError, RuntimeError) as exc:
                raise type(exc)(f"stage 1, marginal {j} ({fam}): {exc}") from exc
    try:
        cop = fit_copula(fits[0].model.cdf(y1), fits[1].model.cdf(y2), config)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"stage 2, copula: {exc}") from exc
    report = FitReport(marginal1=fits[0], marginal2=fits[1], copula=cop, n=y1.size)
    report.empirical_tau = empirical_kendall_tau(y1, y2)
    return report


def fit_bivariate_by_tag(y1, y2, tag, config=None):
    """Fit using a composite-model tag ('wiw', 'pariw', 'ibiw') for both marginals."""
    fam = family_of_tag(tag)
    if fam is None:
        raise ValueError(f"unknown model tag {tag!r}; expected one of {TAGS}")
    return fit_bivariate(y1, y2, fam, fam, config)


# ---------------------------------------------------------------------------
# dependence diagnostics

def _tied_pairs(*sorted_cols):
    """Pairs of rows equal in every column, for rows sorted so that equal rows are adjacent."""
    change = np.logical_or.reduce([col[1:] != col[:-1] for col in sorted_cols])
    runs = np.diff(np.flatnonzero(np.concatenate(([True], change, [True]))))
    return int(np.sum(runs * (runs - 1) // 2))


def _inversions(y):
    """Pairs i < j with y[j] < y[i], by a bottom-up merge sort over integer ranks.

    Keys block * n + rank keep the blocks apart in one sorted array: per level, one
    searchsorted counts inversions across every block's halves and one sort merges them.
    """
    n = y.size
    keys = np.searchsorted(np.sort(y), y)  # ranks in [0, n); ties share one
    swaps, width = 0, 1
    while width < n:
        block, offset = np.divmod(np.arange(n), 2 * width)
        right = offset >= width
        keys = block * n + keys % n
        # every block with a right half has a full left half: (b + 1) * width left elements up to block b
        swaps += int(np.sum((block[right] + 1) * width - np.searchsorted(keys[~right], keys[right], side="right")))
        keys = np.sort(keys)
        width *= 2
    return swaps


def empirical_kendall_tau(x, y):
    """Tie-adjusted Kendall's tau-b in O(n log n) (merge-sort inversion count).

    The test suite checks it pair-for-pair against an O(n^2) enumeration.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2 or y.size != n:
        raise ValueError("need two equal-length samples with n >= 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("Kendall's tau needs finite observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateDataError("Kendall's tau undefined for a constant coordinate")

    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n0 = n * (n - 1) // 2
    n1 = _tied_pairs(xs)  # pairs tied in x
    n2 = _tied_pairs(np.sort(ys))  # pairs tied in y
    joint = _tied_pairs(xs, ys)  # pairs tied in both coordinates
    swaps = _inversions(ys)  # ys ascends within tied x, so tied-x pairs never count
    num = n0 - n1 - n2 + joint - 2 * swaps
    return num / math.sqrt((n0 - n1) * (n0 - n2))
