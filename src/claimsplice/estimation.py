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

import numpy as np

from claimsplice import _kernels
from claimsplice._fork import _forked
from claimsplice._search import bounded_minimum, nelder_mead
from claimsplice.composite import FAMILIES, CompositeModel, CompositeParams
from claimsplice.families import InverseWeibullParams, _check_positive_y
from claimsplice.copula import GumbelCopula, clamp_pseudo_obs

SIMPLEX_SCALE = 0.1  # Nelder-Mead's initial step along each transformed axis
MIN_N = 20  # fewest observations a marginal fit accepts
# the largest log-parameter whose exp is a finite double: the log of the largest double is 709.78
MAX_LOG_PARAM = math.floor(math.log(np.finfo(float).max))


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
    n: int
    searches: tuple  # one _search.Search per start, in start order

    @property
    def model(self):
        return CompositeModel(self.params)

    @property
    def n_iter(self):
        """Nelder-Mead iterations, summed over the starts."""
        return sum(search.nit for search in self.searches)


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

    def __post_init__(self):
        self.loglik = self.marginal1.loglik + self.marginal2.loglik + self.copula.loglik
        vars(self).update(criteria(self.loglik, self.marginal1.df, self.marginal2.df, self.n))
        self.model_tau = GumbelCopula(self.copula.phi).kendall_tau()


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


def criteria(loglik, df1, df2, n):
    """The model-selection keys of a report: df, df_fixed_thresholds, aic and bic.

    ``loglik`` is the joint log-likelihood of ``n`` pairs under two marginals of
    ``df1`` and ``df2`` free parameters. The Gumbel phi adds one parameter to
    ``df``; ``df_fixed_thresholds`` leaves the two thresholds out of the count.
    """
    df = df1 + df2 + 1
    return {"df": df, "df_fixed_thresholds": df - 2, "aic": aic(loglik, df), "bic": bic(loglik, df, n)}


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


def fit_marginal(data, family, config=None):
    """Maximum-likelihood fit of one composite marginal.

    Runs a Nelder-Mead search from up to three threshold initializations
    (the first ``config.restarts`` of the data quantiles 0.5, 0.7, 0.9) and
    keeps the best local maximum. The search is deterministic from its
    start, so a fourth start would repeat the first.
    """
    config = config or OptimizerConfig()
    if family not in FAMILIES:
        raise ValueError(f"unknown head family {family!r}; expected one of {sorted(FAMILIES)}")
    data = _check_positive_y(data)
    if data.size < MIN_N:
        raise DegenerateDataError(f"need at least {MIN_N} observations, got {data.size}")
    if np.all(data == data[0]):
        raise DegenerateDataError("degenerate sample: all observations are equal")

    fam = FAMILIES[family]
    head_cls, k = fam.head, fam.dim
    lo, hi = float(np.min(data)), float(np.max(data))
    sample = _kernels.Sample(data)

    def objective(x):
        if np.any(np.abs(x) > MAX_LOG_PARAM):
            return np.inf
        return _kernels.composite_nll(head_cls, _pack_params(k, x, lo, hi), sample)

    best_x, best, searches = None, None, []
    for q in [0.5, 0.7, 0.9][: config.restarts]:
        theta0 = float(np.quantile(data, q))
        raw0 = np.array(fam.start(data[data <= theta0]) + [1.5, theta0, theta0])  # head, alpha, gamma, theta
        x0 = np.concatenate([np.log(raw0[: k + 2]), [_unpack_theta(raw0[k + 2], lo, hi)]])
        simplex = x0 + SIMPLEX_SCALE * np.vstack([np.zeros_like(x0), np.eye(x0.size)])
        x, search = nelder_mead(objective, simplex, config.max_iter, 1e-8, config.tol)
        searches.append(search)
        if best is None or search.fun < best.fun:
            best_x, best = x, search

    if not np.isfinite(best.fun):
        raise ConvergenceError(f"no finite likelihood found for family {family!r}")
    raw = _pack_params(k, best_x, lo, hi)
    tail = InverseWeibullParams(alpha=raw[k], gamma=raw[k + 1])
    params = CompositeParams(head=head_cls(*raw[:k]), tail=tail, theta=float(raw[k + 2]))
    model = CompositeModel(params)
    return MarginalFit(
        family=family,
        params=params,
        r=model.r,
        loglik=-best.fun,
        df=fam.df,
        converged=best.success,
        n=data.size,
        searches=tuple(searches),
    )


# ---------------------------------------------------------------------------
# stage 2: copula fit

def fit_copula(u, v, config=None):
    """Maximize the Gumbel likelihood over phi >= 1 on pseudo-observations.

    Works on the unconstrained scale eta = ln(phi - 1). The independence
    boundary (phi = 1, log-likelihood 0) is compared against the interior
    optimum explicitly.
    """
    config = config or OptimizerConfig()
    u = clamp_pseudo_obs(u)
    v = clamp_pseudo_obs(v)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same length")

    def objective(eta):
        return _kernels.gumbel_nll(1.0 + math.exp(eta), u, v)

    eta, search = bounded_minimum(objective, -15.0, 8.0, 1e-10, config.max_iter)
    phi = 1.0 + math.exp(eta)
    loglik = -search.fun
    # the boundary phi = 1 has log-likelihood exactly 0
    if loglik <= 0.0 or phi <= 1.0 + 1e-6:
        phi, loglik = 1.0, 0.0
    return CopulaFit(phi=phi, loglik=loglik, at_boundary=phi == 1.0, converged=search.success)


def fit_bivariate(y1, y2, family1, family2, config=None):
    """Two-stage (IFM) fit of the bivariate composite model: both marginals, then phi on their pseudo-observations.

    Marginal 2 is fitted in a forked child while marginal 1 is fitted here;
    each fit runs the same code on the same data as a call of
    ``fit_marginal``. Stage failures carry the stage identity in the raised
    error message, and marginal 1's failure is the one reported. The data's
    own Kendall tau is not part of the fit: ``empirical_kendall_tau(y1, y2)``
    gives it.
    """
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
    return FitReport(marginal1=fits[0], marginal2=fits[1], copula=cop, n=y1.size)


# ---------------------------------------------------------------------------
# dependence diagnostics

def _runs(sorted_v):
    """Where the run of equal values holding each element of ``sorted_v`` starts, and the tied pairs.

    Element i of a run that starts at s ties with the i - s elements before it, so the tied pairs
    are the sum of i - s over all elements: n(n - 1)/2 minus the sum of the run starts.
    """
    n = sorted_v.size
    first = np.arange(n, dtype=np.int64)
    first[1:][sorted_v[1:] == sorted_v[:-1]] = 0
    np.maximum.accumulate(first, out=first)
    return first, n * (n - 1) // 2 - int(np.sum(first))


def _min_ranks(v):
    """Each value's 0-based rank, equal values sharing the lowest, and the pairs of tied values.

    One argsort; each run of equal values takes the position where it starts.
    """
    order = np.argsort(v)
    first, ties = _runs(v[order])
    ranks = np.empty_like(first)
    ranks[order] = first
    return ranks, ties


def _inversions(ranks):
    """Pairs i < j with ranks[j] < ranks[i], for integer ranks in [0, n); a merge sort with one int64 sort per level.

    The level that merges blocks of 2w slots gives slot p the key
    ((block * n + rank) << 1) | right, with block = p // 2w and right set in the
    block's second half (p & w). One sort of these keys merges every block's two
    sorted halves, and equal ranks sort left before right, so a tie never
    counts. The right-half element k slots into its half ends k + (left elements
    not above it) slots into the block, so the level's inversions are the sum of
    the right-half offsets before the sort minus the sum of the offsets holding
    a set side bit after it; every block keeps its number of right elements, so
    slot numbers stand in for offsets. Keys stay below n**2 + 2n, so int64
    holds them for any n below 3e9.
    """
    n = ranks.size
    slot = np.arange(n, dtype=np.int64)
    keys = ranks.astype(np.int64)  # a copy, sorted in place below
    tag, side = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    swaps, shift = 0, 0  # w = 1 << shift
    while (1 << shift) < n:
        np.right_shift(slot, shift + 1, out=tag)
        tag *= n
        keys += tag
        keys <<= 1
        np.right_shift(slot, shift, out=side)
        side &= 1
        keys |= side
        swaps += int(np.dot(slot, side))
        keys.sort()
        np.bitwise_and(keys, 1, out=side)
        swaps -= int(np.dot(slot, side))
        keys >>= 1
        keys %= n
        shift += 1
    return swaps


def empirical_kendall_tau(x, y):
    """Tie-adjusted Kendall's tau-b in O(n log n) (Knight's merge-sort inversion count).

    Each column is ranked by one argsort (``_min_ranks``); one sort of the joint
    keys rank_x * n + rank_y puts the rows in (x, y) order, with the y ranks
    ascending within tied x, so tied-x pairs never count as inversions. The
    x-, y- and joint ties come from the runs of equal values (``_runs``) that
    ranking finds in each sorted column and in the sorted keys. The counts are
    exact integers. The test suite checks it pair-for-pair against an O(n^2)
    enumeration.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if y.size != n:
        raise ValueError("need two equal-length samples")
    if n < 2:
        raise DegenerateDataError(f"Kendall's tau needs at least two observations, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("Kendall's tau needs finite observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateDataError("Kendall's tau undefined for a constant coordinate")

    rank_x, n1 = _min_ranks(x)  # n1: pairs tied in x
    rank_y, n2 = _min_ranks(y)  # n2: pairs tied in y
    keys = rank_x * n + rank_y
    keys.sort()
    n0 = n * (n - 1) // 2
    joint = _runs(keys)[1]  # pairs tied in both coordinates
    swaps = _inversions(keys % n)
    num = n0 - n1 - n2 + joint - 2 * swaps
    return num / math.sqrt((n0 - n1) * (n0 - n2))
