"""Univariate severity families used as head and tail components.

Four families: Weibull, Paralogistic, Inverse Burr (heads) and Inverse
Weibull (tail). Each exposes pdf/cdf/quantile plus log-scale variants;
everything is computed in log space internally so the kernels stay finite
for claims spanning many orders of magnitude.

Each formula is written once as a static method of its parameter class that
takes the parameters in field order and validates nothing: ``unchecked_logpdf``,
the one of ``unchecked_logcdf`` and ``unchecked_logsf`` with a closed form (the
mixin derives the other: log F = log1mexp(-log S), log S = log1mexp(-log F))
and ``unchecked_ppf_logsf``. The density formulas take ``(log_y, *params)``:
log y, not y, so that a caller evaluating them many times on one sample takes
the log once. The quantile takes the log survival log(1 - u) so that one far
below 1 keeps its precision. The public methods validate y or u and pass
``np.log(y)`` or ``np.log1p(-u)``; the likelihood kernels and the spliced
quantile call the formulas directly.

Scale conventions follow the multiplicative form of the densities: the
Paralogistic sigma and Inverse Burr tau enter as ``(y * sigma)`` and
``(y * tau)``, i.e. they are *rate-like* (units 1/currency). Fitted values
such as sigma = 0.0008 on claims in the tens of thousands are therefore
expected, not a bug. The Weibull sigma and Inverse Weibull gamma are
ordinary scales in currency units.
"""

from __future__ import annotations

import numbers
from dataclasses import astuple, dataclass, fields

import numpy as np

__all__ = [
    "WeibullParams",
    "ParalogisticParams",
    "InverseBurrParams",
    "InverseWeibullParams",
]

_LN2 = 0.6931471805599453
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float, which compares exactly with an int of any size


def _softplus(t):
    """log(1 + exp(t)) without overflow for large t: max(t, 0) + log1p(exp(-|t|))."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _log1mexp(x):
    """log(1 - exp(-x)) for x >= 0, accurate near both ends; x = 0 gives -inf.

    log(-expm1(-x)) below log 2, log1p(-exp(-x)) from log 2 up. A scalar, as in
    the kernel's splice constants, evaluates only its own branch, through the
    same numpy functions as an array (``math.exp`` rounds differently from
    ``np.exp``), and takes its -inf at x = 0 without the log of 0.
    """
    if not isinstance(x, float):  # a Python float or numpy float64 skips the conversion
        x = np.asarray(x, dtype=float)
        if x.ndim:
            with np.errstate(divide="ignore"):
                small = np.log(-np.expm1(-np.minimum(x, _LN2)))
                large = np.log1p(-np.exp(-np.maximum(x, _LN2)))
            return np.where(x < _LN2, small, large)
        x = float(x)
    if x == 0.0:
        return -np.inf
    return np.log(-np.expm1(-x)) if x < _LN2 else np.log1p(-np.exp(-x))


def _is_finite_number(v):
    """Whether v is a real number within the float range: not NaN, inf, a string, None or a bool (which passes as 0 or 1)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def _check_positive_y(y):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(~np.isfinite(y)):
        raise ValueError("y must be strictly positive and finite")
    return y


def _check_prob(u):
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails both comparisons
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return u


class _PositiveParamsMixin:
    """Validation + shared numeric plumbing for the parameter dataclasses."""

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (_is_finite_number(v) and v > 0.0):
                raise ValueError(f"{type(self).__name__}.{f.name} must be a finite number > 0, got {v!r}")

    # the complement rule; each family overrides one side with its closed form, whose negation is exact
    @classmethod
    def unchecked_logcdf(cls, log_y, *params):
        return _log1mexp(-cls.unchecked_logsf(log_y, *params))

    @classmethod
    def unchecked_logsf(cls, log_y, *params):
        return _log1mexp(-cls.unchecked_logcdf(log_y, *params))

    def logpdf(self, y):
        return self.unchecked_logpdf(np.log(_check_positive_y(y)), *astuple(self))

    def logcdf(self, y):
        return self.unchecked_logcdf(np.log(_check_positive_y(y)), *astuple(self))

    def logsf(self, y):
        return self.unchecked_logsf(np.log(_check_positive_y(y)), *astuple(self))

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def cdf(self, y):
        return np.exp(self.logcdf(y))

    def sf(self, y):
        return np.exp(self.logsf(y))

    def ppf(self, u):
        return self.unchecked_ppf_logsf(np.log1p(-_check_prob(u)), *astuple(self))


@dataclass(frozen=True)
class WeibullParams(_PositiveParamsMixin):
    """Weibull with shape mu and scale sigma: F(y) = 1 - exp(-(y/sigma)^mu)."""

    mu: float
    sigma: float

    @staticmethod
    def unchecked_logpdf(log_y, mu, sigma):
        z = log_y - np.log(sigma)
        return np.log(mu) - np.log(sigma) + (mu - 1.0) * z - np.exp(mu * z)

    @staticmethod
    def unchecked_logsf(log_y, mu, sigma):
        return -np.exp(mu * (log_y - np.log(sigma)))

    @staticmethod
    def unchecked_ppf_logsf(log_s, mu, sigma):
        return sigma * (-log_s) ** (1.0 / mu)


@dataclass(frozen=True)
class ParalogisticParams(_PositiveParamsMixin):
    """Paralogistic with shape mu and rate-like sigma: F(y) = 1 - (1 + (y*sigma)^mu)^(-mu)."""

    mu: float
    sigma: float

    @staticmethod
    def unchecked_logpdf(log_y, mu, sigma):
        t = mu * (log_y + np.log(sigma))
        return 2.0 * np.log(mu) + t - log_y - (mu + 1.0) * _softplus(t)

    @staticmethod
    def unchecked_logsf(log_y, mu, sigma):
        return -mu * _softplus(mu * (log_y + np.log(sigma)))

    @staticmethod
    def unchecked_ppf_logsf(log_s, mu, sigma):
        # (1 + x)^(-mu) = S with x = (sigma*y)^mu
        return np.expm1(-log_s / mu) ** (1.0 / mu) / sigma


@dataclass(frozen=True)
class InverseBurrParams(_PositiveParamsMixin):
    """Inverse Burr with shapes mu, sigma and rate-like tau.

    F(y) = ((y*tau)^sigma / (1 + (y*tau)^sigma))^mu = (1 + (y*tau)^(-sigma))^(-mu).
    """

    mu: float
    sigma: float
    tau: float

    @staticmethod
    def unchecked_logpdf(log_y, mu, sigma, tau):
        z = log_y + np.log(tau)
        return np.log(mu) + np.log(sigma) + mu * sigma * z - log_y - (mu + 1.0) * _softplus(sigma * z)

    @staticmethod
    def unchecked_logcdf(log_y, mu, sigma, tau):
        return -mu * _softplus(-sigma * (log_y + np.log(tau)))

    @staticmethod
    def unchecked_ppf_logsf(log_s, mu, sigma, tau):
        # (y*tau)^(-sigma) = F^(-1/mu) - 1 = expm1(a) = exp(a) (1 - exp(-a)), raised to -1/sigma factor
        # by factor, so that it cannot overflow where expm1(a) does
        a = -_log1mexp(-log_s) / mu
        return np.exp(-a / sigma) * (-np.expm1(-a)) ** (-1.0 / sigma) / tau


@dataclass(frozen=True)
class InverseWeibullParams(_PositiveParamsMixin):
    """Inverse Weibull with shape alpha and scale gamma: F(y) = exp(-(gamma/y)^alpha)."""

    alpha: float
    gamma: float

    @staticmethod
    def unchecked_logpdf(log_y, alpha, gamma):
        z = np.log(gamma) - log_y
        return np.log(alpha) - log_y + alpha * z - np.exp(alpha * z)

    @staticmethod
    def unchecked_logcdf(log_y, alpha, gamma):
        return -np.exp(alpha * (np.log(gamma) - log_y))

    @staticmethod
    def unchecked_ppf_logsf(log_s, alpha, gamma):
        return gamma * (-_log1mexp(-log_s)) ** (-1.0 / alpha)
