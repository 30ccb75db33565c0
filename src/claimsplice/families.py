"""Univariate severity families used as head and tail components.

Four families: Weibull, Paralogistic, Inverse Burr (heads) and Inverse
Weibull (tail). Each exposes pdf/cdf/quantile plus log-scale variants;
everything is computed in log space internally so the kernels stay finite
for claims spanning many orders of magnitude.

Each log-density, log-cdf and log-sf formula, and the Inverse Weibull
quantile of a log-probability (``unchecked_ppf_log``), is written once as a
static method of its parameter class that takes the parameters in field order
and validates nothing. The density formulas ``unchecked_logpdf``,
``unchecked_logcdf`` and ``unchecked_logsf`` take ``(log_y, *params)``: log y,
not y, so that a caller evaluating them many times on one sample takes the log
once. The public methods validate y and pass ``np.log(y)``; the likelihood
kernels call the formulas directly.

Scale conventions follow the multiplicative form of the densities: the
Paralogistic sigma and Inverse Burr tau enter as ``(y * sigma)`` and
``(y * tau)``, i.e. they are *rate-like* (units 1/currency). Fitted values
such as sigma = 0.0008 on claims in the tens of thousands are therefore
expected, not a bug. The Weibull sigma and Inverse Weibull gamma are
ordinary scales in currency units.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

__all__ = [
    "WeibullParams",
    "ParalogisticParams",
    "InverseBurrParams",
    "InverseWeibullParams",
]

_LN2 = 0.6931471805599453


def _softplus(t):
    """log(1 + exp(t)) without overflow for large t: max(t, 0) + log1p(exp(-|t|))."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _log1mexp(x):
    """log(1 - exp(-x)) for x >= 0, accurate near both ends; x = 0 gives -inf.

    log(-expm1(-x)) below log 2, log1p(-exp(-x)) from log 2 up. A scalar, as in
    the kernel's splice constants, evaluates only its own branch.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        if x.ndim == 0:
            return np.log(-np.expm1(-x)) if x < _LN2 else np.log1p(-np.exp(-x))
        small = np.log(-np.expm1(-np.minimum(x, _LN2)))
        large = np.log1p(-np.exp(-np.maximum(x, _LN2)))
    return np.where(x < _LN2, small, large)


def _check_positive_y(y):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(~np.isfinite(y)):
        raise ValueError("y must be strictly positive and finite")
    return y


def _check_prob(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return u


class _PositiveParamsMixin:
    """Validation + shared numeric plumbing for the parameter dataclasses."""

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{type(self).__name__}.{f.name} must be finite and > 0, got {v!r}")

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
    def unchecked_logcdf(log_y, mu, sigma):
        return _log1mexp(np.exp(mu * (log_y - np.log(sigma))))

    @staticmethod
    def unchecked_logsf(log_y, mu, sigma):
        return -np.exp(mu * (log_y - np.log(sigma)))

    def ppf(self, u):
        u = _check_prob(u)
        return self.sigma * (-np.log1p(-u)) ** (1.0 / self.mu)


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
    def unchecked_logcdf(log_y, mu, sigma):
        # 1 - exp(-mu * softplus(t))
        return _log1mexp(mu * _softplus(mu * (log_y + np.log(sigma))))

    @staticmethod
    def unchecked_logsf(log_y, mu, sigma):
        return -mu * _softplus(mu * (log_y + np.log(sigma)))

    def ppf(self, u):
        u = _check_prob(u)
        # (1 + x)^(-mu) = 1 - u with x = (sigma*y)^mu
        x = np.expm1(-np.log1p(-u) / self.mu)
        return x ** (1.0 / self.mu) / self.sigma


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
    def unchecked_logsf(log_y, mu, sigma, tau):
        return _log1mexp(mu * _softplus(-sigma * (log_y + np.log(tau))))

    def ppf(self, u):
        u = _check_prob(u)
        # (y*tau)^(-sigma) = u^(-1/mu) - 1 = expm1(a); where that overflows, it is exp(a) to double
        # precision, so y*tau = exp(-a / sigma)
        a = -np.log(u) / self.mu
        with np.errstate(over="ignore"):
            x = np.expm1(a)
        return np.where(np.isinf(x), np.exp(-a / self.sigma), x ** (-1.0 / self.sigma)) / self.tau


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
    def unchecked_logsf(log_y, alpha, gamma):
        return _log1mexp(np.exp(alpha * (np.log(gamma) - log_y)))

    @staticmethod
    def unchecked_ppf_log(log_u, alpha, gamma):
        return gamma * (-log_u) ** (-1.0 / alpha)

    def ppf(self, u):
        return self.unchecked_ppf_log(np.log(_check_prob(u)), self.alpha, self.gamma)
