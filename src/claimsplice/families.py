"""Univariate severity families used as head and tail components.

Four families: Weibull, Paralogistic, Inverse Burr (heads) and Inverse
Weibull (tail). Each exposes pdf/cdf/quantile plus log-scale variants;
everything is computed in log space internally so the kernels stay finite
for claims spanning many orders of magnitude.

Each log-density, log-cdf and log-sf formula is written once, as a static
method ``unchecked_log*(y, *params)`` of its parameter class that takes the
parameters in field order and validates nothing. The public methods validate
their input and call it; the likelihood kernels call it directly.

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


def _softplus(t):
    """log(1 + exp(t)) without overflow for large t."""
    t = np.asarray(t, dtype=float)
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(np.minimum(t, 0.0))))


def _log1mexp(x):
    """log(1 - exp(-x)) for x > 0, accurate near both ends."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        small = np.log(-np.expm1(-np.minimum(x, 0.6931471805599453)))
        large = np.log1p(-np.exp(-np.maximum(x, 0.6931471805599453)))
    return np.where(x < 0.6931471805599453, small, large)


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
        return self.unchecked_logpdf(_check_positive_y(y), *astuple(self))

    def logcdf(self, y):
        return self.unchecked_logcdf(_check_positive_y(y), *astuple(self))

    def logsf(self, y):
        return self.unchecked_logsf(_check_positive_y(y), *astuple(self))

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
    def unchecked_logpdf(y, mu, sigma):
        z = np.log(y) - np.log(sigma)
        return np.log(mu) - np.log(sigma) + (mu - 1.0) * z - np.exp(mu * z)

    @staticmethod
    def unchecked_logcdf(y, mu, sigma):
        return _log1mexp(np.exp(mu * (np.log(y) - np.log(sigma))))

    @staticmethod
    def unchecked_logsf(y, mu, sigma):
        return -np.exp(mu * (np.log(y) - np.log(sigma)))

    def ppf(self, u):
        u = _check_prob(u)
        return self.sigma * (-np.log1p(-u)) ** (1.0 / self.mu)


@dataclass(frozen=True)
class ParalogisticParams(_PositiveParamsMixin):
    """Paralogistic with shape mu and rate-like sigma: F(y) = 1 - (1 + (y*sigma)^mu)^(-mu)."""

    mu: float
    sigma: float

    @staticmethod
    def unchecked_logpdf(y, mu, sigma):
        t = mu * (np.log(y) + np.log(sigma))
        return 2.0 * np.log(mu) + t - np.log(y) - (mu + 1.0) * _softplus(t)

    @staticmethod
    def unchecked_logcdf(y, mu, sigma):
        # 1 - exp(-mu * softplus(t))
        return _log1mexp(mu * _softplus(mu * (np.log(y) + np.log(sigma))))

    @staticmethod
    def unchecked_logsf(y, mu, sigma):
        return -mu * _softplus(mu * (np.log(y) + np.log(sigma)))

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
    def unchecked_logpdf(y, mu, sigma, tau):
        z = np.log(y) + np.log(tau)
        return np.log(mu) + np.log(sigma) + mu * sigma * z - np.log(y) - (mu + 1.0) * _softplus(sigma * z)

    @staticmethod
    def unchecked_logcdf(y, mu, sigma, tau):
        return -mu * _softplus(-sigma * (np.log(y) + np.log(tau)))

    @staticmethod
    def unchecked_logsf(y, mu, sigma, tau):
        return _log1mexp(mu * _softplus(-sigma * (np.log(y) + np.log(tau))))

    def ppf(self, u):
        u = _check_prob(u)
        # (y*tau)^(-sigma) = u^(-1/mu) - 1
        x = np.expm1(-np.log(u) / self.mu)
        return x ** (-1.0 / self.sigma) / self.tau


@dataclass(frozen=True)
class InverseWeibullParams(_PositiveParamsMixin):
    """Inverse Weibull with shape alpha and scale gamma: F(y) = exp(-(gamma/y)^alpha)."""

    alpha: float
    gamma: float

    @staticmethod
    def unchecked_logpdf(y, alpha, gamma):
        z = np.log(gamma) - np.log(y)
        return np.log(alpha) - np.log(y) + alpha * z - np.exp(alpha * z)

    @staticmethod
    def unchecked_logcdf(y, alpha, gamma):
        return -np.exp(alpha * (np.log(gamma) - np.log(y)))

    @staticmethod
    def unchecked_logsf(y, alpha, gamma):
        return _log1mexp(np.exp(alpha * (np.log(gamma) - np.log(y))))

    def ppf(self, u):
        u = _check_prob(u)
        return self.gamma * (-np.log(u)) ** (-1.0 / self.alpha)
