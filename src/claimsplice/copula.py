"""Gumbel (Gumbel-Hougaard) copula and the bivariate composite model.

C(u, v) = exp(-((-ln u)^phi + (-ln v)^phi)^(1/phi)) with phi >= 1.
phi = 1 is independence; Kendall's tau is 1 - 1/phi. The copula is
exchangeable in (u, v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from claimsplice import _kernels
from claimsplice.composite import CompositeModel

# composite cdfs of extreme claims can round to exactly 0 or 1
PSEUDO_OBS_CLAMP = 1e-10


def clamp_pseudo_obs(u):
    """Clip pseudo-observations into the open unit interval."""
    return np.clip(np.asarray(u, dtype=float), PSEUDO_OBS_CLAMP, 1.0 - PSEUDO_OBS_CLAMP)


def _check_phi(phi):
    if not (np.isfinite(phi) and phi >= 1.0):
        raise ValueError(f"Gumbel dependence parameter must satisfy phi >= 1, got {phi!r}")
    return float(phi)


def _check_uv(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u <= 0) or np.any(u >= 1) or np.any(v <= 0) or np.any(v >= 1):
        raise ValueError("u and v must lie strictly inside (0, 1)")
    return u, v


class GumbelCopula:
    """Frozen Gumbel copula with dependence parameter phi >= 1."""

    def __init__(self, phi):
        self.phi = _check_phi(phi)

    def cdf(self, u, v):
        u, v = _check_uv(u, v)
        p = self.phi
        s = (-np.log(u)) ** p + (-np.log(v)) ** p
        return np.exp(-(s ** (1.0 / p)))

    def logpdf(self, u, v):
        u, v = _check_uv(u, v)
        return _kernels.gumbel_logpdf(self.phi, u, v)

    def pdf(self, u, v):
        return np.exp(self.logpdf(u, v))

    def kendall_tau(self):
        return 1.0 - 1.0 / self.phi

    @staticmethod
    def from_kendall_tau(tau):
        if not 0.0 <= tau < 1.0:
            raise ValueError(f"Gumbel copula requires tau in [0, 1), got {tau!r}")
        return GumbelCopula(1.0 / (1.0 - tau))

    def log_likelihood(self, u, v):
        """Sum of copula log densities over clamped pseudo-observation pairs."""
        u, v = _check_uv(u, v)
        return -_kernels.gumbel_nll(self.phi, u, v)

    def sample(self, n, rng):
        """Draw n (U, V) pairs via the Archimedean frailty construction.

        A positive stable variate S with index 1/phi (Chambers-Mallows-Stuck)
        shared across the pair gives U_i = exp(-(E_i / S)^(1/phi)) for unit
        exponentials E_i. Exact and rejection-free.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng)
        e = rng.exponential(size=(n, 2))
        if self.phi == 1.0:
            uv = np.exp(-e)
        else:
            a = 1.0 / self.phi
            t = rng.uniform(0.0, np.pi, size=n)
            w = rng.exponential(size=n)
            s = (
                (np.sin(a * t) / np.sin(t) ** (1.0 / a))
                * (np.sin((1.0 - a) * t) / w) ** ((1.0 - a) / a)
            )
            uv = np.exp(-((e / s[:, None]) ** a))
        return np.clip(uv[:, 0], 1e-300, 1.0 - 1e-16), np.clip(uv[:, 1], 1e-300, 1.0 - 1e-16)


@dataclass(frozen=True)
class BivariateModel:
    """Two composite marginals bound by a Gumbel copula."""

    marginal1: CompositeModel
    marginal2: CompositeModel
    copula: GumbelCopula

    def sample_pairs(self, n, rng):
        """n dependent claim pairs: copula uniforms pushed through the marginal quantiles."""
        u, v = self.copula.sample(n, rng)
        return self.marginal1.ppf(u), self.marginal2.ppf(v)

    def log_likelihood(self, y1, y2):
        """Joint log-likelihood: both marginal sums plus the copula-density sum."""
        l1 = self.marginal1.log_likelihood(y1)
        l2 = self.marginal2.log_likelihood(y2)
        u = clamp_pseudo_obs(self.marginal1.cdf(y1))
        v = clamp_pseudo_obs(self.marginal2.cdf(y2))
        return l1 + l2 + self.copula.log_likelihood(u, v)
