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
from claimsplice.families import _check_prob, _is_finite_number

# composite cdfs of extreme claims can round to exactly 0 or 1
PSEUDO_OBS_CLAMP = 1e-10


def clamp_pseudo_obs(u):
    """Clip pseudo-observations into the open unit interval."""
    return np.clip(np.asarray(u, dtype=float), PSEUDO_OBS_CLAMP, 1.0 - PSEUDO_OBS_CLAMP)


def _check_phi(phi):
    if not (_is_finite_number(phi) and phi >= 1.0):
        raise ValueError(f"Gumbel dependence parameter must satisfy phi >= 1, got {phi!r}")
    return float(phi)


class GumbelCopula:
    """Frozen Gumbel copula with dependence parameter phi >= 1."""

    def __init__(self, phi):
        self.phi = _check_phi(phi)

    def cdf(self, u, v):
        log_s = _kernels.gumbel_log_generator_sum(self.phi, -np.log(_check_prob(u)), -np.log(_check_prob(v)))
        return np.exp(-np.exp(log_s / self.phi))

    def logpdf(self, u, v):
        return _kernels.gumbel_logpdf(self.phi, _check_prob(u), _check_prob(v))

    def pdf(self, u, v):
        return np.exp(self.logpdf(u, v))

    def kendall_tau(self):
        return 1.0 - 1.0 / self.phi

    def log_likelihood(self, u, v):
        """Sum of copula log densities over clamped pseudo-observation pairs."""
        return -_kernels.gumbel_nll(self.phi, _check_prob(u), _check_prob(v))

    def sample(self, n, rng):
        """Draw n (U, V) pairs via the Archimedean frailty construction.

        A positive stable variate S with index a = 1/phi (Chambers-Mallows-Stuck)
        shared across the pair gives U_i = exp(-(E_i / S)^a) for unit
        exponentials E_i. Exact and rejection-free. S is drawn in logs, as a log S,
        which never divides by a, so that no pair turns NaN at large phi.
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
            a_log_s = a * np.log(np.sin(a * t)) - np.log(np.sin(t))
            a_log_s += (1.0 - a) * (np.log(np.sin((1.0 - a) * t)) - np.log(w))
            uv = np.exp(-np.exp(a * np.log(e) - a_log_s[:, None]))
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

    def log_likelihood(self, y1, y2, cdfs=None):
        """Joint log-likelihood: both marginal sums plus the copula-density sum.

        ``cdfs``, the marginal cdfs at ``y1`` and ``y2`` as ``cdf`` returns them,
        spares computing them again where the caller already has them.
        """
        l1 = self.marginal1.log_likelihood(y1)
        l2 = self.marginal2.log_likelihood(y2)
        f1, f2 = (self.marginal1.cdf(y1), self.marginal2.cdf(y2)) if cdfs is None else cdfs
        return l1 + l2 + self.copula.log_likelihood(clamp_pseudo_obs(f1), clamp_pseudo_obs(f2))
