"""Spliced (composite) severity model: truncated head below a threshold,
truncated Inverse Weibull tail above it.

The mixing weight r is not free: continuity of the density at the threshold
fixes it to

    r = f_T(theta) F_H(theta) / (f_T(theta) F_H(theta) + f_H(theta) S_T(theta))

where H is the head family, T the Inverse Weibull tail and S_T = 1 - F_T.
Both the A/(A+B) terms are assembled in log space so extreme thresholds do
not overflow. The cdf at the threshold equals r by construction.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import NamedTuple, Union

import numpy as np

from claimsplice import _kernels
from claimsplice.families import (
    InverseBurrParams,
    InverseWeibullParams,
    ParalogisticParams,
    WeibullParams,
    _check_positive_y,
    _check_prob,
)

HeadParams = Union[WeibullParams, ParalogisticParams, InverseBurrParams]


class Family(NamedTuple):
    """One composite model: its report tag and its head parameter class."""

    tag: str
    head: type

    @property
    def dim(self):
        """Number of head parameters: the fields of the head class."""
        return len(fields(self.head))

    @property
    def df(self):
        """Free parameters of one marginal: the head's, alpha, gamma and theta."""
        return self.dim + 3


# The three composite models, keyed by head name; each splices its head to an
# Inverse Weibull tail.
FAMILIES = {
    "weibull": Family("wiw", WeibullParams),
    "paralogistic": Family("pariw", ParalogisticParams),
    "invburr": Family("ibiw", InverseBurrParams),
}
TAGS = sorted(f.tag for f in FAMILIES.values())


def family_of_tag(tag):
    """Head name of a composite-model tag ('wiw' -> 'weibull'), or None."""
    return next((name for name, f in FAMILIES.items() if f.tag == tag), None)


@dataclass(frozen=True)
class CompositeParams:
    """Head family parameters + Inverse Weibull tail + splice threshold."""

    head: HeadParams
    tail: InverseWeibullParams
    theta: float

    def __post_init__(self):
        if self.family is None:
            raise ValueError(f"unsupported head family {type(self.head).__name__}")
        if not (np.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and > 0, got {self.theta!r}")

    @property
    def family(self):
        """Head name of the head parameters, a key of FAMILIES (None for a foreign head)."""
        return next((name for name, f in FAMILIES.items() if type(self.head) is f.head), None)

    def as_vector(self):
        """Raw parameter vector in kernel layout [head..., alpha, gamma, theta]."""
        return np.array(astuple(self.head) + astuple(self.tail) + (self.theta,), dtype=float)


def mixing_weight(params: CompositeParams):
    """Continuity mixing weight r in [0, 1], computed stably in log space."""
    return CompositeModel(params).r


class CompositeModel:
    """Immutable spliced model with cached splice constants.

    Evaluation methods are vectorized over y and safe for concurrent use.
    """

    def __init__(self, params: CompositeParams):
        self.params = params
        constants = _kernels.splice_constants(
            type(params.head), astuple(params.head), params.tail.alpha, params.tail.gamma, params.theta
        )
        if constants is None:
            raise ValueError(
                "degenerate composite: both continuity terms underflow at theta "
                f"(theta={params.theta!r})"
            )
        # log weights, and the normalizers F_H(theta) and S_T(theta) in logs
        self.log_r, self.log_1mr, self.log_head_cdf_theta, self.log_tail_sf_theta = map(float, constants)
        self.r = float(np.exp(self.log_r))

    @property
    def theta(self):
        return self.params.theta

    def logpdf(self, y):
        y = _check_positive_y(y)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        head = y <= self.theta
        out = np.empty_like(y)
        if np.any(head):
            out[head] = self.log_r + self.params.head.logpdf(y[head]) - self.log_head_cdf_theta
        if np.any(~head):
            out[~head] = self.log_1mr + self.params.tail.logpdf(y[~head]) - self.log_tail_sf_theta
        return float(out[0]) if scalar else out

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def cdf(self, y):
        y = _check_positive_y(y)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        head = y <= self.theta
        out = np.empty_like(y)
        if np.any(head):
            out[head] = np.exp(self.log_r + self.params.head.logcdf(y[head]) - self.log_head_cdf_theta)
        if np.any(~head):
            tail_cdf_theta = float(self.params.tail.cdf(self.theta))
            frac = (self.params.tail.cdf(y[~head]) - tail_cdf_theta) / np.exp(self.log_tail_sf_theta)
            out[~head] = self.r + np.exp(self.log_1mr) * frac
        out = np.minimum(out, 1.0)
        return float(out[0]) if scalar else out

    def ppf(self, u):
        u = _check_prob(u)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        out = np.empty_like(u)
        head = u <= self.r
        if np.any(head):
            uh = np.exp(np.log(u[head]) + self.log_head_cdf_theta - self.log_r)
            out[head] = self.params.head.ppf(uh)
        if np.any(~head):
            ut = u[~head]
            tail_cdf_theta = float(self.params.tail.cdf(self.theta))
            target = tail_cdf_theta + (ut - self.r) / np.exp(self.log_1mr) * np.exp(self.log_tail_sf_theta)
            out[~head] = self.params.tail.ppf(np.minimum(target, 1.0 - 1e-16))
        return float(out[0]) if scalar else out

    def sample(self, n, rng):
        """Inverse-cdf sampling; rng is a numpy Generator or a seed."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=n)
        return self.ppf(u)

    def log_likelihood(self, data):
        """Sum of log densities over the observations, by the likelihood kernel."""
        data = np.ascontiguousarray(_check_positive_y(data), dtype=float)
        nll = _kernels.composite_nll(type(self.params.head), self.params.as_vector(), data)
        return -nll

    def smoothness_gap(self, h=1e-5):
        """Diagnostic: relative mismatch of left/right pdf derivatives at theta.

        The splice is continuous by construction but generally not
        differentiable; this reports |f'(theta-) - f'(theta+)| / f(theta).
        """
        th = self.theta
        step = h * th
        left = (self.pdf(th) - self.pdf(th - step)) / step
        right = (self.pdf(th + 2.0 * step) - self.pdf(th + step)) / step
        return float(abs(left - right) / self.pdf(th))
