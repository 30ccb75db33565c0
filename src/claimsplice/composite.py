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
from typing import Callable, NamedTuple, Union

import numpy as np

from claimsplice import _kernels
from claimsplice.families import (
    InverseBurrParams,
    InverseWeibullParams,
    ParalogisticParams,
    WeibullParams,
    _check_positive_y,
    _check_prob,
    _is_finite_number,
    _log1mexp,
)

HeadParams = Union[WeibullParams, ParalogisticParams, InverseBurrParams]

# the least positive normal double
_TINY = np.finfo(float).tiny


class Family(NamedTuple):
    """One composite model: its report tag, its head parameter class and the head's start rule.

    ``start(head_data)`` gives the head parameters, in field order, from which a
    fit searches, for the observations at or below the starting threshold.
    """

    tag: str
    head: type
    start: Callable[[np.ndarray], list]

    @property
    def dim(self):
        """Number of head parameters: the fields of the head class."""
        return len(fields(self.head))

    @property
    def df(self):
        """Free parameters of one marginal: the head's, alpha, gamma and theta."""
        return self.dim + 3


# The three composite models, keyed by head name; each splices its head to an
# Inverse Weibull tail. Every head starts from unit shapes; the Weibull scale
# starts at the head mean, and a rate-like sigma or tau at 1 / the head median.
FAMILIES = {
    "weibull": Family("wiw", WeibullParams, lambda h: [1.0, float(np.mean(h))]),
    "paralogistic": Family("pariw", ParalogisticParams, lambda h: [1.0, 1.0 / float(np.median(h))]),
    "invburr": Family("ibiw", InverseBurrParams, lambda h: [1.0, 1.0, 1.0 / float(np.median(h))]),
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
        if not (_is_finite_number(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be a finite number > 0, got {self.theta!r}")

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
        self.log_head_sf_theta = float(params.head.unchecked_logsf(np.log(params.theta), *astuple(params.head)))
        self.r = float(np.exp(self.log_r))

    @property
    def theta(self):
        return self.params.theta

    def _splice(self, x, cut, head, tail):
        """head(x) where x <= cut, tail(x) elsewhere; a 0-d x gives a float."""
        xs = np.atleast_1d(x)
        in_head = xs <= cut
        out = np.empty_like(xs)
        out[in_head] = head(xs[in_head])
        out[~in_head] = tail(xs[~in_head])
        return float(out[0]) if x.ndim == 0 else out

    def logpdf(self, y):
        return self._splice(
            _check_positive_y(y),
            self.theta,
            lambda y: self.log_r + self.params.head.logpdf(y) - self.log_head_cdf_theta,
            lambda y: self.log_1mr + self.params.tail.logpdf(y) - self.log_tail_sf_theta,
        )

    def pdf(self, y):
        return np.exp(self.logpdf(y))

    def _head_logcdf(self, y):
        """log F(y) = log r + log F_H(y) - log F_H(theta), for y <= theta."""
        return self.log_r + self.params.head.logcdf(y) - self.log_head_cdf_theta

    def _tail_logsf(self, y):
        """log S(y) = log(1 - r) + log S_T(y) - log S_T(theta), for y > theta."""
        return self.log_1mr + self.params.tail.logsf(y) - self.log_tail_sf_theta

    def cdf(self, y):
        # tail: 1 - (1 - r) S_T(y) / S_T(theta), with the ratio taken in logs
        return self._splice(
            _check_positive_y(y),
            self.theta,
            lambda y: np.minimum(np.exp(self._head_logcdf(y)), 1.0),
            lambda y: -np.expm1(self._tail_logsf(y)),
        )

    def logsf(self, y):
        """log(1 - cdf(y)), in log space on both sides, so far-tail values keep their relative precision."""
        return self._splice(
            _check_positive_y(y),
            self.theta,
            lambda y: _log1mexp(-np.minimum(self._head_logcdf(y), 0.0)),
            self._tail_logsf,
        )

    def sf(self, y):
        return np.exp(self.logsf(y))

    def ppf(self, u):
        """Quantile; y <= theta for u <= r, y >= theta above, nondecreasing in u."""

        def head_ppf(u):
            # S_H(y) = 1 - p with p = u / r * F_H(theta). From p = 1/2 up it is (r - u) / r + u / r * S_H(theta),
            # with r - u to its relative precision, so that it keeps that precision as u nears r even where
            # F_H(theta) rounds to 1. Where r - u is 0, y is theta itself, the quantile of r by construction.
            # Above r = 1/2 the float r is off by up to 1.1e-16, so there r - u is (1 - u) - (1 - r): 1 - u is
            # exact for u >= 1/2, and 1 - r = exp(log(1 - r)) is as precise as log(1 - r). Every u up to the
            # float r takes this branch, so that difference may fall below 0, and it is clamped there; the head
            # quantile at a clamped u may round an ulp below theta, under the clipped one of the u before it.
            # For tiny u the quantile may underflow to 0: floor it, so that cdf/logpdf accept y
            p = np.exp(np.log(u) + self.log_head_cdf_theta - self.log_r)
            head = self.params.head
            r_minus_u = np.maximum((1.0 - u) - np.exp(self.log_1mr), 0.0) if self.r > 0.5 else self.r - u
            with np.errstate(divide="ignore"):
                near_r = r_minus_u / self.r + u / self.r * np.exp(self.log_head_sf_theta)
                log_s = np.where(p < 0.5, np.log1p(-np.minimum(p, 0.5)), np.log(near_r))
                y = head.unchecked_ppf_logsf(log_s, *astuple(head))
            return np.where(r_minus_u == 0.0, self.theta, np.clip(y, _TINY, self.theta))

        def tail_ppf(u):
            # S_T(y) = (1 - u) / (1 - r) * S_T(theta), inverted through log S_T(y) <= log S_T(theta);
            # log S_T(y) = 0 gives the quantile 0, which the max lifts to theta
            log_sf = np.minimum(np.log1p(-u) - self.log_1mr, 0.0) + self.log_tail_sf_theta
            tail = self.params.tail
            return np.maximum(tail.unchecked_ppf_logsf(log_sf, *astuple(tail)), self.theta)

        return self._splice(_check_prob(u), self.r, head_ppf, tail_ppf)

    def sample(self, n, rng):
        """Inverse-cdf sampling; rng is a numpy Generator or a seed."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = np.random.default_rng(rng)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=n)
        return self.ppf(u)

    def log_likelihood(self, data):
        """Sum of log densities over the observations, by the likelihood kernel."""
        data = _check_positive_y(data).ravel()
        nll = _kernels.composite_nll(type(self.params.head), self.params.as_vector(), _kernels.Sample(data))
        return -nll
