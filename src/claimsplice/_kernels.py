"""Likelihood kernels evaluated thousands of times per fit.

``composite_nll`` and ``gumbel_nll`` take raw parameter values and return
+inf instead of raising, so that a derivative-free optimizer can step onto
invalid points. They are looked up as attributes of this module at call
time. The formulas themselves live in ``families`` (the head and tail
densities, written over log y) and here (the splice constants and the Gumbel
copula density), and the model classes evaluate the same functions.
"""

from __future__ import annotations

import math

import numpy as np

from claimsplice.families import InverseWeibullParams, _softplus


def splice_constants(head, head_params, alpha, gamma, theta):
    """(log r, log(1 - r), log F_H(theta), log S_T(theta)) of a spliced model.

    ``head`` is the head parameter class and ``head_params`` its values in
    field order; the tail is Inverse Weibull(alpha, gamma). The continuity
    weight is r = A / (A + B) with A = f_T F_H and B = f_H S_T at theta,
    assembled in log space. Returns None when both terms underflow, where
    r is undefined.
    """
    log_theta = np.log(theta)
    log_head_cdf = head.unchecked_logcdf(log_theta, *head_params)
    log_tail_sf = InverseWeibullParams.unchecked_logsf(log_theta, alpha, gamma)
    log_a = InverseWeibullParams.unchecked_logpdf(log_theta, alpha, gamma) + log_head_cdf
    log_b = head.unchecked_logpdf(log_theta, *head_params) + log_tail_sf
    if not (math.isfinite(log_a) or math.isfinite(log_b)):
        return None
    return -_softplus(log_b - log_a), -_softplus(log_a - log_b), log_head_cdf, log_tail_sf


class Sample:
    """A claim sample as ``composite_nll`` takes it: ``y``, ``log_y`` and the last head/tail split.

    ``log_y`` is taken once, for every call on the sample. The split keeps
    ``log_y`` of the head (``y <= theta``) and of the tail, each in the order
    of ``y``, and the head count k it was made at. The sets {y <= theta} are
    nested in theta, so an equal count means an identical split: a call whose
    theta lies between the same two order statistics as the last one reuses
    it. ``len()`` is the number of observations.
    """

    __slots__ = ("y", "log_y", "_head_count", "_head_log_y", "_tail_log_y")

    def __init__(self, y):
        self.y = np.asarray(y, dtype=float)
        self.log_y = np.log(self.y)
        self._head_count = -1

    def __len__(self):
        return self.y.size

    def split(self, theta):
        """(log y of the head, log y of the tail) at ``theta``; both arrays are shared, not to be written to."""
        in_head = self.y <= theta
        k = np.count_nonzero(in_head)
        if k != self._head_count:
            # each side keeps the order of y: summing in another order (sorted, say) moves the last bits of
            # the objective, and Nelder-Mead follows them to another optimum on the kinked theta ridge
            self._head_log_y = np.compress(in_head, self.log_y)
            self._tail_log_y = np.compress(~in_head, self.log_y)
            self._head_count = k
        return self._head_log_y, self._tail_log_y


def composite_nll(family, params, sample):
    """Negative log-likelihood of a spliced head/Inverse Weibull tail model.

    ``family`` is the head parameter class (e.g. ``WeibullParams``),
    ``params`` the raw vector ``[head..., alpha, gamma, theta]`` and
    ``sample`` a ``Sample``, which a caller keeps for every call on the same
    data. Observations with ``y <= theta`` fall in the head branch (closed
    interval). Returns +inf for invalid parameters or for data with zero
    density.
    """
    params = [float(p) for p in params]
    if not all(0.0 < p < math.inf for p in params):  # NaN fails too
        return math.inf
    *head, alpha, gamma, theta = params
    constants = splice_constants(family, head, alpha, gamma, theta)
    if constants is None:
        return math.inf
    log_r, log_1mr, log_head_cdf, log_tail_sf = constants

    head_log_y, tail_log_y = sample.split(theta)
    # constant and normalizer added in place to each side's fresh terms: x + c = c + x in IEEE arithmetic, so the
    # bits are those of log_r + terms - log_head_cdf
    head_terms = family.unchecked_logpdf(head_log_y, *head)
    head_terms += log_r
    head_terms -= log_head_cdf
    tail_terms = InverseWeibullParams.unchecked_logpdf(tail_log_y, alpha, gamma)
    tail_terms += log_1mr
    tail_terms -= log_tail_sf
    total = head_terms.sum() + tail_terms.sum()
    if not math.isfinite(total):
        return math.inf
    return -float(total)


def gumbel_log_generator_sum(phi, lu, lv):
    """log(lu^phi + lv^phi) for lu = -log u > 0 and lv = -log v > 0, phi >= 1; validates nothing.

    Both powers stay in logs, as max + log1p(exp(-|difference|)), so that neither
    overflows nor rounds into the other at extreme phi. The Gumbel copula is
    C(u, v) = exp(-exp(this / phi)), and its density is written over this sum too.
    """
    a = phi * np.log(lu)
    b = phi * np.log(lv)
    return np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))


def gumbel_logpdf(phi, u, v):
    """Log density of the Gumbel copula at (u, v) in (0, 1)^2, phi >= 1; validates nothing."""
    lu = -np.log(u)  # > 0
    lv = -np.log(v)
    log_s = gumbel_log_generator_sum(phi, lu, lv)
    w = np.exp(log_s / phi)  # s^(1/phi)
    return (
        -w
        + (phi - 1.0) * (np.log(lu) + np.log(lv))
        + lu
        + lv
        + (1.0 / phi - 2.0) * log_s
        + np.log(w + phi - 1.0)
    )


def gumbel_nll(phi, u, v):
    """Negative log-likelihood of the Gumbel copula density at (u, v) pairs.

    Expects u, v strictly inside (0, 1); callers clamp pseudo-observations.
    Returns +inf for phi < 1.
    """
    if not np.isfinite(phi) or phi < 1.0:
        return np.inf
    total = np.sum(gumbel_logpdf(phi, np.asarray(u, dtype=float), np.asarray(v, dtype=float)))
    if not np.isfinite(total):
        return np.inf
    return -float(total)
