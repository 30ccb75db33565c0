"""Likelihood kernels evaluated thousands of times per fit.

``composite_nll`` and ``gumbel_nll`` take raw parameter values and return
+inf instead of raising, so that a derivative-free optimizer can step onto
invalid points. They are looked up as attributes of this module at call
time. The formulas themselves live in ``families`` (the head and tail
densities) and here (the splice constants and the Gumbel copula density),
and the model classes evaluate the same functions.
"""

from __future__ import annotations

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
    log_head_cdf = head.unchecked_logcdf(theta, *head_params)
    log_tail_sf = InverseWeibullParams.unchecked_logsf(theta, alpha, gamma)
    log_a = InverseWeibullParams.unchecked_logpdf(theta, alpha, gamma) + log_head_cdf
    log_b = head.unchecked_logpdf(theta, *head_params) + log_tail_sf
    if not (np.isfinite(log_a) or np.isfinite(log_b)):
        return None
    return -_softplus(log_b - log_a), -_softplus(log_a - log_b), log_head_cdf, log_tail_sf


def composite_nll(family, params, y):
    """Negative log-likelihood of a spliced head/Inverse Weibull tail model.

    ``family`` is the head parameter class (e.g. ``WeibullParams``) and
    ``params`` the raw vector ``[head..., alpha, gamma, theta]``.
    Observations with ``y <= theta`` fall in the head branch (closed
    interval). Returns +inf for invalid parameters or for data with zero
    density.
    """
    params = np.asarray(params, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(params)) or np.any(params <= 0.0):
        return np.inf
    *head, alpha, gamma, theta = params
    constants = splice_constants(family, head, alpha, gamma, theta)
    if constants is None:
        return np.inf
    log_r, log_1mr, log_head_cdf, log_tail_sf = constants

    in_head = y <= theta
    total = np.sum(log_r + family.unchecked_logpdf(y[in_head], *head) - log_head_cdf) + np.sum(
        log_1mr + InverseWeibullParams.unchecked_logpdf(y[~in_head], alpha, gamma) - log_tail_sf
    )
    if not np.isfinite(total):
        return np.inf
    return -float(total)


def gumbel_logpdf(phi, u, v):
    """Log density of the Gumbel copula at (u, v) in (0, 1)^2, phi >= 1; validates nothing."""
    lu = -np.log(u)  # > 0
    lv = -np.log(v)
    # s = lu^phi + lv^phi computed via logs to survive extreme phi
    a = phi * np.log(lu)
    b = phi * np.log(lv)
    m = np.maximum(a, b)
    log_s = m + np.log1p(np.exp(-np.abs(a - b)))
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
