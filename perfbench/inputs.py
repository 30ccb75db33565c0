"""Seeded synthetic inputs for the benchmark.

Claim pairs are drawn from the W-IW (Weibull head, Inverse Weibull tail)
recovery truths of the acceptance suite, joined by a Gumbel copula with
phi = 1.5. The sampler is the benchmark's own numpy code, so a change to the
program's sampling or quantile code does not change the benchmark's inputs,
and amounts are rounded to cents, so the bytes written do not depend on the
last bit of numpy's log/exp. The program only ever sees the CSV files.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Copied from RECOVERY_TRUTHS["wiw"] in tests/test_acceptance.py (the
# benchmark does not import tests/): (mu, sigma) of the Weibull head,
# (alpha, gamma) of the Inverse Weibull tail, and the threshold theta.
WIW_TRUTHS = (
    {"mu": 1.5, "sigma": 2000.0, "alpha": 1.2, "gamma": 8000.0, "theta": 5000.0},
    {"mu": 1.3, "sigma": 1500.0, "alpha": 1.5, "gamma": 6000.0, "theta": 4000.0},
)
PHI = 1.5

# The parameter file of acceptance criterion 8; the same W-IW truths.
PARAMS_DOC = {
    "schema": "claimsplice-params-v1",
    "marginal1": {"family": "wiw", "tau": None, **WIW_TRUTHS[0]},
    "marginal2": {"family": "wiw", "tau": None, **WIW_TRUTHS[1]},
    "phi": PHI,
}


def _wiw_ppf(u, mu, sigma, alpha, gamma, theta):
    """Quantile of the continuity-weighted W-IW composite (plain closed forms)."""
    head_cdf = -math.expm1(-((theta / sigma) ** mu))
    head_pdf = (mu / sigma) * (theta / sigma) ** (mu - 1.0) * math.exp(-((theta / sigma) ** mu))
    tail_cdf = math.exp(-((gamma / theta) ** alpha))
    tail_pdf = (alpha / theta) * (gamma / theta) ** alpha * tail_cdf
    a, b = tail_pdf * head_cdf, head_pdf * (1.0 - tail_cdf)
    r = a / (a + b)
    y = np.empty_like(u)
    head = u <= r
    y[head] = sigma * (-np.log1p(-(u[head] / r) * head_cdf)) ** (1.0 / mu)
    target = tail_cdf + (u[~head] - r) / (1.0 - r) * (1.0 - tail_cdf)
    y[~head] = gamma * (-np.log(target)) ** (-1.0 / alpha)
    return y


def _gumbel_uniforms(n, phi, rng):
    """Gumbel copula pairs by the frailty construction (Chambers-Mallows-Stuck stable)."""
    a = 1.0 / phi
    e = rng.exponential(size=(n, 2))
    t = rng.uniform(0.0, math.pi, size=n)
    w = rng.exponential(size=n)
    s = (np.sin(a * t) / np.sin(t) ** (1.0 / a)) * (np.sin((1.0 - a) * t) / w) ** ((1.0 - a) / a)
    uv = np.exp(-((e / s[:, None]) ** a))
    return np.clip(uv[:, 0], 1e-12, 1.0 - 1e-12), np.clip(uv[:, 1], 1e-12, 1.0 - 1e-12)


def draw_pairs(n, seed, salt):
    """n claim pairs for one (seed, salt); the same arguments give the same pairs."""
    rng = np.random.default_rng([salt, seed])
    u, v = _gumbel_uniforms(n, PHI, rng)
    y1 = _wiw_ppf(u, **WIW_TRUTHS[0])
    y2 = _wiw_ppf(v, **WIW_TRUTHS[1])
    # cents: the smallest amount an insurer books, and never zero
    return np.maximum(np.round(y1, 2), 0.01), np.maximum(np.round(y2, 2), 0.01)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_claims(path, n, seed, salt):
    """Write one claims CSV with the program's own writer; returns its input record."""
    from claimsplice.ingest import ClaimPairSample, write_csv

    y1, y2 = draw_pairs(n, seed, salt)
    meta = [f"perfbench synthetic W-IW claims phi={PHI} n={n} seed={seed} salt={salt}"]
    write_csv(ClaimPairSample(y1, y2), path, metadata=meta)
    return {"file": path.name, "n": n, "seed": seed, "salt": salt, "sha256": sha256(path)}


def write_params(path):
    path.write_text(json.dumps(PARAMS_DOC, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return {"file": path.name, "sha256": sha256(path)}
