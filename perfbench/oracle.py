"""Independent reference values for the correctness gate.

Nothing here calls bb84sim. The normal quantile comes from the standard
library, the binomial tails from `scipy.special.betainc` (the package uses
`bdtr`/`bdtrc`), and the entropy root from a separate bisection. Every check
is vectorized over a batch of queries and runs outside the timed region.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy.special import betainc

CP_TOL = 2e-9        # frozen Clopper-Pearson tolerance on the bound itself
CLOSED_FORM_TOL = 1e-12
RATE_TOL = 1e-12


def z_value(confidence: np.ndarray) -> np.ndarray:
    inv = NormalDist().inv_cdf
    return np.array([inv(0.5 + c / 2.0) for c in confidence])


def wald(k: np.ndarray, n: np.ndarray, conf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = k / n
    half = z_value(conf) * np.sqrt(p * (1.0 - p) / n)
    return np.maximum(0.0, p - half), np.minimum(1.0, p + half)


def wilson(k: np.ndarray, n: np.ndarray, conf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = k / n
    z = z_value(conf)
    z2n = z * z / n
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = z / (1.0 + z2n) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return np.maximum(0.0, centre - half), np.minimum(1.0, centre + half)


def hoeffding(k: np.ndarray, n: np.ndarray, conf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = k / n
    half = np.sqrt(np.log(2.0 / (1.0 - conf)) / (2.0 * n))
    return np.maximum(0.0, p - half), np.minimum(1.0, p + half)


def clopper_pearson_ok(k, n, conf, lower, upper) -> np.ndarray:
    """True where each bound lies within CP_TOL of a root of its tail equation.

    lower solves P[Bin(n, p) >= k] = alpha/2 (0 when k = 0) and upper solves
    P[Bin(n, p) <= k] = alpha/2 (1 when k = n). The tails are monotone in p,
    so a root lies within CP_TOL of the bound exactly when the tail brackets
    alpha/2 across [bound - CP_TOL, bound + CP_TOL].
    """
    half_alpha = (1.0 - conf) / 2.0
    ok = np.ones(k.shape, dtype=bool)

    inner = k > 0
    kk, nn, lo = k[inner], n[inner], lower[inner]
    ge_left = betainc(kk, nn - kk + 1, np.clip(lo - CP_TOL, 0.0, 1.0))
    ge_right = betainc(kk, nn - kk + 1, np.clip(lo + CP_TOL, 0.0, 1.0))
    ok[inner] &= (ge_left <= half_alpha[inner]) & (half_alpha[inner] <= ge_right)
    ok[~inner] &= lower[~inner] == 0.0

    inner = k < n
    kk, nn, up = k[inner], n[inner], upper[inner]
    # P[X <= k] = I_{1-p}(n - k, k + 1), decreasing in p.
    le_left = betainc(nn - kk, kk + 1, 1.0 - np.clip(up - CP_TOL, 0.0, 1.0))
    le_right = betainc(nn - kk, kk + 1, 1.0 - np.clip(up + CP_TOL, 0.0, 1.0))
    ok[inner] &= (le_right <= half_alpha[inner]) & (half_alpha[inner] <= le_left)
    ok[~inner] &= upper[~inner] == 1.0
    return ok


def binary_entropy(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return np.where((q == 0.0) | (q == 1.0), 0.0, h)


def entropy_threshold() -> float:
    """Root of 1 - 2 H2(q) on (0, 0.5), to 1e-13."""
    lo, hi = 0.05, 0.2
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if 1.0 - 2.0 * float(binary_entropy(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def close(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(np.asarray(a) - np.asarray(b)) <= tol


def qber_model(f: float, depolarizing_p: float) -> float:
    """Expected sifted error rate: Eve's wrong-basis half of f gives f/4, the
    channel flips p/2 of the rest, and a flip on an already random bit does
    not add: f/4 + p/2 - f*p/4."""
    return f / 4.0 + depolarizing_p / 2.0 - f * depolarizing_p / 4.0


def sigma_band(std: float, trials: int) -> float:
    """Six standard errors of a mean over `trials` trials."""
    return 6.0 * std / math.sqrt(trials)
