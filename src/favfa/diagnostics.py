"""Randomized quantile residual diagnostics for fitted logit models.

Each observation is placed on its fitted Bernoulli distribution function,
randomized across the jump at its outcome (Dunn & Smyth 1996, "Randomized
quantile residuals", J. Comput. Graph. Stat. 5): U (1 - p) for y = 0 and
(1 - p) + U p for y = 1, with U uniform. The residuals are uniform on
[0, 1] when the model is correctly specified, which a Kolmogorov-Smirnov
test checks. Dispersion is checked by Pearson's statistic against its null
mean and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .logit import DesignMatrix, LogitFit, expit


@dataclass(frozen=True, eq=False)
class ResidualDiagnostics:
    """A model's residual tests; ``scaled_residuals`` is a float64 array,
    one entry per observation."""

    scaled_residuals: np.ndarray
    ks_statistic: float
    ks_p_value: float
    dispersion_ratio: float
    dispersion_p: float
    seed: int


#: Below this x, exp(-pi^2 / (8 x^2)) would fall under the smallest normal
#: double; the survival function rounds to 1 well above it.
_KOLMOGOROV_ONE = math.pi / math.sqrt(8 * 708.3964185322641)


def kolmogorov(x: float) -> float:
    """Survival function of Kolmogorov's limiting distribution,
    P(sqrt(n) D_n >= x) as n grows (Marsaglia, Tsang & Wang 2003).

    Two series, each cut after its first terms: for x <= 0.82 the Jacobi
    theta form 1 - (sqrt(2 pi) / x) u (1 + u^8 + u^24 + u^48) with
    u = exp(-pi^2 / (8 x^2)), and above it 2 (v - v^4 + v^9 - v^16) with
    v = exp(-2 x^2), both evaluated in nested (Horner) order. The operations
    and their order are those of ``scipy.special.kolmogorov``, and
    ``math.exp``/``math.pow`` call the same C library, so the result is
    bit-identical to scipy's. NaN gives NaN; the result is clamped to
    [0, 1]."""
    if math.isnan(x):
        return math.nan
    if x <= _KOLMOGOROV_ONE:
        return 1.0
    if x <= 0.82:
        w = math.sqrt(2 * math.pi) / x
        log_u8 = -math.pi * math.pi / (x * x)
        u = math.exp(log_u8 / 8)
        u8 = math.exp(log_u8)
        p = 1 + math.pow(u8, 3)
        p = 1 + u8 * u8 * p
        p = 1 + u8 * p
        sf = 1 - w * u * p
    else:
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        p = 1 - v3 * v3 * v
        p = 1 - v3 * (v * v) * p
        p = 1 - v3 * p
        sf = 2 * v * p
    return min(max(sf, 0.0), 1.0)


def ks_uniform(sample: np.ndarray) -> tuple[float, float]:
    """Two-sided Kolmogorov-Smirnov test of ``sample`` against uniform(0, 1)
    with the asymptotic distribution: D = max(D+, D-) over the sorted
    sample, p = ``kolmogorov(D sqrt(n))``, the survival function's two
    short series. The same arithmetic as
    ``scipy.stats.kstest(sample, "uniform", method="asymp")``, bit for bit,
    without importing scipy."""
    n = len(sample)
    cdf = np.clip(np.sort(sample), 0.0, 1.0)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = max(d_plus, d_minus)
    return float(d), kolmogorov(float(d) * math.sqrt(n))


def simulate_residuals(fit: LogitFit, design: DesignMatrix, seed: int = 0) -> ResidualDiagnostics:
    """Randomized quantile residuals with uniformity and dispersion tests.

    One uniform per observation, ``default_rng(seed).random(n)``, places
    y on its Bernoulli(p) distribution function, p = sigma(x.beta): the
    residual is U (1 - p) for y = 0 and (1 - p) + U p for y = 1. Residuals
    scaled on simulated replicates converge to these as the replicates
    grow, so none are simulated; the function keeps the name that callers
    and perfbench's spans use. The batch is tested against uniform(0, 1)
    with the asymptotic Kolmogorov-Smirnov distribution.

    The dispersion ratio is Pearson's X^2 / n, X^2 = sum (y - p)^2 / v with
    v = p (1 - p) clipped below at 1e-24; X^2 has null mean n and variance
    sum (1 - 2p)^2 / v, and its p-value is two-sided normal. Every sum is
    numpy's pairwise sum over one vector, so the result is bit-reproducible
    for a fixed seed at any OpenBLAS thread count.
    """
    if not fit.converged:
        raise NotConverged("diagnostics need a converged fit")

    y = design.y
    n = len(y)
    prob = expit(design.X @ fit.beta)
    not_prob = 1.0 - prob
    uniform_draw = np.random.default_rng(seed).random(n)
    # U < 1 and p <= 1, so (1 - p) + U p rounds to at most 1
    scaled = np.where(y > 0.5, not_prob + uniform_draw * prob, uniform_draw * not_prob)
    ks_stat, ks_p = ks_uniform(scaled)

    variance = np.clip(prob * not_prob, 1e-24, None)
    pearson = float(np.sum((y - prob) ** 2 / variance))
    pearson_var = float(np.sum((1.0 - 2.0 * prob) ** 2 / variance))
    # at p = 1/2 throughout, every term of X^2 is exactly 1 and X^2 = n
    z = (pearson - n) / math.sqrt(pearson_var) if pearson_var > 0 else 0.0

    return ResidualDiagnostics(
        scaled_residuals=scaled,
        ks_statistic=ks_stat,
        ks_p_value=ks_p,
        dispersion_ratio=pearson / n,
        dispersion_p=math.erfc(abs(z) / math.sqrt(2.0)),
        seed=seed,
    )
