"""Simulation-based residual diagnostics for fitted logit models.

Replicate outcomes are drawn from the fitted Bernoulli probabilities and each
observation is placed on its simulated cumulative distribution, randomized
across ties, yielding scaled residuals that are uniform on [0, 1] when the
model is correctly specified. Dispersion and zero-inflation are tested by
ranking the observed statistic among its simulated counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .logit import DesignMatrix, LogitFit, _sum_over_rows, expit

#: Replicate rows per vectorized block: at most 64, at least 2, and
#: otherwise few enough that a block holds at most this many float64
#: elements (1 MiB), which bounds peak memory. A small block also keeps the
#: peak steady: numpy asks the kernel for transparent huge pages on arrays of
#: 4 MiB and more, and in glibc's heap such 2 MB pages stay resident after
#: the block is freed, so a larger block would move the peak by whole pages,
#: or not, depending on where the heap happened to place it. Two rows
#: reach 4 MiB only from 2**18 observations on, where one-row blocks would
#: double the count of ``_sum_over_rows`` calls, each a stacked product of
#: one row with every 512-observation slice (1.3 times the time at 500,000
#: observations).
_SIM_ELEMENTS = 2**17


@dataclass(frozen=True)
class ResidualDiagnostics:
    scaled_residuals: tuple[float, ...]
    ks_statistic: float
    ks_p_value: float
    dispersion_ratio: float
    dispersion_p: float
    zero_inflation_ratio: float
    zero_inflation_p: float
    n_simulations: int
    seed: int


def _rank_p(observed: float, simulated: np.ndarray) -> float:
    """Two-sided p-value from the observed statistic's fractional rank among
    the simulated ones: p = 2 min(r, 1-r), ties counted at half weight."""
    below = int(np.count_nonzero(simulated < observed))
    ties = int(np.count_nonzero(simulated == observed))
    r = (below + 0.5 * ties) / len(simulated)
    return float(min(1.0, 2.0 * min(r, 1.0 - r)))


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


def simulate_residuals(
    fit: LogitFit, design: DesignMatrix, n_sim: int = 250, seed: int = 0
) -> ResidualDiagnostics:
    """Randomized-quantile residuals plus dispersion and zero-inflation checks.

    Draws ``n_sim`` replicate outcome vectors from Bernoulli(sigma(x.beta)).
    The scaled residual of observation i is P_sim(y* < y_i) + U * P_sim(y* =
    y_i) with U uniform; the batch is tested against uniform(0, 1) with the
    asymptotic Kolmogorov-Smirnov distribution. The dispersion ratio compares
    the observed Pearson-residual variance to the mean simulated one; the
    zero-inflation ratio compares observed and mean simulated zero counts.
    Both get rank-based two-sided p-values. Bit-reproducible for a fixed seed.

    The replicates are drawn in blocks of rows that consume the generator's
    stream as one (n_sim, n) draw would. No residual is materialised. A
    block's variances and zero counts come from one product: the indicator
    of draws that took each observation's less likely outcome, times three
    fixed n-vectors, taken slice by fixed 512-row slice in one stacked
    product and added in slice order. So the result does not depend on the
    OpenBLAS thread count.
    """
    if not fit.converged:
        raise NotConverged("diagnostics need a converged fit")
    if n_sim < 100:
        raise ValueError(f"n_sim must be at least 100, got {n_sim}")

    x, y = design.X, design.y
    n = len(y)
    prob = expit(x @ fit.beta)
    rng = np.random.default_rng(seed)

    sd = np.sqrt(np.clip(prob * (1.0 - prob), 1e-24, None))
    var_observed = float(((y - prob) / sd).var())
    # a replicate's Pearson residual is c + q d: c that of the observation's
    # likelier outcome, d = -+1/sd the step to the other outcome, and q = 1
    # where the draw took the less likely one. Where p rounds to 0 or 1 (sd
    # clipped) q is always 0, so no +-1/sd terms enter the sums to cancel.
    # One product of a block's q with w gives each replicate's count of ones
    # less that of the likelier outcomes, sum(r) - sum(c), sum(r^2) - sum(c^2)
    likely = prob >= 0.5
    c = np.where(likely, 1.0 - prob, -prob) / sd
    d = np.where(likely, -1.0, 1.0) / sd
    w = np.column_stack([1.0 - 2.0 * likely, d, d * (d + 2.0 * c)])
    likely_total, c_total, c2_total = float(likely.sum()), float(c.sum()), float((c * c).sum())
    var_simulated = np.empty(n_sim)
    zero_counts = np.empty(n_sim)
    unlikely = np.zeros(n)
    block_rows = max(2, min(64, _SIM_ELEMENTS // max(n, 1)))
    draws = np.empty((min(block_rows, n_sim), n))
    sims = np.empty(draws.shape, dtype=bool)
    tally = np.ones(len(draws))
    # replicate outcomes, one row each, drawn block by block: the blocks
    # consume the generator's stream in the order one (n_sim, n) draw would
    for start in range(0, n_sim, block_rows):
        rows = min(block_rows, n_sim - start)
        block, chunk = draws[:rows], sims[:rows]
        rng.random(out=block)
        np.less(block, prob, out=chunk)
        np.not_equal(chunk, likely, out=block)
        # column sums as a product: counts of at most 64, summed exactly
        unlikely += tally[:rows] @ block
        extra_ones, r_sum, r2_sum = _sum_over_rows(block, w).T
        r_mean = (c_total + r_sum) / n
        var_simulated[start : start + rows] = (c2_total + r2_sum) / n - r_mean * r_mean
        zero_counts[start : start + rows] = n - (likely_total + extra_ones)
    uniform_draw = rng.random(n)

    ones_frac = np.where(likely, n_sim - unlikely, unlikely) / n_sim
    zeros_frac = 1.0 - ones_frac
    scaled = np.where(
        y > 0.5,
        zeros_frac + uniform_draw * ones_frac,
        uniform_draw * zeros_frac,
    )
    ks_stat, ks_p = ks_uniform(scaled)

    dispersion_ratio = var_observed / float(var_simulated.mean())
    zeros_observed = float(np.count_nonzero(y < 0.5))
    mean_sim_zeros = float(zero_counts.mean())
    if mean_sim_zeros > 0:
        zero_ratio = zeros_observed / mean_sim_zeros
    else:
        zero_ratio = 1.0 if zeros_observed == 0 else float("inf")

    return ResidualDiagnostics(
        scaled_residuals=tuple(scaled.tolist()),
        ks_statistic=ks_stat,
        ks_p_value=ks_p,
        dispersion_ratio=dispersion_ratio,
        dispersion_p=_rank_p(var_observed, var_simulated),
        zero_inflation_ratio=zero_ratio,
        zero_inflation_p=_rank_p(zeros_observed, zero_counts),
        n_simulations=n_sim,
        seed=seed,
    )
