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
from scipy.special import expit, kolmogorov

from .errors import NotConverged
from .logit import DesignMatrix, LogitFit

#: Replicate rows per vectorized block: at most 64, and few enough that a
#: block holds about this many float64 elements, which bounds peak memory.
_SIM_ELEMENTS = 2**20


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


def ks_uniform(sample: np.ndarray) -> tuple[float, float]:
    """Two-sided Kolmogorov-Smirnov test of ``sample`` against uniform(0, 1)
    with the asymptotic distribution: D = max(D+, D-) over the sorted
    sample, p = Kolmogorov survival function at D sqrt(n). The same
    arithmetic as ``scipy.stats.kstest(sample, "uniform", method="asymp")``,
    without the cost of importing scipy.stats."""
    n = len(sample)
    cdf = np.clip(np.sort(sample), 0.0, 1.0)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = max(d_plus, d_minus)
    return float(d), float(np.clip(kolmogorov(d * math.sqrt(n)), 0.0, 1.0))


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
    var_simulated = np.empty(n_sim)
    zero_counts = np.empty(n_sim)
    ones = np.zeros(n, dtype=np.intp)
    block_rows = max(1, min(64, _SIM_ELEMENTS // max(n, 1)))
    draws = np.empty((min(block_rows, n_sim), n))
    sims = np.empty(draws.shape, dtype=bool)
    # replicate outcomes, one row each, drawn block by block: the blocks
    # consume the generator's stream in the order one (n_sim, n) draw would
    for start in range(0, n_sim, block_rows):
        rows = min(block_rows, n_sim - start)
        block, chunk = draws[:rows], sims[:rows]
        rng.random(out=block)
        np.less(block, prob, out=chunk)
        ones += chunk.sum(axis=0)
        np.subtract(chunk, prob, out=block)
        block /= sd
        var_simulated[start : start + rows] = block.var(axis=1)
        zero_counts[start : start + rows] = (~chunk).sum(axis=1)
    uniform_draw = rng.random(n)

    ones_frac = ones / n_sim
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
        scaled_residuals=tuple(float(u) for u in scaled),
        ks_statistic=ks_stat,
        ks_p_value=ks_p,
        dispersion_ratio=dispersion_ratio,
        dispersion_p=_rank_p(var_observed, var_simulated),
        zero_inflation_ratio=zero_ratio,
        zero_inflation_p=_rank_p(zeros_observed, zero_counts),
        n_simulations=n_sim,
        seed=seed,
    )
