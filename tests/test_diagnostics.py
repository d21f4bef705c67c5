from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import favfa
from favfa.data import Subset
from favfa.diagnostics import kolmogorov, ks_uniform, simulate_residuals
from favfa.errors import NotConverged
from favfa.logit import DesignMatrix, LogitFit, expit, fit_logit


def fields(diag) -> dict:
    """Every field of a ResidualDiagnostics, the residuals as a list of
    floats, so two results compare by value."""
    assert diag.scaled_residuals.dtype == np.float64
    return {**vars(diag), "scaled_residuals": diag.scaled_residuals.tolist()}


def intercept_design(y):
    n = len(y)
    return DesignMatrix(
        X=np.ones((n, 1)), y=np.asarray(y, dtype=float), columns=("intercept",),
        categorical_columns={}, continuous_columns={}, standardization={},
        subset=Subset.POSITIVES,
    )


def manual_fit(beta, p):
    return LogitFit(
        beta=np.asarray(beta, dtype=float), covariance=np.eye(p) * 0.01,
        log_likelihood=0.0, iterations=1, converged=True,
        columns=tuple(f"c{i}" for i in range(p)), ll_trace=(0.0,),
    )


def fitted_on_simulated(seed, n=500):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    eta = x @ np.array([-0.4, 0.7])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    design = DesignMatrix(
        X=x, y=y, columns=("intercept", "z"), categorical_columns={},
        continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
    )
    return fit_logit(design), design


def test_bit_reproducible_with_fixed_seed():
    fit, design = fitted_on_simulated(1)
    a = simulate_residuals(fit, design, n_sim=150, seed=9)
    b = simulate_residuals(fit, design, n_sim=150, seed=9)
    assert fields(a) == fields(b)
    c = simulate_residuals(fit, design, n_sim=150, seed=10)
    assert fields(c)["scaled_residuals"] != fields(a)["scaled_residuals"]


def test_nsim_precondition():
    fit, design = fitted_on_simulated(2)
    with pytest.raises(ValueError):
        simulate_residuals(fit, design, n_sim=99, seed=0)


def test_not_converged_rejected():
    fit, design = fitted_on_simulated(3)
    fit.converged = False
    with pytest.raises(NotConverged):
        simulate_residuals(fit, design, n_sim=100, seed=0)


def test_residuals_bounded():
    fit, design = fitted_on_simulated(4)
    diag = simulate_residuals(fit, design, n_sim=120, seed=5)
    assert all(0.0 <= u <= 1.0 for u in diag.scaled_residuals)
    assert 0.0 <= diag.ks_p_value <= 1.0
    assert 0.0 <= diag.dispersion_p <= 1.0
    assert 0.0 <= diag.zero_inflation_p <= 1.0


def test_zero_inflation_detected():
    # probabilities pinned at 0.5 but every outcome is zero: the expected
    # simulated zero count is n/2, so the ratio sits at 2 and the rank
    # p-value collapses
    n = 400
    fit = manual_fit([0.0], 1)
    design = intercept_design(np.zeros(n))
    diag = simulate_residuals(fit, design, n_sim=250, seed=3)
    assert diag.zero_inflation_ratio == pytest.approx(2.0, abs=0.1)
    assert diag.zero_inflation_p < 0.05
    assert diag.ks_p_value < 0.05  # residuals pile up in [0, 0.5]


def test_well_specified_model_calibrated_single_seed():
    fit, design = fitted_on_simulated(6, n=1000)
    diag = simulate_residuals(fit, design, n_sim=250, seed=11)
    assert diag.ks_p_value > 0.01
    assert diag.dispersion_p > 0.01


def test_dispersion_near_one_large_n():
    fit, design = fitted_on_simulated(7, n=10_000)
    diag = simulate_residuals(fit, design, n_sim=250, seed=2)
    assert diag.dispersion_ratio == pytest.approx(1.0, abs=0.1)


def test_chi_square_uniformity_harness():
    # 100-seed statistical acceptance: residuals of a correctly specified
    # model pass a chi-square uniformity test at alpha=0.01 in >=95 runs
    from scipy import stats as sps

    hits = 0
    for seed in range(100):
        fit, design = fitted_on_simulated(2000 + seed, n=400)
        diag = simulate_residuals(fit, design, n_sim=150, seed=seed)
        counts, _ = np.histogram(diag.scaled_residuals, bins=20, range=(0.0, 1.0))
        p = sps.chisquare(counts).pvalue
        if p > 0.01:
            hits += 1
    assert hits >= 95, f"chi-square uniformity passed in only {hits}/100 seeds"


def test_ks_uniform_equals_scipy_kstest_asymp():
    from scipy import stats as sps

    rng = np.random.default_rng(17)
    samples = [np.array([0.0, 1.0, 1.0, 0.5, 0.25]), np.full(7, 0.5)]
    for i in range(60):
        n = int(rng.integers(5, 5000))
        u = rng.random(n)
        samples.append([u, u**1.5, np.round(u, 2)][i % 3])
    for u in samples:
        expected = sps.kstest(u, "uniform", method="asymp")
        assert ks_uniform(u) == (float(expected.statistic), float(expected.pvalue))


def test_kolmogorov_equals_scipy_bit_for_bit():
    from scipy.special import kolmogorov as scipy_kolmogorov

    # the cut-overs: favfa returns 1.0 up to pi / sqrt(8 * 708.396...)
    # (0.0417); below it scipy has its own cut-over near 0.0406 and, up to
    # 0.0407, a branch for exp(-pi^2 / (8 x^2)) underflowing to 0; the two
    # series meet at 0.82
    edges = [math.pi / math.sqrt(8 * 708.3964185322641), 0.040611972203751713, 0.82]
    points = [0.0, -1.0, -np.inf, math.nan, 40.0, np.inf, 5e-324]
    for edge in edges:
        points += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    grid = np.concatenate(
        [np.linspace(0.0, 8.0, 200_001), np.linspace(0.0400, 0.0420, 2_001), points]
    )
    expected = scipy_kolmogorov(grid)
    got = np.array([kolmogorov(float(x)) for x in grid])
    assert np.array_equal(got, expected, equal_nan=True)


def test_expit_matches_scipy():
    from scipy.special import expit as scipy_expit

    x = np.random.default_rng(5).normal(0.0, 50.0, 200_000)
    expected = scipy_expit(x)
    # both are 1 / (1 + exp(-x)); numpy's exp may differ from the C
    # library's by one ulp (2**-52 relative), and each side rounds the sum
    # and the reciprocal once more (2**-53 relative each)
    assert np.all(np.abs(expit(x) - expected) <= 3 * 2.0**-52 * expected)
    inplace = x.copy()
    assert expit(inplace, out=inplace) is inplace
    assert np.array_equal(inplace, expit(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = expit(np.array([0.0, np.inf, -np.inf, math.nan, 800.0, -800.0]))
    assert np.array_equal(edges, [0.5, 1.0, 0.0, math.nan, 1.0, 0.0], equal_nan=True)


def test_cli_import_does_not_load_scipy_stats():
    # importing scipy would add its cost to every invocation's start-up
    src = str(Path(favfa.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys, favfa.cli; "
        "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules, "
        "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["False", "False", "False"]


#: Modules of the network and mail stack. ``xml.sax.saxutils`` alone pulls
#: in ``urllib.request`` and with it all of these.
NETWORK_STACK = ("xml.sax", "urllib.request", "http", "email", "ssl", "socket")


def test_cli_import_does_not_load_the_network_stack():
    # only the modules favfa.cli adds count: a site hook may preload others
    src = str(Path(favfa.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import sys; before = set(sys.modules); import favfa.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = proc.stdout.split()
    assert "favfa.charts" in added
    assert [m for m in added if m.startswith(NETWORK_STACK)] == []


def full_draw_reference(fit, design, n_sim, seed):
    """The diagnostics with every replicate drawn in one (n_sim, n) call and
    every replicate's residuals materialised: the reference the
    block-by-block draws must reproduce (see ``assert_equals_reference``)."""
    from favfa.diagnostics import ResidualDiagnostics, _rank_p

    x, y = design.X, design.y
    prob = expit(x @ fit.beta)
    rng = np.random.default_rng(seed)
    sims = rng.random((n_sim, len(y))) < prob
    uniform_draw = rng.random(len(y))
    ones_frac = sims.mean(axis=0)
    zeros_frac = 1.0 - ones_frac
    scaled = np.where(y > 0.5, zeros_frac + uniform_draw * ones_frac, uniform_draw * zeros_frac)
    ks_stat, ks_p = ks_uniform(scaled)
    sd = np.sqrt(np.clip(prob * (1.0 - prob), 1e-24, None))
    var_observed = float(((y - prob) / sd).var())
    var_simulated = ((sims - prob) / sd).var(axis=1)
    zero_counts = (~sims).sum(axis=1).astype(float)
    zeros_observed = float(np.count_nonzero(y < 0.5))
    return ResidualDiagnostics(
        scaled_residuals=scaled,
        ks_statistic=ks_stat,
        ks_p_value=ks_p,
        dispersion_ratio=var_observed / float(var_simulated.mean()),
        dispersion_p=_rank_p(var_observed, var_simulated),
        zero_inflation_ratio=zeros_observed / float(zero_counts.mean()),
        zero_inflation_p=_rank_p(zeros_observed, zero_counts),
        n_simulations=n_sim,
        seed=seed,
    )


def assert_equals_reference(got, want):
    """Every field to the bit but ``dispersion_ratio``, which sums the
    replicate residuals in another order: within 1e-12 relative."""
    assert got.dispersion_ratio == pytest.approx(want.dispersion_ratio, rel=1e-12, abs=0.0)
    assert fields(replace(got, dispersion_ratio=0.0)) == fields(replace(want, dispersion_ratio=0.0))


# 20,000 observations take blocks of 2**17 // 20000 = 6 rows, not 64
@pytest.mark.parametrize(
    ("n", "n_sim", "seed"), [(3000, 250, 4), (500, 100, 0), (1200, 193, 8), (20000, 150, 3)]
)
def test_block_draws_equal_one_full_draw(n, n_sim, seed):
    fit, design = fitted_on_simulated(seed + 40, n=n)
    assert_equals_reference(
        simulate_residuals(fit, design, n_sim=n_sim, seed=seed),
        full_draw_reference(fit, design, n_sim, seed),
    )


@pytest.mark.parametrize(("n", "budget"), [(500, 3000), (500, 499), (1200, 7000)])
def test_blocks_sized_by_elements_equal_one_full_draw(monkeypatch, n, budget):
    # blocks of 6 rows, of 2 rows (the budget is below one row, and a block
    # holds at least two; the last of the 101 replicates is a block of one)
    # and of 5 rows
    import favfa.diagnostics

    monkeypatch.setattr(favfa.diagnostics, "_SIM_ELEMENTS", budget)
    fit, design = fitted_on_simulated(n, n=n)
    assert_equals_reference(
        simulate_residuals(fit, design, n_sim=101, seed=n), full_draw_reference(fit, design, 101, n)
    )


def test_clipped_probabilities_equal_one_full_draw():
    # p rounds to 1.0 above eta = 37 and to 0.0 below about -745; below
    # about -55, p (1 - p) is under 1e-24 and sd is clipped to 1e-12. Summed
    # as s / sd - p / sd, the replicate residuals of such rows cancel terms
    # of 1e12 and the variance loses every digit
    rng = np.random.default_rng(12)
    tails = rng.uniform(21.0, 60.0, 400) * rng.choice([-1.0, 1.0], 400)
    eta = np.concatenate([rng.normal(0.0, 1.5, 2600), tails, [800.0, -800.0, 37.5, -37.5]])
    prob = expit(eta)
    assert np.count_nonzero(prob == 1.0) > 50 and np.count_nonzero(prob == 0.0) == 1
    assert np.count_nonzero((prob > 0.0) & (prob < 1e-9)) > 150
    assert np.count_nonzero(prob * (1.0 - prob) < 1e-24) > 50
    y = (rng.random(len(eta)) < prob).astype(float)
    design = DesignMatrix(
        X=np.column_stack([np.ones(len(eta)), eta]), y=y, columns=("intercept", "eta"),
        categorical_columns={}, continuous_columns={}, standardization={},
        subset=Subset.POSITIVES,
    )
    fit = manual_fit([0.0, 1.0], 2)
    assert_equals_reference(
        simulate_residuals(fit, design, n_sim=250, seed=7),
        full_draw_reference(fit, design, 250, 7),
    )
