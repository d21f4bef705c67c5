from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
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


def extreme_eta_design():
    """Linear predictors out to +-800 under the identity fit: p rounds to
    1.0 above eta = 37 and to 0.0 below about -745, and below about -55
    p (1 - p) is under 1e-24 and clipped. The last four rows take their
    unlikely outcome, so clipped variances divide their Pearson terms."""
    rng = np.random.default_rng(12)
    tails = rng.uniform(21.0, 60.0, 400) * rng.choice([-1.0, 1.0], 400)
    eta = np.concatenate([rng.normal(0.0, 1.5, 2600), tails, [800.0, -800.0, 37.5, -37.5]])
    prob = expit(eta)
    assert np.count_nonzero(prob == 1.0) > 50 and np.count_nonzero(prob == 0.0) == 1
    assert np.count_nonzero((prob > 0.0) & (prob < 1e-9)) > 150
    assert np.count_nonzero(prob * (1.0 - prob) < 1e-24) > 50
    y = (rng.random(len(eta)) < prob).astype(float)
    y[-4:] = [0.0, 1.0, 0.0, 1.0]
    design = DesignMatrix(
        X=np.column_stack([np.ones(len(eta)), eta]), y=y, columns=("intercept", "eta"),
        categorical_columns={}, continuous_columns={}, standardization={},
        subset=Subset.POSITIVES,
    )
    return manual_fit([0.0, 1.0], 2), design


def misfit_design():
    """A fit whose slope is three times the one that generated the data:
    the Pearson statistic sits far from its null mean."""
    fit, design = fitted_on_simulated(8, n=2000)
    return manual_fit([fit.beta[0], 3.0 * fit.beta[1]], 2), design


CASES = {
    "fitted": lambda: fitted_on_simulated(5, n=3000),
    "extreme-eta": extreme_eta_design,
    "misfit": misfit_design,
}


def test_bit_reproducible_with_fixed_seed():
    fit, design = fitted_on_simulated(1)
    a = simulate_residuals(fit, design, seed=9)
    b = simulate_residuals(fit, design, seed=9)
    assert fields(a) == fields(b)
    c = simulate_residuals(fit, design, seed=10)
    assert fields(c)["scaled_residuals"] != fields(a)["scaled_residuals"]


def test_not_converged_rejected():
    fit, design = fitted_on_simulated(3)
    fit.converged = False
    with pytest.raises(NotConverged):
        simulate_residuals(fit, design, seed=0)


def test_residuals_bounded():
    fit, design = fitted_on_simulated(4)
    diag = simulate_residuals(fit, design, seed=5)
    assert all(0.0 <= u <= 1.0 for u in diag.scaled_residuals)
    assert 0.0 <= diag.ks_p_value <= 1.0
    assert 0.0 <= diag.dispersion_p <= 1.0


def test_all_zero_outcomes_rejected_by_ks():
    # probabilities pinned at 0.5 but every outcome is zero: the residuals
    # pile up in [0, 0.5]. Every Pearson term is 1, so X^2 = n, with zero
    # null variance
    n = 400
    fit = manual_fit([0.0], 1)
    design = intercept_design(np.zeros(n))
    diag = simulate_residuals(fit, design, seed=3)
    assert diag.ks_p_value < 0.05
    assert (diag.dispersion_ratio, diag.dispersion_p) == (1.0, 1.0)


def test_well_specified_model_calibrated_single_seed():
    fit, design = fitted_on_simulated(6, n=1000)
    diag = simulate_residuals(fit, design, seed=11)
    assert diag.ks_p_value > 0.01
    assert diag.dispersion_p > 0.01


def test_dispersion_near_one_large_n():
    fit, design = fitted_on_simulated(7, n=10_000)
    diag = simulate_residuals(fit, design, seed=2)
    assert diag.dispersion_ratio == pytest.approx(1.0, abs=0.1)


def test_chi_square_uniformity_harness():
    # 100-seed statistical acceptance: residuals of a correctly specified
    # model pass a chi-square uniformity test at alpha=0.01 in >=95 runs
    from scipy import stats as sps

    hits = 0
    for seed in range(100):
        fit, design = fitted_on_simulated(2000 + seed, n=400)
        diag = simulate_residuals(fit, design, seed=seed)
        counts, _ = np.histogram(diag.scaled_residuals, bins=20, range=(0.0, 1.0))
        p = sps.chisquare(counts).pvalue
        if p > 0.01:
            hits += 1
    assert hits >= 95, f"chi-square uniformity passed in only {hits}/100 seeds"


@pytest.mark.parametrize("case", sorted(CASES))
def test_residual_equals_closed_form_row_by_row(case):
    fit, design = CASES[case]()
    diag = simulate_residuals(fit, design, seed=21)
    prob = expit(design.X @ fit.beta).tolist()
    u = np.random.default_rng(21).random(len(prob)).tolist()
    want = [
        (1.0 - p) + u_i * p if y_i == 1.0 else u_i * (1.0 - p)
        for p, u_i, y_i in zip(prob, u, design.y.tolist())
    ]
    assert diag.scaled_residuals.tolist() == want


def test_extreme_eta_residuals_bounded_and_dispersion_finite():
    fit, design = extreme_eta_design()
    diag = simulate_residuals(fit, design, seed=7)
    assert np.all((diag.scaled_residuals >= 0.0) & (diag.scaled_residuals <= 1.0))
    assert math.isfinite(diag.dispersion_ratio) and diag.dispersion_ratio > 0.0
    assert math.isfinite(diag.dispersion_p) and 0.0 <= diag.dispersion_p <= 1.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_dispersion_equals_scipy_reference(case):
    from scipy.stats import norm

    fit, design = CASES[case]()
    diag = simulate_residuals(fit, design, seed=0)
    prob = expit(design.X @ fit.beta).tolist()
    variance = [max(p * (1.0 - p), 1e-24) for p in prob]
    pearson = math.fsum((y - p) ** 2 / v for y, p, v in zip(design.y.tolist(), prob, variance))
    spread = math.sqrt(math.fsum((1.0 - 2.0 * p) ** 2 / v for p, v in zip(prob, variance)))
    n = len(prob)
    assert diag.dispersion_ratio == pytest.approx(pearson / n, rel=1e-12, abs=0.0)
    assert diag.dispersion_p == pytest.approx(
        2.0 * norm.sf(abs(pearson - n) / spread), rel=1e-9, abs=1e-300
    )


def test_large_n_well_specified_model_not_rejected():
    # a logit with an intercept, a 4-level factor and a normal covariate,
    # P(y = 1) about 0.9, at n = 500,000: the simulated residuals' Monte
    # Carlo error was enough for KS to reject such fits at 0.05 about half
    # the time
    n = 500_000
    rng = np.random.default_rng(0)
    level = rng.integers(0, 4, n)
    x = np.column_stack([np.ones(n), level == 1, level == 2, level == 3, rng.normal(size=n)])
    y = (rng.random(n) < expit(x @ np.array([2.0, 0.3, -0.2, 0.5, 0.4]))).astype(float)
    design = DesignMatrix(
        X=x, y=y, columns=("intercept", "f1", "f2", "f3", "z"), categorical_columns={},
        continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
    )
    diag = simulate_residuals(fit_logit(design), design, seed=0)
    assert diag.ks_p_value > 0.05
    assert diag.dispersion_p > 0.05


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
    # the package holds what the CLI runs: test-support code lives in tests/
    package = Path(favfa.__file__).parent
    modules = {"favfa." + f.stem for f in package.glob("*.py") if f.stem != "__init__"}
    assert sorted(modules - set(added)) == []
