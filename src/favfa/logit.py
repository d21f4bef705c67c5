"""Logit regressions over verification outcomes, fitted from scratch by IRLS.

The positive-pair model explains correct matches (true-match rate), the
negative-pair model explains false matches (false-match rate). Categorical
covariates are dummy-coded against their reference level; continuous ones
are standardized internally and reported per original unit. Mean marginal
effects translate coefficients into probability-point gaps relative to the
reference group, with delta-method standard errors and an optional
nonparametric bootstrap as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.special import expit

from .data import (
    CROSS_LEVEL,
    PairCovariates,
    PairFrame,
    PairRecord,
    Subset,
    filter_subset,
    one_hot,
    pair_columns,
)
from .errors import (
    ConstantColumn,
    DegenerateResponse,
    EmptySubset,
    NotConverged,
    QuasiSeparation,
    SingularInformation,
)
from .metrics import predicted_same
from .schema import AttributeDef, AttributeSchema

#: Any coefficient beyond this magnitude (log-odds) is treated as separation.
COEF_LIMIT = 30.0


@dataclass
class DesignMatrix:
    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    categorical_columns: dict[str, dict[str, int]]
    continuous_columns: dict[str, int]
    standardization: dict[str, tuple[float, float]]
    subset: Subset

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class LogitFit:
    beta: np.ndarray
    covariance: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    columns: tuple[str, ...]
    ll_trace: tuple[float, ...]


@dataclass(frozen=True)
class MarginalEffect:
    attribute: str
    level: str | None  # None for continuous attributes
    unit: str | None  # None for categorical attributes
    estimate: float
    std_error: float
    p_value: float
    significant: bool


def build_design(
    pairs: PairFrame | Sequence[PairRecord],
    covariates: Mapping[str, PairCovariates],
    schema: AttributeSchema,
    subset: Subset,
    threshold: float | None = None,
) -> DesignMatrix:
    """Design matrix for one outcome model.

    Rows are the pairs whose ground truth matches ``subset``; the response is
    1 iff the pair was predicted same-identity. Every non-reference schema
    level gets a dummy column, one-hot from the attribute's level codes, and
    must occur in the subset; the ``Cross`` sentinel gets a column only when
    observed. Continuous covariates are standardized to zero mean and unit
    variance, with the constants kept for reporting effects per original
    unit.
    """
    frame, covs = pair_columns(pairs, covariates)
    rows = filter_subset(frame, subset)
    if not rows.any():
        raise EmptySubset(f"no pairs with ground truth {subset.ground_truth.value!r}")
    y = predicted_same(frame, threshold, rows).astype(float)

    n = len(y)
    columns = ["intercept"]
    blocks = [np.ones(n)]
    categorical_columns: dict[str, dict[str, int]] = {}
    continuous_columns: dict[str, int] = {}
    standardization: dict[str, tuple[float, float]] = {}

    for attr in schema.attributes:
        if attr.is_categorical:
            col = covs.categorical[attr.name]
            codes = col.codes[rows]
            level_order = [l for l in attr.levels if l != attr.reference]
            cross = col.code(CROSS_LEVEL)
            if cross >= 0 and (codes == cross).any():
                level_order.append(CROSS_LEVEL)
            block = one_hot(codes, [col.code(level) for level in level_order])
            col_map: dict[str, int] = {}
            for level, count in zip(level_order, block.sum(axis=0)):
                if count == 0:
                    raise ConstantColumn(f"{attr.name}={level}")
                col_map[level] = len(columns)
                columns.append(f"{attr.name}={level}")
            blocks.append(block)
            categorical_columns[attr.name] = col_map
        else:
            raw = covs.continuous[attr.name][rows]
            mean = float(raw.mean())
            std = float(raw.std())
            if std == 0.0:
                raise ConstantColumn(attr.name)
            continuous_columns[attr.name] = len(columns)
            standardization[attr.name] = (mean, std)
            columns.append(attr.name)
            blocks.append((raw - mean) / std)

    return DesignMatrix(
        X=np.column_stack(blocks),
        y=y,
        columns=tuple(columns),
        categorical_columns=categorical_columns,
        continuous_columns=continuous_columns,
        standardization=standardization,
        subset=subset,
    )


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # sum over rows of y*eta - log(1 + exp(eta)), computed stably
    return float(np.dot(y, eta) - np.sum(np.logaddexp(0.0, eta)))


def _solve_spd(hessian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve against the (symmetric positive-definite) information matrix via
    Cholesky; a failed factorization means collinear design columns."""
    try:
        chol = np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("weighted normal equations are rank-deficient") from exc
    half = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, half)


def fit_logit(design: DesignMatrix, max_iter: int = 50, tol: float = 1e-8) -> LogitFit:
    """Maximum-likelihood logit fit by iteratively reweighted least squares.

    Newton steps on the log-likelihood with step-halving whenever a full step
    would decrease it, declared converged when the score vector's max norm
    drops below ``tol``. The covariance is the inverse Hessian of the negative
    log-likelihood at the estimate. Diverging coefficients (|beta| beyond
    ``COEF_LIMIT``, or growth until ``max_iter``) raise QuasiSeparation since
    no MLE exists under separation.
    """
    X, y = design.X, design.y
    n, p = X.shape
    if n <= p:
        raise DegenerateResponse(
            f"{design.subset.value}: need more rows ({n}) than columns ({p})"
        )
    if y.min() == y.max():
        raise DegenerateResponse(
            f"{design.subset.value}: response takes a single value; no model to fit"
        )

    beta = np.zeros(p)
    eta = X @ beta
    mu = expit(eta)
    ll = _log_likelihood(eta, y)
    trace = [ll]
    converged = False
    iterations = 0
    prev_norm = 0.0
    growing = False

    for _ in range(max_iter):
        grad = X.T @ (y - mu)
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        w = mu * (1.0 - mu)
        hessian = (X * w[:, None]).T @ X
        delta = _solve_spd(hessian, grad)

        step = 1.0
        for _ in range(40):
            candidate = beta + step * delta
            eta_c = X @ candidate
            ll_c = _log_likelihood(eta_c, y)
            # relative slack: a log-likelihood summed over many rows carries
            # rounding noise far above any fixed absolute tolerance
            if ll_c >= ll - 1e-12 * max(1.0, abs(ll)):
                break
            step /= 2
        beta, eta, ll = candidate, eta_c, ll_c
        mu = expit(eta)
        iterations += 1
        trace.append(ll)
        if np.max(np.abs(beta)) > COEF_LIMIT:
            raise QuasiSeparation(
                f"coefficient magnitude exceeded {COEF_LIMIT} after "
                f"{iterations} iterations"
            )
        norm = float(np.linalg.norm(beta))
        growing = norm > prev_norm
        prev_norm = norm
    else:
        grad = X.T @ (y - mu)
        if np.max(np.abs(grad)) < tol:
            converged = True
        elif growing:
            raise QuasiSeparation(
                f"no convergence after {max_iter} iterations with growing coefficients"
            )

    w = mu * (1.0 - mu)
    hessian = (X * w[:, None]).T @ X
    covariance = _solve_spd(hessian, np.eye(p))
    covariance = (covariance + covariance.T) / 2

    return LogitFit(
        beta=beta,
        covariance=covariance,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        columns=design.columns,
        ll_trace=tuple(trace),
    )


def _two_sided_p(estimate: float, std_error: float) -> float:
    if std_error <= 0:
        return 1.0 if estimate == 0 else 0.0
    return math.erfc(abs(estimate / std_error) / math.sqrt(2))


def _effects(
    X: np.ndarray,
    beta: np.ndarray,
    design: DesignMatrix,
    schema: AttributeSchema,
    gradients: bool,
) -> list[tuple[AttributeDef, str | None, float, np.ndarray | None]]:
    """Mean marginal effects as shifts of one linear predictor ``X @ beta``.

    One ``(attribute, level, estimate, gradient)`` row per effect, in schema
    order and then design-column order; ``level`` is None for a continuous
    attribute. The gradient with respect to ``beta`` (for the delta method)
    is computed only when ``gradients`` is set, and is None otherwise.
    """
    n = X.shape[0]
    eta = X @ beta
    mu = expit(eta)
    d1 = mu * (1.0 - mu)
    out: list[tuple[AttributeDef, str | None, float, np.ndarray | None]] = []
    for attr in schema.attributes:
        if attr.is_categorical:
            # every row at the reference level: drop the attribute's terms
            col_map = design.categorical_columns[attr.name]
            idxs = list(col_map.values())
            eta_ref = eta - X[:, idxs] @ beta[idxs]
            mu_ref = expit(eta_ref)
            d_ref = mu_ref * (1.0 - mu_ref)
            for level, j in col_map.items():
                mu_lvl = expit(eta_ref + beta[j])
                grad = None
                if gradients:
                    d_lvl = mu_lvl * (1.0 - mu_lvl)
                    grad = ((d_lvl - d_ref) @ X) / n
                    grad[idxs] = 0.0
                    grad[j] = d_lvl.mean()
                out.append((attr, level, float(np.mean(mu_lvl - mu_ref)), grad))
        else:
            j = design.continuous_columns[attr.name]
            _, scale = design.standardization[attr.name]
            grad = None
            if gradients:
                d2 = d1 * (1.0 - 2.0 * mu)
                grad = beta[j] * (d2 @ X) / n / scale
                grad[j] += float(d1.mean()) / scale
            out.append((attr, None, float(beta[j] * d1.mean() / scale), grad))
    return out


def marginal_effects(
    fit: LogitFit,
    design: DesignMatrix,
    schema: AttributeSchema,
    alpha: float = 0.05,
) -> list[MarginalEffect]:
    """Mean marginal effects of every covariate, in probability points.

    Every effect is a shift of the one linear predictor ``eta = X @ beta``.
    For a categorical level, the average over rows of sigma(eta_ref +
    beta_level) - sigma(eta_ref), where ``eta_ref`` is ``eta`` less the
    attribute's own dummy terms: each row moved to that level and to the
    reference, everything else held fixed. For a continuous attribute, the
    average derivative of the response probability, rescaled to one original
    unit. Standard errors come from the delta method on the fit covariance,
    with the gradient of each effect taken analytically from the same
    ``eta``; p-values from the two-sided normal test.
    """
    if not fit.converged:
        raise NotConverged("marginal effects need a converged fit")
    cov = fit.covariance
    out: list[MarginalEffect] = []
    for attr, level, estimate, grad in _effects(
        design.X, fit.beta, design, schema, gradients=True
    ):
        std_error = math.sqrt(max(float(grad @ cov @ grad), 0.0))
        p_value = _two_sided_p(estimate, std_error)
        out.append(
            MarginalEffect(
                attribute=attr.name,
                level=level,
                unit=None if attr.is_categorical else attr.kind.unit,
                estimate=estimate,
                std_error=std_error,
                p_value=p_value,
                significant=p_value < alpha,
            )
        )
    return out


def effect_key(effect: MarginalEffect) -> tuple[str, str | None]:
    return (effect.attribute, effect.level)


def bootstrap_marginal_effects(
    design: DesignMatrix,
    schema: AttributeSchema,
    n_boot: int = 500,
    seed: int = 0,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> tuple[dict[tuple[str, str | None], float], int]:
    """Bootstrap standard errors for the mean marginal effects.

    Rows are resampled with replacement ``n_boot`` times on independent
    seed-derived streams; the model is refitted on each resample and only
    the effect estimates are recomputed, as shifts of the refit's ``X @
    beta`` (no gradients or standard errors per resample). Resamples that
    lose a dummy level, lose the response variation, or hit separation are
    skipped. Returns the per-effect standard deviations (ddof=1) and the
    number of resamples actually used; an effect with fewer than two usable
    resamples has no standard error and is left out.
    """
    children = np.random.SeedSequence(seed).spawn(n_boot)
    dummy_cols = [j for cols in design.categorical_columns.values() for j in cols.values()]
    samples: dict[tuple[str, str | None], list[float]] = {}
    used = 0
    n = design.n
    for child in children:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        xb, yb = design.X[idx], design.y[idx]
        if yb.min() == yb.max():
            continue
        if (xb[:, dummy_cols].sum(axis=0) == 0).any():
            continue
        try:
            fit_b = fit_logit(replace(design, X=xb, y=yb), max_iter=max_iter, tol=tol)
        except (QuasiSeparation, SingularInformation):
            continue
        if not fit_b.converged:
            continue
        for attr, level, estimate, _ in _effects(xb, fit_b.beta, design, schema, gradients=False):
            samples.setdefault((attr.name, level), []).append(estimate)
        used += 1

    ses = {
        key: float(np.array(values).std(ddof=1))
        for key, values in samples.items()
        if len(values) > 1
    }
    return ses, used


def summarize_fit(fit: LogitFit) -> list[dict[str, object]]:
    """Per-term rows (term, estimate, std_error, z, p_value) for reporting."""
    ses = np.sqrt(np.clip(np.diag(fit.covariance), 0.0, None))
    rows = []
    for term, estimate, se in zip(fit.columns, fit.beta, ses):
        if se > 0:
            z = float(estimate / se)
        else:
            z = 0.0 if estimate == 0 else math.copysign(math.inf, estimate)
        rows.append(
            {
                "term": term,
                "estimate": float(estimate),
                "std_error": float(se),
                "z": z,
                "p_value": _two_sided_p(float(estimate), float(se)),
            }
        )
    return rows


def interpret(effect: MarginalEffect, schema: AttributeSchema, model: str = "fmr") -> str:
    """Plain-language sentence for one marginal effect.

    ``model`` selects the outcome wording: "fmr" narrates wrong matches on
    negative pairs, "tmr" correct matches on positive pairs.
    """
    outcome = "wrongly matched" if model == "fmr" else "correctly matched"
    if effect.level is not None:
        reference = schema[effect.attribute].reference
        direction = "more" if effect.estimate >= 0 else "less"
        points = f"{abs(effect.estimate) * 100:.0f}"
        sentence = (
            f"On average and other things being equal, two people from the "
            f"{effect.level} subgroup are {points} points {direction} likely to be "
            f"{outcome} than two people from the {reference} subgroup."
        )
    else:
        sentence = (
            f"On average and other things being equal, one additional {effect.unit} "
            f"of {effect.attribute} changes the probability of being {outcome} by "
            f"{effect.estimate * 100:+.2f} points."
        )
    if not effect.significant:
        sentence += " (not statistically significant)"
    return sentence
