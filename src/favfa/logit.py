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
from dataclasses import dataclass

import numpy as np

from .anova import r_factor
from .data import CROSS_LEVEL, CovariateFrame, PairFrame, Subset, filter_subset, one_hot
from .errors import (
    ConstantColumn,
    DegenerateResponse,
    EmptySubset,
    NotConverged,
    QuasiSeparation,
    SingularInformation,
    ValueOutOfRange,
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
    frame: PairFrame,
    covs: CovariateFrame,
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
    unit; values too large for a finite mean and standard deviation raise
    ``ValueOutOfRange``.
    """
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
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(raw.mean())
                std = float(raw.std())
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise ValueOutOfRange(
                    f"attribute {attr.name!r}: values too large for a mean and "
                    f"standard deviation over the {subset.value}"
                )
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


#: Observations times resamples in one bootstrap block: a block refits
#: ``max(1, _BOOT_ELEMENTS // n)`` resamples at once.
_BOOT_ELEMENTS = 2**16
#: Arrays of a block's shape held at once at the peak, about: the frequency
#: weights, the linear predictors, and the three arrays of one attribute's
#: effect estimates or of one IRLS pass, with a temporary. The column-product
#: table is built only when it is no larger than these together, that is
#: when a block has at least ``p (p + 1) / (2 * _BOOT_ARRAYS)`` resamples to
#: share it (it pays off only when one product serves several rows: a
#: single fit gains nothing from it), and a block's working set stays within
#: ``2 * _BOOT_ARRAYS * _BOOT_ELEMENTS`` float64 elements (6 MB).
_BOOT_ARRAYS = 6
#: Observations per slice of every product that sums over the observations
#: (see ``_sum_over_rows``).
_INFO_ROWS = 512

# how one row of the IRLS kernel ended
_CONVERGED, _NOT_CONVERGED, _SEPARATED, _GROWING, _SINGULAR = range(5)


@dataclass
class _Fits:
    """IRLS results for a block of frequency-weighted fits, one row each."""

    beta: np.ndarray  # (k, p)
    status: np.ndarray  # (k,) _CONVERGED ... _SINGULAR
    iterations: np.ndarray  # (k,)
    chol: np.ndarray  # (k, p, p) Cholesky factor of the final information matrix
    trace: list[np.ndarray]  # every row's log-likelihood after 0, 1, ... iterations


def expit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)) of an array, elementwise, into
    ``out`` when it is given (which may be ``x`` itself). Exact at 0 and
    +-inf and NaN at NaN; ``exp(-x)`` may overflow to inf for x below about
    -709, which gives 0 without a warning."""
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _log_likelihood(eta: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row of ``eta``, the sum over observations of count * (y*eta -
    log(1 + exp(eta))), with the softplus as max(eta, 0) + log1p(exp(-|eta|))."""
    # in place: the negated terms, softplus(eta) - y*eta, in one array
    terms = np.abs(eta)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    terms += np.maximum(eta, 0.0)
    terms -= eta * y
    terms *= counts
    return -terms.sum(axis=1)


def _column_products(X: np.ndarray) -> np.ndarray:
    """Products of every pair of design columns, in ``np.triu_indices`` order,
    so that a block's information matrices are one product of its weights
    with this table."""
    n, p = X.shape
    table = np.empty((n, p * (p + 1) // 2))
    start = 0
    for i in range(p):
        np.multiply(X[:, i : i + 1], X[:, i:], out=table[:, start : start + p - i])
        start += p - i
    return table


def _sum_over_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, where ``a``'s last axis and ``b``'s rows are the
    observations, as the sum of the products of fixed ``_INFO_ROWS`` slices
    of them, in order. One product over all n observations is a GEMM or GEMV
    whose summation order, and so whose last bits, follow the OpenBLAS thread
    count."""
    out = a[..., :_INFO_ROWS] @ b[:_INFO_ROWS]
    for start in range(_INFO_ROWS, len(b), _INFO_ROWS):
        out += a[..., start : start + _INFO_ROWS] @ b[start : start + _INFO_ROWS]
    return out


def _information(X: np.ndarray, weights: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """Information matrices ``X' diag(w) X``, one per row ``w`` of ``weights``."""
    if table is None:
        return np.stack([_sum_over_rows((X * w[:, None]).T, X) for w in weights])
    p = X.shape[1]
    upper = _sum_over_rows(weights, table)
    info = np.empty((len(weights), p, p))
    i, j = np.triu_indices(p)
    info[:, i, j] = upper
    info[:, j, i] = upper
    return info


def _cholesky(info: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of stacked information matrices, and a mask of
    those that factorized; a failure means collinear design columns."""
    try:
        return np.linalg.cholesky(info), np.ones(len(info), dtype=bool)
    except np.linalg.LinAlgError:
        # numpy rejects the whole stack when one matrix fails: find which
        chol, ok = np.zeros_like(info), np.ones(len(info), dtype=bool)
        for r, matrix in enumerate(info):
            try:
                chol[r] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                ok[r] = False
        return chol, ok


def _irls(
    X: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    max_iter: int,
    tol: float,
    table: np.ndarray | None = None,
) -> _Fits:
    """Logit fits of ``y`` on ``X``, one per row of frequency weights
    ``counts``, by IRLS over the whole block at once.

    Each row iterates as a fit on its own would: Newton steps from zero,
    halved while the log-likelihood falls, converged once the score's max
    norm is below ``tol``. A coefficient beyond ``COEF_LIMIT`` (separated),
    coefficients still growing at ``max_iter`` (growing), or an information
    matrix that does not factorize (singular) end the row early; rows leave
    the block as they finish. With ``table`` (``_column_products(X)``) the
    information matrices are one matrix product, else one per row.
    """
    k, (n, p) = len(counts), X.shape
    fits = _Fits(
        beta=np.zeros((k, p)),
        status=np.full(k, _NOT_CONVERGED),
        iterations=np.zeros(k, dtype=np.intp),
        chol=np.zeros((k, p, p)),
        trace=[],
    )
    # state of the rows still iterating; ``rows`` maps them to block rows
    rows = np.arange(k)
    beta = fits.beta.copy()
    eta = np.zeros((k, n))
    ll = _log_likelihood(eta, y, counts)
    lls = ll.copy()
    fits.trace.append(lls.copy())
    prev_norm, growing = np.zeros(k), np.zeros(k, dtype=bool)

    for it in range(max_iter + 1):
        # the block-sized arrays are dropped as soon as they are used up
        mu = expit(eta, out=eta)
        del eta
        resid = y - mu
        resid *= counts
        grad = _sum_over_rows(resid, X)
        converged = np.max(np.abs(grad), axis=1) < tol
        # the weights mu * (1 - mu) * counts, in the residuals' place
        np.subtract(1.0, mu, out=resid)
        resid *= mu
        resid *= counts
        del mu
        chol, ok = _cholesky(_information(X, resid, table))
        del resid
        status = np.where(converged, _CONVERGED, _NOT_CONVERGED)
        status[~ok] = _SINGULAR
        finished = converged | ~ok
        if it == max_iter:
            # separation is judged before the final covariance is factorized
            status[~converged & growing] = _GROWING
            finished[:] = True
        done = rows[finished]
        fits.status[done] = status[finished]
        fits.chol[done] = chol[finished]
        if finished.all():
            break
        if finished.any():
            go = ~finished
            rows, counts, beta, ll = rows[go], counts[go], beta[go], ll[go]
            prev_norm, grad, chol = prev_norm[go], grad[go], chol[go]

        half = np.linalg.solve(chol, grad[:, :, None])
        delta = np.linalg.solve(chol.transpose(0, 2, 1), half)[:, :, 0]
        # relative slack: a log-likelihood summed over many rows carries
        # rounding noise far above any fixed absolute tolerance
        floor = ll - 1e-12 * np.maximum(1.0, np.abs(ll))
        step = np.ones(len(rows))
        candidate = beta + delta
        eta = candidate @ X.T
        ll = _log_likelihood(eta, y, counts)
        short = ~(ll >= floor)
        for _ in range(39):
            if not short.any():
                break
            h = np.flatnonzero(short)
            step[h] /= 2
            candidate[h] = beta[h] + step[h, None] * delta[h]
            eta[h] = candidate[h] @ X.T
            ll[h] = _log_likelihood(eta[h], y, counts[h])
            short[h] = ~(ll[h] >= floor[h])
        beta = candidate
        fits.beta[rows] = beta
        fits.iterations[rows] += 1
        lls[rows] = ll
        fits.trace.append(lls.copy())

        separated = np.max(np.abs(beta), axis=1) > COEF_LIMIT
        fits.status[rows[separated]] = _SEPARATED
        norm = np.linalg.norm(beta, axis=1)
        growing = norm > prev_norm
        prev_norm = norm
        if separated.any():
            if separated.all():
                break
            go = ~separated
            rows, counts, beta, eta, ll = rows[go], counts[go], beta[go], eta[go], ll[go]
            prev_norm, growing = prev_norm[go], growing[go]
    return fits


def _too_few_rows(design: DesignMatrix) -> DegenerateResponse:
    n, p = design.X.shape
    return DegenerateResponse(f"{design.subset.value}: need more rows ({n}) than columns ({p})")


def fit_logit(design: DesignMatrix, max_iter: int = 50, tol: float = 1e-8) -> LogitFit:
    """Maximum-likelihood logit fit by iteratively reweighted least squares.

    Newton steps on the log-likelihood with step-halving whenever a full step
    would decrease it, declared converged when the score vector's max norm
    drops below ``tol``. The covariance is the inverse Hessian of the negative
    log-likelihood at the estimate. Diverging coefficients (|beta| beyond
    ``COEF_LIMIT``, or growth until ``max_iter``) raise QuasiSeparation since
    no MLE exists under separation. The fit is the bootstrap's IRLS kernel
    run on one row of unit frequency weights. A design whose columns are
    linearly dependent raises SingularInformation before any iteration.
    """
    X, y = design.X, design.y
    n, p = X.shape
    if n <= p:
        raise _too_few_rows(design)
    if y.min() == y.max():
        raise DegenerateResponse(
            f"{design.subset.value}: response takes a single value; no model to fit"
        )
    # rank is decided once, on X, with lstsq's cut-off: the information
    # matrix of a dependent design may still factorize through rounding
    singular = np.linalg.svd(r_factor(X), compute_uv=False)
    if not singular[-1] > np.finfo(float).eps * n * singular[0]:
        raise SingularInformation(f"{design.subset.value}: design columns are linearly dependent")

    fits = _irls(X, y, np.ones((1, n)), max_iter, tol)
    status, iterations = fits.status[0], int(fits.iterations[0])
    if status == _SEPARATED:
        raise QuasiSeparation(
            f"coefficient magnitude exceeded {COEF_LIMIT} after {iterations} iterations"
        )
    if status == _GROWING:
        raise QuasiSeparation(
            f"no convergence after {max_iter} iterations with growing coefficients"
        )
    if status == _SINGULAR:
        raise SingularInformation("weighted normal equations are rank-deficient")

    chol = fits.chol[0]
    covariance = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(p)))
    covariance = (covariance + covariance.T) / 2
    trace = tuple(float(ll[0]) for ll in fits.trace[: iterations + 1])
    return LogitFit(
        beta=fits.beta[0],
        covariance=covariance,
        log_likelihood=trace[-1],
        iterations=iterations,
        converged=status == _CONVERGED,
        columns=design.columns,
        ll_trace=trace,
    )


def _two_sided_p(estimate: float, std_error: float) -> float:
    if std_error <= 0:
        return 1.0 if estimate == 0 else 0.0
    return math.erfc(abs(estimate / std_error) / math.sqrt(2))


def _weighted_mean(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row, the mean over observations weighted by their frequencies."""
    return (counts * values).sum(axis=1) / values.shape[1]


def _effects(
    X: np.ndarray,
    B: np.ndarray,
    counts: np.ndarray,
    design: DesignMatrix,
    schema: AttributeSchema,
    gradients: bool,
) -> list[tuple[AttributeDef, str | None, np.ndarray, np.ndarray | None]]:
    """Mean marginal effects as shifts of one linear predictor per fit.

    Each row of ``B`` is a fit's coefficients and the same row of ``counts``
    the frequency weights its means run over (ones for the sample itself, a
    resample's draw counts in the bootstrap). One ``(attribute, level,
    estimates, gradients)`` entry per effect, in schema order and then
    design-column order, with one estimate per fit; ``level`` is None for a
    continuous attribute. The gradients with respect to the coefficients
    (for the delta method), one row per fit, are computed only when
    ``gradients`` is set, and are None otherwise.
    """
    n = X.shape[0]
    eta = B @ X.T
    mu = d1 = None  # needed by continuous attributes only
    out: list[tuple[AttributeDef, str | None, np.ndarray, np.ndarray | None]] = []
    for attr in schema.attributes:
        if attr.is_categorical:
            # every row moved to each level against every row moved to the
            # reference, which is ``eta`` less the attribute's own terms
            col_map = design.categorical_columns[attr.name]
            idxs = list(col_map.values())
            eta_ref = B[:, idxs] @ X[:, idxs].T
            np.subtract(eta, eta_ref, out=eta_ref)
            mu_ref = expit(eta_ref)
            if gradients:
                d_ref = mu_ref * (1.0 - mu_ref)
            for level, j in col_map.items():
                # in place, so that a block holds few arrays of its shape
                mu_lvl = eta_ref + B[:, j : j + 1]
                expit(mu_lvl, out=mu_lvl)
                grad = None
                if gradients:
                    d_lvl = mu_lvl * (1.0 - mu_lvl)
                    grad = _sum_over_rows(counts * (d_lvl - d_ref), X) / n
                    grad[:, idxs] = 0.0
                    grad[:, j] = _weighted_mean(d_lvl, counts)
                mu_lvl -= mu_ref
                mu_lvl *= counts
                out.append((attr, level, mu_lvl.sum(axis=1) / n, grad))
        else:
            j = design.continuous_columns[attr.name]
            _, scale = design.standardization[attr.name]
            if d1 is None:
                mu = expit(eta)
                d1 = mu * (1.0 - mu)
            grad = None
            if gradients:
                d2 = d1 * (1.0 - 2.0 * mu)
                grad = B[:, j : j + 1] * _sum_over_rows(counts * d2, X) / n / scale
                grad[:, j] += _weighted_mean(d1, counts) / scale
            out.append((attr, None, B[:, j] * _weighted_mean(d1, counts) / scale, grad))
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
    for attr, level, estimates, grads in _effects(
        design.X, fit.beta[None], np.ones((1, design.n)), design, schema, gradients=True
    ):
        estimate, grad = float(estimates[0]), grads[0]
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
    seed-derived streams. A resample is not copied: it is a row of frequency
    weights, how often each observation was drawn. Resamples are refitted a
    block at a time (about ``_BOOT_ELEMENTS`` observations times resamples)
    by the IRLS kernel that ``fit_logit`` runs on one row of unit weights,
    so a resample is used when ``fit_logit`` on a copy of its rows would
    converge. Only the effect estimates are recomputed, as count-weighted
    means of shifts of each refit's ``X @ beta`` (no gradients or standard
    errors per resample). Resamples that lose a dummy level, lose the
    response variation, hit separation or do not converge are skipped.
    Returns the per-effect standard deviations (ddof=1) and the number of
    resamples actually used; an effect with fewer than two usable resamples
    has no standard error and is left out.
    """
    X, y = design.X, design.y
    n, p = X.shape
    children = np.random.SeedSequence(seed).spawn(n_boot)
    dummy_cols = [j for cols in design.categorical_columns.values() for j in cols.values()]
    block = max(1, _BOOT_ELEMENTS // n)
    table = _column_products(X) if p * (p + 1) // 2 <= _BOOT_ARRAYS * block else None
    keys: list[tuple[str, str | None]] = []
    estimates: list[np.ndarray] = []  # (used resamples of a block, effects)
    for start in range(0, n_boot, block):
        draws = children[start : start + block]
        counts = np.empty((len(draws), n))
        for row, child in zip(counts, draws):
            row[:] = np.bincount(np.random.default_rng(child).integers(0, n, size=n), minlength=n)
        positives = counts @ y
        usable = (positives > 0) & (positives < n)
        usable &= (counts @ X[:, dummy_cols] > 0).all(axis=1)
        if not usable.any():
            continue
        if n <= p:
            raise _too_few_rows(design)
        counts = counts[usable]
        fits = _irls(X, y, counts, max_iter, tol, table)
        converged = fits.status == _CONVERGED
        counts = counts[converged]
        effects = _effects(X, fits.beta[converged], counts, design, schema, gradients=False)
        keys = [(attr.name, level) for attr, level, _, _ in effects]
        estimates.append(np.column_stack([values for _, _, values, _ in effects]))

    samples = np.concatenate(estimates) if estimates else np.empty((0, 0))
    if len(samples) < 2:
        return {}, len(samples)
    ses = {key: float(samples[:, e].std(ddof=1)) for e, key in enumerate(keys)}
    return ses, len(samples)


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
