"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions, without reusing library
code paths: plain dict tallies, loop-based sweeps, mpmath for high-precision
constants, and pinv-projection regressions. Group metrics mirror the library
formulas term by term (over canonically sorted groups) so integer-count
inputs reproduce exactly. The logit fit and its bootstrap are kept as they
were computed on row copies of each resample, before frequency weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np
from scipy.special import expit

from favfa.errors import DegenerateResponse, QuasiSeparation, SingularInformation

COEF_LIMIT = 30.0


def tally_groups(rows):
    """rows: (group_key_tuple, is_positive, said_same) -> {key: counts dict}.

    Keys are sorted canonically (tuple string order), matching the library's
    group ordering.
    """
    tallies = {}
    for key, is_positive, said_same in rows:
        c = tallies.setdefault(key, {"tp": 0, "fp": 0, "tn": 0, "fn": 0})
        if is_positive and said_same:
            c["tp"] += 1
        elif is_positive:
            c["fn"] += 1
        elif said_same:
            c["fp"] += 1
        else:
            c["tn"] += 1
    return dict(sorted(tallies.items()))


def group_rates(counts):
    n_pos = counts["tp"] + counts["fn"]
    n_neg = counts["fp"] + counts["tn"]
    n = n_pos + n_neg
    return {
        "n_pos": n_pos,
        "n_neg": n_neg,
        "tmr": counts["tp"] / n_pos if n_pos > 0 else None,
        "fmr": counts["fp"] / n_neg if n_neg > 0 else None,
        "accuracy": (counts["tp"] + counts["tn"]) / n,
        "selection_rate": (counts["tp"] + counts["fp"]) / n,
    }


def fairness_metrics(tallies, min_support=0):
    """The six aggregates over groups meeting min_support, or None when a
    metric's precondition fails (fewer than two usable groups)."""
    rates = [
        group_rates(c)
        for c in tallies.values()
        if c["tp"] + c["fp"] + c["tn"] + c["fn"] >= min_support
    ]
    out = {}
    if rates:
        accs = [r["accuracy"] for r in rates]
        mean = sum(accs) / len(accs)
        out["dob"] = math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs))
        out["micro"] = sum(accs) / len(accs)
    else:
        out["dob"] = out["micro"] = None
    if len(rates) >= 2:
        sel = [r["selection_rate"] for r in rates]
        out["dpd"] = max(sel) - min(sel)
        out["dpr"] = min(sel) / max(sel) if max(sel) > 0 else 1.0
    else:
        out["dpd"] = out["dpr"] = None
    usable = [r for r in rates if r["tmr"] is not None and r["fmr"] is not None]
    if len(usable) >= 2:
        tmrs = [r["tmr"] for r in usable]
        fmrs = [r["fmr"] for r in usable]
        out["eod"] = max(max(tmrs) - min(tmrs), max(fmrs) - min(fmrs))
        tr = min(tmrs) / max(tmrs) if max(tmrs) > 0 else 1.0
        fr = min(fmrs) / max(fmrs) if max(fmrs) > 0 else 1.0
        out["eor"] = min(tr, fr)
    else:
        out["eod"] = out["eor"] = None
    return out


def best_threshold_accuracy(distances, labels):
    """Exhaustive sweep: best achievable accuracy of the rule
    (same iff distance < t), and the lowest FMR among maximizing choices."""
    uniq = sorted(set(distances))
    candidates = [uniq[0] / 2]
    candidates += [(a + b) / 2 for a, b in zip(uniq, uniq[1:])]
    candidates += [uniq[-1] + 1.0]
    n_neg = sum(1 for l in labels if not l)
    best_correct = -1
    best_fp = None
    for t in candidates:
        correct = 0
        fp = 0
        for d, is_pos in zip(distances, labels):
            said_same = d < t
            if said_same == is_pos:
                correct += 1
            if said_same and not is_pos:
                fp += 1
        if correct > best_correct or (correct == best_correct and fp < best_fp):
            best_correct, best_fp = correct, fp
    return best_correct / len(distances), (best_fp / n_neg if n_neg else None)


def accuracy_at(distances, labels, threshold):
    correct = sum(1 for d, is_pos in zip(distances, labels) if (d < threshold) == is_pos)
    return correct / len(distances)


def diversity_highprec(frequencies, n_categories, dps=50):
    """Eq.-style normalized entropy evaluated with mpmath."""
    with mp.workdps(dps):
        freqs = [mp.mpf(str(f)) for f in frequencies]
        total = sum(freqs)
        ent = -sum(f / total * mp.log(f / total) for f in freqs if f > 0)
        return float(ent / mp.log(n_categories))


def logodds_2x2(k1, n1, k0, n0):
    """Closed-form saturated logit: intercept and slope from the two cells."""
    beta0 = math.log(k0 / (n0 - k0))
    beta1 = math.log(k1 / (n1 - k1)) - beta0
    return beta0, beta1


def ame_categorical_fd(x, beta, column_indices, level_column):
    """Finite-difference mean marginal effect: rebuild both counterfactual
    designs row by row and average the sigmoid gap."""
    diffs = []
    for row in np.asarray(x):
        ref = row.copy()
        for j in column_indices:
            ref[j] = 0.0
        lvl = ref.copy()
        lvl[level_column] = 1.0
        eta_ref = float(np.dot(ref, beta))
        eta_lvl = float(np.dot(lvl, beta))
        diffs.append(1.0 / (1.0 + math.exp(-eta_lvl)) - 1.0 / (1.0 + math.exp(-eta_ref)))
    return math.fsum(diffs) / len(diffs)


def effect_gradients_copy(design, beta, schema):
    """Mean marginal effects and their gradients with respect to ``beta``
    from counterfactual copies of the whole design: for each categorical
    attribute a copy with its dummies zeroed (the reference) and, per level,
    a copy with that dummy set; continuous effects from the average
    derivative. Returns ``[((attribute, level), estimate, gradient)]`` in
    schema order, level None for a continuous attribute."""
    x = design.X
    out = []
    for attr in schema.attributes:
        if attr.is_categorical:
            col_map = design.categorical_columns[attr.name]
            x_ref = x.copy()
            x_ref[:, list(col_map.values())] = 0.0
            mu_ref = expit(x_ref @ beta)
            d_ref = mu_ref * (1.0 - mu_ref)
            for level, j in col_map.items():
                x_lvl = x_ref.copy()
                x_lvl[:, j] = 1.0
                mu_lvl = expit(x_lvl @ beta)
                d_lvl = mu_lvl * (1.0 - mu_lvl)
                estimate = float(np.mean(mu_lvl - mu_ref))
                grad = (d_lvl[:, None] * x_lvl - d_ref[:, None] * x_ref).mean(axis=0)
                out.append(((attr.name, level), estimate, grad))
        else:
            j = design.continuous_columns[attr.name]
            _, scale = design.standardization[attr.name]
            mu = expit(x @ beta)
            d1 = mu * (1.0 - mu)
            d2 = d1 * (1.0 - 2.0 * mu)
            estimate = float(beta[j] * d1.mean() / scale)
            grad = (beta[j] * (d2[:, None] * x)).mean(axis=0) / scale
            grad[j] += float(d1.mean()) / scale
            out.append(((attr.name, None), estimate, grad))
    return out


def marginal_effects_copy(design, beta, cov, schema):
    """``effect_gradients_copy`` with delta-method SEs in place of the
    gradients: ``[((attribute, level), estimate, std_error)]``."""
    return [
        (key, estimate, math.sqrt(max(grad @ cov @ grad, 0.0)))
        for key, estimate, grad in effect_gradients_copy(design, beta, schema)
    ]


@dataclass
class RowCopyFit:
    beta: np.ndarray
    covariance: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    ll_trace: tuple[float, ...]


def _solve_spd(hessian, rhs):
    try:
        chol = np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("weighted normal equations are rank-deficient") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def fit_logit_rowcopy(X, y, subset="positives", max_iter=50, tol=1e-8):
    """The logit fit as it was before frequency weights: one Newton-IRLS
    loop over the rows of one (possibly resampled and copied) design, with
    step halving, the separation tests and the same exceptions and
    messages."""
    n, p = X.shape
    if n <= p:
        raise DegenerateResponse(f"{subset}: need more rows ({n}) than columns ({p})")
    if y.min() == y.max():
        raise DegenerateResponse(f"{subset}: response takes a single value; no model to fit")

    def log_likelihood(eta):
        return float(np.dot(y, eta) - np.sum(np.logaddexp(0.0, eta)))

    beta = np.zeros(p)
    eta = X @ beta
    mu = expit(eta)
    ll = log_likelihood(eta)
    trace = [ll]
    converged, iterations, prev_norm, growing = False, 0, 0.0, False
    for _ in range(max_iter):
        grad = X.T @ (y - mu)
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        w = mu * (1.0 - mu)
        delta = _solve_spd((X * w[:, None]).T @ X, grad)
        step = 1.0
        for _ in range(40):
            candidate = beta + step * delta
            eta_c = X @ candidate
            ll_c = log_likelihood(eta_c)
            if ll_c >= ll - 1e-12 * max(1.0, abs(ll)):
                break
            step /= 2
        beta, eta, ll = candidate, eta_c, ll_c
        mu = expit(eta)
        iterations += 1
        trace.append(ll)
        if np.max(np.abs(beta)) > COEF_LIMIT:
            raise QuasiSeparation(
                f"coefficient magnitude exceeded {COEF_LIMIT} after {iterations} iterations"
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
    covariance = _solve_spd((X * w[:, None]).T @ X, np.eye(p))
    return RowCopyFit(
        beta=beta,
        covariance=(covariance + covariance.T) / 2,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        ll_trace=tuple(trace),
    )


def bootstrap_rowcopy(design, schema, n_boot, seed, max_iter=50, tol=1e-8):
    """The bootstrap as it was before frequency weights: each resample's rows
    copied, refitted with ``fit_logit_rowcopy`` and its effects taken from
    the copy-based oracle. Returns the per-effect standard deviations, the
    number of resamples used, and per effect the rounding allowance of its
    standard deviation.

    The allowance bounds, to first order, how far the standard deviation
    can move when every resample's sums are taken in another order, as a
    fit on frequency weights takes them. At a resample's estimate, rounding
    its score ``X_b' (y_b - mu)`` moves the coefficients by ``cov @ dg``,
    where ``|dg|`` is at most ``u * colsum(|X_b| * r)`` with, per row,
    ``r = (n + 1)|y - mu|`` for the n-term sum, plus 2 for the rounding of
    ``mu`` and ``w (p + 1) |x| @ |beta|`` for that of the linear predictor
    (``w = mu (1 - mu)``). An effect with gradient ``a`` then moves by at
    most ``|cov @ a| @ |dg|``, and the standard deviation over the resamples
    by at most the norm of those moves over ``sqrt(used - 1)``, counted once
    for each of the two fits. Over well-conditioned resamples the allowance
    is near 1e-12 of the standard deviation; a near-separated resample,
    whose information matrix has a condition number near 1e10, allows far
    more, and only for the effects that depend on its ill-determined
    coefficients."""
    unit_roundoff = 2.0**-53
    samples, moves, used, n = {}, {}, 0, design.n
    for child in np.random.SeedSequence(seed).spawn(n_boot):
        idx = np.random.default_rng(child).integers(0, n, size=n)
        design_b = replace(design, X=design.X[idx], y=design.y[idx])
        if design_b.y.min() == design_b.y.max() or any(
            design_b.X[:, j].sum() == 0
            for cols in design.categorical_columns.values()
            for j in cols.values()
        ):
            continue
        try:
            fit = fit_logit_rowcopy(
                design_b.X, design_b.y, design.subset.value, max_iter=max_iter, tol=tol
            )
        except (QuasiSeparation, SingularInformation):
            continue
        if not fit.converged:
            continue
        abs_x, p = np.abs(design_b.X), design_b.X.shape[1]
        mu = expit(design_b.X @ fit.beta)
        w = mu * (1.0 - mu)
        per_row = (n + 1) * np.abs(design_b.y - mu) + 2.0 + w * (p + 1) * (abs_x @ np.abs(fit.beta))
        score_rounding = unit_roundoff * (per_row @ abs_x)
        for key, estimate, grad in effect_gradients_copy(design_b, fit.beta, schema):
            samples.setdefault(key, []).append(estimate)
            moves.setdefault(key, []).append(float(np.abs(fit.covariance @ grad) @ score_rounding))
        used += 1
    ses, allowances = {}, {}
    for key, values in samples.items():
        if len(values) > 1:
            ses[key] = float(np.std(values, ddof=1))
            allowances[key] = 2.0 * float(np.linalg.norm(moves[key])) / math.sqrt(len(values) - 1)
    return ses, used, allowances


def ame_continuous_fd(x, beta, column, scale, h=1e-6):
    """Central finite difference of the mean predicted probability along one
    standardized column, rescaled to the original unit."""
    xp = np.asarray(x, dtype=float).copy()
    xm = xp.copy()
    xp[:, column] += h
    xm[:, column] -= h
    mu_p = 1.0 / (1.0 + np.exp(-(xp @ beta)))
    mu_m = 1.0 / (1.0 + np.exp(-(xm @ beta)))
    return float((mu_p - mu_m).mean() / (2 * h) / scale)


def sequential_ss(d, blocks):
    """Type-I sums of squares via explicit nested projection regressions."""
    d = np.asarray(d, dtype=float)
    x = np.ones((len(d), 1))

    def rss(mat):
        fitted = mat @ (np.linalg.pinv(mat) @ d)
        return float(np.sum((d - fitted) ** 2))

    total = rss(x)
    out = []
    prev = total
    for block in blocks:
        x = np.hstack([x, block])
        cur = rss(x)
        out.append(prev - cur)
        prev = cur
    return total, out, prev
