"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions, without reusing library
code paths: plain dict tallies, loop-based sweeps, mpmath for high-precision
constants, and pinv-projection regressions. Group metrics mirror the library
formulas term by term (over canonically sorted groups) so integer-count
inputs reproduce exactly. The logit fit and its bootstrap are kept as they
were computed on row copies of each resample, before frequency weights.
The one exception is ``irls_reference``, the frequency-weighted IRLS kernel
before its full steps were certified: it runs on the library's helpers, so
that the kernel can be held to it bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np
from scipy.special import expit

from favfa import logit
from favfa.errors import (
    DegenerateResponse,
    InsufficientCandidates,
    QuasiSeparation,
    SingularInformation,
)

COEF_LIMIT = 30.0
UNIT_ROUNDOFF = 2.0**-53


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


def sum_over_rows_loop(a, b, rows=512):
    """``a @ b`` over the observations (``a``'s columns, ``b``'s rows) as it
    was summed before the slices were stacked: one product per ``rows``-row
    slice, added into the first slice's product one after another."""
    out = a[:, :rows] @ b[:rows]
    for start in range(rows, len(b), rows):
        out += a[:, start : start + rows] @ b[start : start + rows]
    return out


def _solve_spd(hessian, rhs):
    try:
        chol = np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation("weighted normal equations are rank-deficient") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def fit_logit_rowcopy(X, y, subset="positives", max_iter=50, tol=1e-8, start=None):
    """The logit fit as it was before frequency weights: one Newton-IRLS
    loop over the rows of one (possibly resampled and copied) design, from
    the coefficients ``start`` (zero when None), with step halving, the
    separation tests and the same exceptions and messages."""
    n, p = X.shape
    if n <= p:
        raise DegenerateResponse(f"{subset}: need more rows ({n}) than columns ({p})")
    if y.min() == y.max():
        raise DegenerateResponse(f"{subset}: response takes a single value; no model to fit")

    def log_likelihood(eta):
        return float(np.dot(y, eta) - np.sum(np.logaddexp(0.0, eta)))

    beta = np.zeros(p) if start is None else np.array(start, dtype=float)
    eta = X @ beta
    mu = expit(eta)
    ll = log_likelihood(eta)
    trace = [ll]
    converged, iterations, prev_norm, growing = False, 0, float(np.linalg.norm(beta)), False
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


_CONVERGED, _NOT_CONVERGED, _SEPARATED, _GROWING, _SINGULAR = (
    logit._CONVERGED, logit._NOT_CONVERGED, logit._SEPARATED, logit._GROWING, logit._SINGULAR
)


@dataclass
class ReferenceFits:
    beta: np.ndarray  # (k, p)
    status: np.ndarray  # (k,)
    iterations: np.ndarray  # (k,)
    chol: np.ndarray  # (k, p, p)
    trace: list  # every row's log-likelihood after 0, 1, ... iterations


def irls_reference(X, y, counts, start, max_iter, tol, table=None) -> ReferenceFits:
    """The IRLS kernel as it was before its full Newton steps were certified
    (``favfa.logit._irls``), on the library's own helpers so that the two
    can be compared bit for bit: every step's candidate log-likelihood
    computed and compared with the floor, pass 0 on a (k, n) tiling of one
    row, and ``trace`` the log-likelihoods after 0, 1, ... iterations.
    """
    expit, _log_likelihood = logit.expit, logit._log_likelihood
    _sum_over_rows, _information, _cholesky = (
        logit._sum_over_rows, logit._information, logit._cholesky
    )
    k, (n, p) = len(counts), X.shape
    fits = ReferenceFits(
        beta=np.tile(start, (k, 1)),
        status=np.full(k, _NOT_CONVERGED),
        iterations=np.zeros(k, dtype=np.intp),
        chol=np.zeros((k, p, p)),
        trace=[],
    )
    # state of the rows still iterating; ``rows`` maps them to block rows
    rows = np.arange(k)
    beta = fits.beta.copy()
    eta = np.tile(start @ X.T, (k, 1))
    ll = _log_likelihood(eta, y, counts)
    lls = ll.copy()
    fits.trace.append(lls.copy())
    prev_norm, growing = np.full(k, np.linalg.norm(start)), np.zeros(k, dtype=bool)

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


def score_rounding(X, y, beta):
    """A bound on the rounding of the score ``X' (y - mu)`` at ``beta``:
    ``u * colsum(|X| * r)`` with, per row, ``r = (n + 1)|y - mu|`` for the
    n-term sum, plus 2 for the rounding of ``mu`` and ``w (p + 1) |x| @
    |beta|`` for that of the linear predictor (``w = mu (1 - mu)``). At an
    estimate, a score moved by ``dg`` moves the coefficients by ``cov @ dg``."""
    n, p = X.shape
    abs_x = np.abs(X)
    mu = expit(X @ beta)
    w = mu * (1.0 - mu)
    per_row = (n + 1) * np.abs(y - mu) + 2.0 + w * (p + 1) * (abs_x @ np.abs(beta))
    return UNIT_ROUNDOFF * (per_row @ abs_x)


def fit_rounding_allowance(X, y, fit):
    """Per coefficient and per covariance entry, to first order, how far two
    fits of the same rows that sum in different orders can lie apart at a
    converged estimate, counted once for each fit.

    The coefficients move by at most ``|cov| @ dg`` (``score_rounding``).
    The covariance ``C = I^-1`` moves by ``-C dI C``: through the moved
    coefficients ``dI = sum_i w'_i (x_i . delta) x_i x_i'`` with ``w' = w (1 -
    2 mu)`` and ``|x_i . delta| = |(C x_i) . dg| <= |C x_i| @ dg``, and
    through the rounding of I itself and of its inverse by at most ``|C|_2^2
    (n + p + 3) u |X' diag(w) X|_2``. For a fit whose information matrix has
    a condition number near 50 that is 1e-13 to 1e-11 of the largest entry;
    a near-separated one, with a condition number near 1e10, allows far
    more."""
    n, p = X.shape
    cov = fit.covariance
    dg = score_rounding(X, y, fit.beta)
    mu = expit(X @ fit.beta)
    w = mu * (1.0 - mu)
    abs_z = np.abs(X @ cov)
    through_beta = (abs_z * (np.abs(w * (1.0 - 2.0 * mu)) * (abs_z @ dg))[:, None]).T @ abs_z
    through_sums = (
        np.linalg.norm(cov, 2) ** 2
        * (n + p + 3)
        * UNIT_ROUNDOFF
        * np.linalg.norm((X * w[:, None]).T @ X, 2)
    )
    return 2.0 * (np.abs(cov) @ dg), 2.0 * (through_beta + through_sums)


def bootstrap_rowcopy(fit, design, schema, n_boot, seed, max_iter=50, tol=1e-8, score_slack=0.0):
    """The bootstrap as it was before frequency weights: each resample's rows
    copied, refitted with ``fit_logit_rowcopy`` from the full-sample
    coefficients ``fit.beta`` and its effects taken from the copy-based
    oracle. The seeds come from one spawn of ``n_boot`` children. Returns
    the per-effect standard deviations, the number of resamples used, and
    per effect the rounding allowance of its standard deviation.

    The allowance bounds, to first order, how far the standard deviation
    can move when every resample's sums are taken in another order, as a
    fit on frequency weights takes them. At a resample's estimate, rounding
    its score moves the coefficients by ``cov @ dg``, with ``|dg|`` bounded
    by ``score_rounding``. An effect with gradient ``a`` then moves by at
    most ``|cov @ a| @ |dg|``, and the standard deviation over the resamples
    by at most the norm of those moves over ``sqrt(used - 1)``, counted once
    for each of the two fits. Over well-conditioned resamples the allowance
    is near 1e-12 of the standard deviation; a near-separated resample,
    whose information matrix has a condition number near 1e10, allows far
    more, and only for the effects that depend on its ill-determined
    coefficients.

    With ``score_slack``, each score entry may also lie that far from zero,
    as at any estimate that stopped once its score was below ``tol``: the
    allowance then bounds how far two refits of each resample that stopped
    at different points can move the standard deviation."""
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
            refit = fit_logit_rowcopy(
                design_b.X, design_b.y, design.subset.value, max_iter, tol, fit.beta
            )
        except (QuasiSeparation, SingularInformation):
            continue
        if not refit.converged:
            continue
        dg = score_rounding(design_b.X, design_b.y, refit.beta) + score_slack
        for key, estimate, grad in effect_gradients_copy(design_b, refit.beta, schema):
            samples.setdefault(key, []).append(estimate)
            moves.setdefault(key, []).append(float(np.abs(refit.covariance @ grad) @ dg))
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


def anova_reference(d, blocks):
    """Sequential ANOVA as one least-squares solve of the n-row design per
    factor, that design growing by each factor's block in turn; ``blocks``
    is a list of ``(name, block)``. Returns ``(factors, residual_ss,
    total_ss, warnings)`` with ``factors`` a list of ``(name, df, ss)``."""
    d = np.asarray(d, dtype=float)

    def rss_rank(x):
        coef, _, rank, _ = np.linalg.lstsq(x, d, rcond=None)
        resid = d - x @ coef
        return float(resid @ resid), int(rank)

    x = np.ones((len(d), 1))
    rss_prev, rank_prev = rss_rank(x)
    total_ss = rss_prev
    factors, warnings = [], []
    for name, block in blocks:
        if block.shape[1] == 0:
            warnings.append(f"factor {name!r} has a single level in this subset; dropped")
            factors.append((name, 0, 0.0))
            continue
        candidate = np.hstack([x, block])
        rss, rank = rss_rank(candidate)
        gained = rank - rank_prev
        if gained == 0:
            warnings.append(f"factor {name!r} is collinear with preceding factors; dropped")
            factors.append((name, 0, 0.0))
            continue
        if gained < block.shape[1]:
            warnings.append(
                f"factor {name!r}: {block.shape[1] - gained} collinear column(s) absorbed"
            )
        factors.append((name, gained, max(0.0, rss_prev - rss)))
        x, rss_prev, rank_prev = candidate, rss, rank
    return factors, rss_prev, total_ss, warnings


def qq_points(values, max_points=512):
    """The QQ panel's points as two branches drew them: every sorted value
    against its uniform quantile when there are at most ``max_points``,
    else ``max_points`` evenly spaced order statistics."""
    values = sorted(values)
    n = len(values)
    if n > max_points:
        picks = [values[(i * n) // max_points] for i in range(max_points)]
        theory = [((i * n) // max_points + 0.5) / n for i in range(max_points)]
    else:
        picks = values
        theory = [(i + 0.5) / n for i in range(n)]
    return list(zip(theory, picks))


def select_id_pool_reference(frame, schema, n_identities, seed):
    """The identity pool drawn as it was first written: each (gender,
    ethnicity) cell's ids gathered one image at a time, cells in schema
    order, each cell's pool sorted, and the ids drawn from it sorted again.
    Every image must hold both levels, and ``n_identities`` must divide
    across the cells."""
    genders, ethnicities = schema["gender"].levels, schema["ethnicity"].levels
    gender = frame.codes(schema["gender"]).codes.tolist()
    ethnicity = frame.codes(schema["ethnicity"]).codes.tolist()
    pools = {(g, e): [] for g in genders for e in ethnicities}
    for row, image_id in enumerate(frame.ids):
        pools[genders[gender[row]], ethnicities[ethnicity[row]]].append(image_id)
    per_cell = n_identities // len(pools)
    for cell, ids in pools.items():
        if len(ids) < per_cell:
            raise InsufficientCandidates(cell, len(ids), per_cell)
    rng = np.random.default_rng(seed)
    selected = []
    for ids in pools.values():
        pool = sorted(ids)
        idx = rng.choice(len(pool), size=per_cell, replace=False)
        selected.extend(sorted(pool[i] for i in idx))
    return selected


def greedy_fill_stepwise(cells, k):
    """Pick k styles one at a time, always from the least-filled cell that
    still has unused candidates; ties break to the lowest cell index, then
    candidates are consumed in id order."""
    order = sorted(cells)
    cursor = {cell: 0 for cell in order}
    counts = {cell: 0 for cell in order}
    chosen = []
    for _ in range(k):
        available = [c for c in order if cursor[c] < len(cells[c])]
        cell = min(available, key=lambda c: (counts[c], c))
        chosen.append((cells[cell][cursor[cell]], cell))
        cursor[cell] += 1
        counts[cell] += 1
    return chosen


def plan_rows(plan):
    """``(id_image, segment, styles)`` of each planned identity, read off the
    plan's columns."""
    return [(image_id, *plan.groups[g]) for image_id, g in zip(plan.ids, plan.group.tolist())]


def reference_jsonl(plan):
    """Every identity encoded on its own, with sorted keys."""
    return "".join(
        json.dumps(
            {
                "id_image": image_id,
                "segment": dict(zip(("gender", "ethnicity"), segment)),
                "styles": [
                    {"style_image": s.style_image, "age_bin": s.age_bin, "pose_bin": s.pose_bin}
                    for s in styles
                ],
            },
            sort_keys=True,
        )
        + "\n"
        for image_id, segment, styles in plan_rows(plan)
    )
