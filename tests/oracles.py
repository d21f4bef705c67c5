"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions, without reusing library
code paths: plain dict tallies, loop-based sweeps, mpmath for high-precision
constants, and pinv-projection regressions. Group metrics mirror the library
formulas term by term (over canonically sorted groups) so integer-count
inputs reproduce exactly.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import expit


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


def marginal_effects_copy(design, beta, cov, schema):
    """Mean marginal effects and delta-method SEs from counterfactual copies
    of the whole design: for each categorical attribute a copy with its
    dummies zeroed (the reference) and, per level, a copy with that dummy
    set; continuous effects from the average derivative. Returns
    ``[((attribute, level), estimate, std_error)]`` in schema order, level
    None for a continuous attribute."""
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
                out.append(((attr.name, level), estimate, math.sqrt(max(grad @ cov @ grad, 0.0))))
        else:
            j = design.continuous_columns[attr.name]
            _, scale = design.standardization[attr.name]
            mu = expit(x @ beta)
            d1 = mu * (1.0 - mu)
            d2 = d1 * (1.0 - 2.0 * mu)
            estimate = float(beta[j] * d1.mean() / scale)
            grad = (beta[j] * (d2[:, None] * x)).mean(axis=0) / scale
            grad[j] += float(d1.mean()) / scale
            out.append(((attr.name, None), estimate, math.sqrt(max(grad @ cov @ grad, 0.0))))
    return out


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
