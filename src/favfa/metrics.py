"""Verification threshold, per-group confusion statistics and fairness metrics.

All aggregate metrics are returned as raw proportions in [0, 1]; scaling to
percentages is left to presentation layers. Aggregations run in canonical
group order with order-insensitive summation, so results do not depend on
input ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Label, PairCovariates, PairRecord
from .errors import (
    DegeneratePairs,
    DegenerateSupport,
    NoGroups,
    SchemaInvalid,
)


@dataclass(frozen=True, order=True)
class GroupKey:
    """Ordered (attribute, level) pairs identifying one demographic segment."""

    items: tuple[tuple[str, str], ...]

    def label(self) -> str:
        return "×".join(level for _, level in self.items)

    def as_lists(self) -> list[list[str]]:
        return [[attr, level] for attr, level in self.items]


@dataclass(frozen=True)
class GroupStats:
    group: GroupKey
    n_pos: int
    n_neg: int
    tp: int
    fp: int
    tn: int
    fn: int
    tmr: float | None
    fmr: float | None
    accuracy: float
    selection_rate: float


@dataclass(frozen=True)
class FairnessReport:
    dob: float
    dpd: float
    eod: float
    dpr: float
    eor: float
    micro_accuracy: float
    per_group: tuple[GroupStats, ...]
    threshold: float | None
    excluded_groups: tuple[GroupKey, ...]


def predicted_label(pair: PairRecord, threshold: float | None) -> Label:
    """The pair's own prediction when present, else the threshold rule
    (predict same-identity iff distance < threshold)."""
    if pair.predicted is not None:
        return pair.predicted
    if threshold is None:
        raise ValueError(
            f"pair {pair.pair_id!r} has no prediction and no threshold was given"
        )
    return Label.SAME if pair.distance < threshold else Label.DIFFERENT


def optimize_threshold(pairs: Sequence[PairRecord]) -> float:
    """Distance threshold maximizing overall pair accuracy.

    Predicting same-identity iff distance < t, accuracy is piecewise constant
    between consecutive observed distances; the sweep scores every interval.
    Among intervals achieving maximal accuracy, ties break toward the lower
    resulting false-match rate, then the wider interval, then the lower
    threshold. The returned value is the interval midpoint (distances live in
    [0, inf), so the leftmost interval starts at 0; a threshold above every
    observed distance is returned as max distance + 1).
    """
    distances = np.array([p.distance for p in pairs], dtype=float)
    positive = np.array([p.ground_truth is Label.SAME for p in pairs], dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegeneratePairs("need at least one positive and one negative pair")

    uniq = np.unique(distances)
    pos_sorted = np.sort(distances[positive])
    neg_sorted = np.sort(distances[~positive])
    # pairs with distance <= uniq[j] are predicted same for a threshold in
    # the open interval (uniq[j], uniq[j+1])
    cum_pos = np.searchsorted(pos_sorted, uniq, side="right")
    cum_neg = np.searchsorted(neg_sorted, uniq, side="right")

    correct = [n_neg]
    neg_same = [0]
    width = [float(uniq[0])]
    tau = [float(uniq[0]) / 2]
    for j in range(len(uniq) - 1):
        correct.append(int(cum_pos[j]) + n_neg - int(cum_neg[j]))
        neg_same.append(int(cum_neg[j]))
        width.append(float(uniq[j + 1] - uniq[j]))
        tau.append(float(uniq[j] + uniq[j + 1]) / 2)
    correct.append(n_pos)
    neg_same.append(n_neg)
    width.append(math.inf)
    tau.append(float(uniq[-1]) + 1.0)

    best = max(
        range(len(correct)),
        key=lambda i: (correct[i], -neg_same[i], width[i], -tau[i]),
    )
    return tau[best]


def group_confusion(
    pairs: Sequence[PairRecord],
    covariates: Mapping[str, PairCovariates],
    threshold: float | None,
    grouping: Sequence[str],
    min_support: int = 0,
) -> list[GroupStats]:
    """Confusion counts and rates per observed demographic segment.

    Groups with fewer than ``min_support`` pairs are omitted. Provided
    predictions are used verbatim; pairs without one are classified by the
    threshold rule.
    """
    tallies: dict[GroupKey, list[int]] = {}
    for pair in pairs:
        cov = covariates[pair.pair_id]
        try:
            key = GroupKey(tuple((a, cov.categorical[a]) for a in grouping))
        except KeyError as exc:
            raise SchemaInvalid(
                f"grouping attribute {exc.args[0]!r} is not a categorical covariate"
            ) from None
        tally = tallies.setdefault(key, [0, 0, 0, 0])  # tp, fp, tn, fn
        is_pos = pair.ground_truth is Label.SAME
        said_same = predicted_label(pair, threshold) is Label.SAME
        if is_pos and said_same:
            tally[0] += 1
        elif not is_pos and said_same:
            tally[1] += 1
        elif not is_pos and not said_same:
            tally[2] += 1
        else:
            tally[3] += 1

    out = []
    for key in sorted(tallies):
        tp, fp, tn, fn = tallies[key]
        n_pos = tp + fn
        n_neg = fp + tn
        n = n_pos + n_neg
        if n < min_support:
            continue
        out.append(
            GroupStats(
                group=key,
                n_pos=n_pos,
                n_neg=n_neg,
                tp=tp,
                fp=fp,
                tn=tn,
                fn=fn,
                tmr=tp / n_pos if n_pos > 0 else None,
                fmr=fp / n_neg if n_neg > 0 else None,
                accuracy=(tp + tn) / n,
                selection_rate=(tp + fp) / n,
            )
        )
    return out


def degree_of_bias(per_group: Sequence[GroupStats]) -> float:
    """Population standard deviation of per-group accuracies."""
    if not per_group:
        raise NoGroups("degree of bias needs at least one group")
    accs = [g.accuracy for g in per_group]
    mean = sum(accs) / len(accs)
    return math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs))


def demographic_parity(per_group: Sequence[GroupStats]) -> tuple[float, float]:
    """(difference, ratio) of predicted-positive rates across groups.

    The difference is max - min of the selection rates; the ratio is
    min / max, defined as 1 when the maximum is 0.
    """
    if len(per_group) < 2:
        raise NoGroups("demographic parity needs at least two groups")
    rates = [g.selection_rate for g in per_group]
    lo, hi = min(rates), max(rates)
    return hi - lo, (lo / hi if hi > 0 else 1.0)


def equalized_odds(per_group: Sequence[GroupStats]) -> tuple[float, float]:
    """(difference, ratio) over the true- and false-match rates.

    The difference is the larger of the TMR spread and the FMR spread; the
    ratio is the smaller of the two min/max ratios, each defined as 1 when
    its denominator is 0. Groups lacking a defined TMR or FMR are skipped.
    """
    usable = [g for g in per_group if g.tmr is not None and g.fmr is not None]
    if len(usable) < 2:
        raise NoGroups("equalized odds needs two groups with defined TMR and FMR")
    tmrs = [g.tmr for g in usable]
    fmrs = [g.fmr for g in usable]
    diff = max(max(tmrs) - min(tmrs), max(fmrs) - min(fmrs))
    tmr_ratio = min(tmrs) / max(tmrs) if max(tmrs) > 0 else 1.0
    fmr_ratio = min(fmrs) / max(fmrs) if max(fmrs) > 0 else 1.0
    return diff, min(tmr_ratio, fmr_ratio)


def micro_average_accuracy(per_group: Sequence[GroupStats]) -> float:
    """Unweighted mean of per-group accuracies (every segment counts the
    same regardless of its size)."""
    if not per_group:
        raise NoGroups("micro-average accuracy needs at least one group")
    return sum(g.accuracy for g in per_group) / len(per_group)


def diversity(frequencies: Sequence[float], n_categories: int) -> float:
    """Normalized entropy of a frequency table, in [0, 1].

    Computes -(1/ln n) * sum(p_i ln p_i) over categories with positive
    frequency, with 0 ln 0 taken as 0. Equals 1 exactly iff the mass is
    uniform over all ``n_categories`` and 0 iff it concentrates on one.
    Exactly permutation-invariant (order-insensitive summation).
    """
    if n_categories < 2:
        raise DegenerateSupport("diversity needs at least two categories")
    freqs = [float(f) for f in frequencies]
    if any(f < 0 or not math.isfinite(f) for f in freqs):
        raise ValueError("frequencies must be finite and nonnegative")
    total = math.fsum(freqs)
    if total <= 0:
        raise ValueError("frequencies must have positive total mass")
    positive = [f for f in freqs if f > 0]
    if len(positive) > n_categories:
        raise ValueError(
            f"{len(positive)} categories carry mass but only {n_categories} declared"
        )
    if len(positive) == 1:
        return 0.0
    if len(positive) == n_categories and len(set(positive)) == 1:
        return 1.0
    entropy = -math.fsum(f / total * math.log(f / total) for f in positive)
    return min(1.0, max(0.0, entropy / math.log(n_categories)))


def fairness_report(
    pairs: Sequence[PairRecord],
    covariates: Mapping[str, PairCovariates],
    grouping: Sequence[str],
    min_support: int = 30,
    threshold: float | None = None,
) -> FairnessReport:
    """Full fairness summary at one operating threshold.

    When no threshold is given it is optimized on the pairs first. Groups
    below ``min_support`` pairs are reported as excluded and do not enter the
    aggregate metrics.
    """
    if threshold is None and any(p.predicted is None for p in pairs):
        threshold = optimize_threshold(pairs)
    stats = group_confusion(pairs, covariates, threshold, grouping, min_support=0)
    return fairness_from_groups(stats, min_support, threshold)


def fairness_from_groups(
    stats: Sequence[GroupStats], min_support: int, threshold: float | None
) -> FairnessReport:
    """Fairness summary from the confusion statistics of every group (as
    ``group_confusion`` returns them with ``min_support=0``) at the
    threshold they were computed with."""
    included = [g for g in stats if g.n_pos + g.n_neg >= min_support]
    excluded = tuple(g.group for g in stats if g.n_pos + g.n_neg < min_support)
    dpd, dpr = demographic_parity(included)
    eod, eor = equalized_odds(included)
    return FairnessReport(
        dob=degree_of_bias(included),
        dpd=dpd,
        eod=eod,
        dpr=dpr,
        eor=eor,
        micro_accuracy=micro_average_accuracy(included),
        per_group=tuple(included),
        threshold=threshold,
        excluded_groups=excluded,
    )
