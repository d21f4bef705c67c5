"""Verification threshold, per-group confusion statistics and fairness metrics.

All aggregate metrics are returned as raw proportions in [0, 1]; scaling to
percentages is left to presentation layers. Aggregations run in canonical
group order with order-insensitive summation, so results do not depend on
input ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import NO_PREDICTION, CovariateFrame, PairFrame, segment_codes
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


def predicted_same(
    frame: PairFrame, threshold: float | None, rows: np.ndarray | None = None
) -> np.ndarray:
    """Whether each pair (of the ``rows`` mask, when given) is predicted
    same-identity: the pair's own prediction when present, else the
    threshold rule (same iff distance < threshold)."""
    predicted = frame.predicted if rows is None else frame.predicted[rows]
    missing = predicted == NO_PREDICTION
    if threshold is None:
        if missing.any():
            first = int(np.argmax(missing))
            if rows is not None:
                first = int(np.flatnonzero(rows)[first])
            raise ValueError(
                f"pair {frame.pair_id[first]!r} has no prediction and no threshold was given"
            )
        return predicted == 1
    distance = frame.distance if rows is None else frame.distance[rows]
    return np.where(missing, distance < threshold, predicted == 1)


def optimize_threshold(frame: PairFrame) -> float:
    """Distance threshold maximizing overall pair accuracy.

    Predicting same-identity iff distance < t, accuracy is piecewise constant
    between consecutive observed distances; the sweep scores every interval.
    Among intervals achieving maximal accuracy, ties break toward the lower
    resulting false-match rate, then the wider interval, then the lower
    threshold. The returned value is the interval midpoint (distances live in
    [0, inf), so the leftmost interval starts at 0; a threshold above every
    observed distance is returned as max distance + 1). Reads only the
    ``distance`` and ``is_pos`` columns.
    """
    distances, positive = frame.distance, frame.is_pos
    n_pos = int(positive.sum())
    n_neg = len(frame) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegeneratePairs("need at least one positive and one negative pair")

    uniq = np.unique(distances)
    # pairs with distance <= uniq[j] are predicted same for a threshold in
    # the open interval (uniq[j], uniq[j+1]); interval 0 lies below uniq[0]
    cum_pos = np.searchsorted(np.sort(distances[positive]), uniq, side="right")
    cum_neg = np.searchsorted(np.sort(distances[~positive]), uniq, side="right")
    correct = np.concatenate(([n_neg], cum_pos + (n_neg - cum_neg)))
    neg_same = np.concatenate(([0], cum_neg))
    width = np.concatenate((uniq[:1], np.diff(uniq), [math.inf]))
    tau = np.concatenate((uniq[:1] / 2, (uniq[:-1] + uniq[1:]) / 2, uniq[-1:] + 1.0))
    # lexsort sorts by its last key first: the first entry has the most
    # correct, then the fewest false matches, then the widest interval, then
    # the lowest threshold
    best = np.lexsort((tau, -width, neg_same, -correct))[0]
    return float(tau[best])


def group_confusion(
    frame: PairFrame,
    covs: CovariateFrame,
    threshold: float | None,
    grouping: Sequence[str],
) -> list[GroupStats]:
    """Confusion counts and rates per observed demographic segment.

    The segment of a pair is its ``segment_codes`` code over the level codes
    of the ``grouping`` attributes, and one ``np.bincount`` tallies the four
    outcomes of every segment; every observed segment is returned, however
    few its pairs. Provided predictions are used verbatim; pairs without one
    are classified by the threshold rule. A grouping that names an attribute
    twice raises ``SchemaInvalid``.
    """
    if len(set(grouping)) != len(grouping):
        raise SchemaInvalid("grouping repeats an attribute")
    if len(frame) == 0:
        return []
    for attr in grouping:
        if attr not in covs.categorical:
            raise SchemaInvalid(
                f"grouping attribute {attr!r} is not a categorical covariate"
            )
    said_same = predicted_same(frame, threshold)

    segment, labels = segment_codes(len(frame), [covs.categorical[a] for a in grouping])
    # outcome 0 tp, 1 fn, 2 tn, 3 fp: twice "negative" plus "wrong"
    outcome = 2 * ~frame.is_pos + (said_same != frame.is_pos)
    counts = np.bincount(segment * 4 + outcome, minlength=4 * len(labels))
    counts = counts.reshape(len(labels), 4)

    tallies: dict[GroupKey, list[int]] = {}
    for code in np.flatnonzero(counts.any(axis=1)).tolist():
        tallies[GroupKey(tuple(zip(grouping, labels[code])))] = counts[code].tolist()

    out = []
    for key in sorted(tallies):
        tp, fn, tn, fp = tallies[key]
        n_pos = tp + fn
        n_neg = fp + tn
        n = n_pos + n_neg
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
    frame: PairFrame,
    covs: CovariateFrame,
    grouping: Sequence[str],
    min_support: int = 30,
) -> FairnessReport:
    """Full fairness summary at the accuracy-optimal threshold.

    The threshold is optimized on the pairs when any pair lacks a
    prediction, and is None otherwise. For another threshold, pass
    ``group_confusion``'s statistics at it to ``fairness_from_groups``.
    """
    threshold = (
        optimize_threshold(frame) if (frame.predicted == NO_PREDICTION).any() else None
    )
    stats = group_confusion(frame, covs, threshold, grouping)
    return fairness_from_groups(stats, min_support, threshold)


def fairness_from_groups(
    stats: Sequence[GroupStats], min_support: int, threshold: float | None
) -> FairnessReport:
    """Fairness summary from the confusion statistics of every group (as
    ``group_confusion`` returns them) at the threshold they were computed
    with. Groups of fewer than ``min_support`` pairs are reported as
    excluded and do not enter the aggregate metrics."""
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
