from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import image, pair
from favfa.data import ImageTable, Label, PairCovariates, PairRecord
from favfa.errors import DegeneratePairs, DegenerateSupport, NoGroups
from favfa.metrics import (
    GroupKey,
    GroupStats,
    degree_of_bias,
    demographic_parity,
    diversity,
    equalized_odds,
    fairness_from_groups,
    fairness_report,
    group_confusion,
    micro_average_accuracy,
    optimize_threshold,
)

# Frozen via tests/oracles.py::diversity_highprec (mpmath, 50 digits).
DIVERSITY_7111 = 0.678389824724


def dpairs(positives, negatives):
    out = []
    for i, d in enumerate(positives):
        out.append(pair(f"p{i}", "a", "b", True, d))
    for i, d in enumerate(negatives):
        out.append(pair(f"n{i}", "a", "b", False, d))
    return out


def stats_from(group, tp, fp, tn, fn):
    n_pos, n_neg = tp + fn, fp + tn
    n = n_pos + n_neg
    return GroupStats(
        group=GroupKey((("g", group),)),
        n_pos=n_pos, n_neg=n_neg, tp=tp, fp=fp, tn=tn, fn=fn,
        tmr=tp / n_pos if n_pos else None,
        fmr=fp / n_neg if n_neg else None,
        accuracy=(tp + tn) / n,
        selection_rate=(tp + fp) / n,
    )


# --- threshold ---


def test_threshold_separable_case():
    tau = optimize_threshold(dpairs([0.2, 0.3], [0.7, 0.9]))
    assert tau == pytest.approx(0.5)
    assert oracles.accuracy_at([0.2, 0.3, 0.7, 0.9], [1, 1, 0, 0], tau) == 1.0


def test_threshold_inverted_case():
    # brute-force sweep oracle: best accuracy 0.5, achieved at zero FMR
    prs = dpairs([0.8], [0.2])
    tau = optimize_threshold(prs)
    best_acc, best_fmr = oracles.best_threshold_accuracy([0.8, 0.2], [1, 0])
    assert best_acc == 0.5
    assert oracles.accuracy_at([0.8, 0.2], [1, 0], tau) == best_acc
    assert tau == pytest.approx(0.1)  # ties break toward lower FMR
    assert best_fmr == 0.0


def test_threshold_degenerate():
    with pytest.raises(DegeneratePairs):
        optimize_threshold(dpairs([0.1, 0.2], []))


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
)
@settings(max_examples=80)
def test_threshold_matches_sweep_oracle(pos_raw, neg_raw):
    # integer grids force ties across and within classes
    positives = [v / 8 for v in pos_raw]
    negatives = [v / 8 for v in neg_raw]
    prs = dpairs(positives, negatives)
    tau = optimize_threshold(prs)
    dist = positives + negatives
    labels = [1] * len(positives) + [0] * len(negatives)
    best_acc, _ = oracles.best_threshold_accuracy(dist, labels)
    assert oracles.accuracy_at(dist, labels, tau) == best_acc


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=40),
    st.lists(st.integers(0, 30), min_size=1, max_size=40),
    st.sampled_from(["affine", "exp", "cube"]),
)
@settings(max_examples=60)
def test_threshold_invariant_to_increasing_transform(pos_raw, neg_raw, kind):
    positives = [v / 4 for v in pos_raw]
    negatives = [v / 4 for v in neg_raw]
    transform = {
        "affine": lambda d: 2.5 * d + 1.0,
        "exp": lambda d: math.exp(d / 4) - 1.0,
        "cube": lambda d: d**3,
    }[kind]

    def counts(positives, negatives):
        tau = optimize_threshold(dpairs(positives, negatives))
        tp = sum(1 for d in positives if d < tau)
        fp = sum(1 for d in negatives if d < tau)
        return tp, fp, len(negatives) - fp, len(positives) - tp

    base = counts(positives, negatives)
    moved = counts([transform(d) for d in positives], [transform(d) for d in negatives])
    assert base == moved


def threshold_loop(distances, positive):
    """The interval sweep as a Python loop over the unique distances, with
    max() picking the first of the best keys: the reference the vectorised
    ``optimize_threshold`` must reproduce to the bit."""
    distances = np.asarray(distances, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(distances) - n_pos
    uniq = np.unique(distances)
    cum_pos = np.searchsorted(np.sort(distances[positive]), uniq, side="right")
    cum_neg = np.searchsorted(np.sort(distances[~positive]), uniq, side="right")
    correct, neg_same = [n_neg], [0]
    width, tau = [float(uniq[0])], [float(uniq[0]) / 2]
    for j in range(len(uniq) - 1):
        correct.append(int(cum_pos[j]) + n_neg - int(cum_neg[j]))
        neg_same.append(int(cum_neg[j]))
        width.append(float(uniq[j + 1] - uniq[j]))
        tau.append(float(uniq[j] + uniq[j + 1]) / 2)
    correct.append(n_pos)
    neg_same.append(n_neg)
    width.append(math.inf)
    tau.append(float(uniq[-1]) + 1.0)
    best = max(range(len(correct)), key=lambda i: (correct[i], -neg_same[i], width[i], -tau[i]))
    return tau[best]


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(0, 6).map(lambda v: v / 4),
                st.floats(0.0, 3.0, allow_nan=False),
                # neighbouring floats, whose midpoints round onto each other
                st.integers(0, 3).map(lambda k: 1.0 + k * 2.0**-52),
            ),
            st.booleans(),
            st.sampled_from([None, True, False]),
        ),
        min_size=2,
        max_size=80,
    )
)
@settings(max_examples=150)
def test_threshold_equals_loop_reference(rows):
    distances = [d for d, _, _ in rows]
    positive = [pos for _, pos, _ in rows]
    if all(positive) or not any(positive):
        return
    prs = [
        pair(f"p{i}", "a", "b", pos, d, predicted=said)
        for i, (d, pos, said) in enumerate(rows)
    ]
    expected = threshold_loop(distances, positive)
    got = optimize_threshold(prs)
    assert type(got) is float and got == expected


# --- group confusion ---


def make_cov(pid, level, gender=None):
    cats = {"g": level}
    if gender is not None:
        cats["gender"] = gender
    return PairCovariates(pid, cats, {})


def test_group_confusion_small_case():
    prs = [
        pair("p1", "a", "b", True, 0.1),
        pair("p2", "a", "b", True, 0.9),
        pair("p3", "a", "b", False, 0.8),
        pair("p4", "a", "b", False, 0.2),
    ]
    covs = {p.pair_id: make_cov(p.pair_id, "G") for p in prs}
    stats = group_confusion(prs, covs, 0.5, ["g"])
    assert len(stats) == 1
    g = stats[0]
    # p1 correct, p2 missed, p3 correct, p4 false match -> accuracy 2/4;
    # independently: tp=1 fn=1 tn=1 fp=1
    assert (g.tp, g.fp, g.tn, g.fn) == (1, 1, 1, 1)
    assert g.accuracy == 0.5

    stats2 = group_confusion(prs[:3] + [pair("p5", "a", "b", True, 0.2)], {
        **{p.pair_id: make_cov(p.pair_id, "G") for p in prs[:3]},
        "p5": make_cov("p5", "G"),
    }, 0.5, ["g"])
    assert stats2[0].accuracy == 0.75


def test_group_confusion_min_support():
    prs = [pair("p1", "a", "b", True, 0.1), pair("p2", "a", "b", False, 0.9)]
    covs = {p.pair_id: make_cov(p.pair_id, "G") for p in prs}
    assert group_confusion(prs, covs, 0.5, ["g"], min_support=5) == []
    assert len(group_confusion(prs, covs, 0.5, ["g"], min_support=2)) == 1


def test_group_confusion_uses_provided_predictions():
    prs = [pair("p1", "a", "b", True, 0.9, predicted=True)]
    covs = {"p1": make_cov("p1", "G")}
    stats = group_confusion(prs, covs, 0.5, ["g"])
    assert stats[0].tp == 1  # the verbatim prediction wins over the threshold rule


@given(st.data())
@settings(max_examples=60)
def test_group_confusion_matches_tally_oracle(data):
    n = data.draw(st.integers(1, 120))
    levels = ["A", "B", "C", "D"]
    rows = []
    prs = []
    covs = {}
    for i in range(n):
        level = data.draw(st.sampled_from(levels))
        is_pos = data.draw(st.booleans())
        said = data.draw(st.booleans())
        pid = f"p{i}"
        rows.append(((("g", level),), is_pos, said))
        prs.append(pair(pid, "a", "b", is_pos, 0.5, predicted=said))
        covs[pid] = make_cov(pid, level)
    stats = group_confusion(prs, covs, None, ["g"])
    expected = oracles.tally_groups(rows)
    assert [s.group.items for s in stats] == list(expected)
    for s in stats:
        e = expected[s.group.items]
        assert (s.tp, s.fp, s.tn, s.fn) == (e["tp"], e["fp"], e["tn"], e["fn"])


def test_group_counts_sum_to_global():
    rng = np.random.default_rng(5)
    prs, covs = [], {}
    for i in range(300):
        pid = f"p{i}"
        prs.append(pair(pid, "a", "b", bool(rng.integers(2)), float(rng.random())))
        covs[pid] = make_cov(pid, "ABC"[rng.integers(3)], gender="MF"[rng.integers(2)])
    stats = group_confusion(prs, covs, 0.5, ["g", "gender"], min_support=0)
    total = np.array([(s.tp, s.fp, s.tn, s.fn) for s in stats]).sum(axis=0)
    said = [p.distance < 0.5 for p in prs]
    is_pos = [p.ground_truth is Label.SAME for p in prs]
    expected = (
        sum(1 for s, y in zip(said, is_pos) if s and y),
        sum(1 for s, y in zip(said, is_pos) if s and not y),
        sum(1 for s, y in zip(said, is_pos) if not s and not y),
        sum(1 for s, y in zip(said, is_pos) if not s and y),
    )
    assert tuple(total) == expected


# --- aggregates ---


def test_degree_of_bias_frozen_value():
    groups = [stats_from("a", 9, 0, 0, 1), stats_from("b", 8, 0, 0, 2), stats_from("c", 7, 0, 0, 3)]
    assert [g.accuracy for g in groups] == [0.9, 0.8, 0.7]
    assert degree_of_bias(groups) == pytest.approx(0.081650, abs=1e-6)
    assert degree_of_bias(groups[:1]) == 0.0
    assert degree_of_bias([groups[0]] * 3) == 0.0
    with pytest.raises(NoGroups):
        degree_of_bias([])


def test_demographic_parity_values():
    def with_rate(name, rate):
        return stats_from(name, int(rate * 10), 0, 10 - int(rate * 10), 0)

    dpd, _ = demographic_parity([with_rate("a", 0.6), with_rate("b", 0.4), with_rate("c", 0.5)])
    assert dpd == pytest.approx(0.2)
    _, dpr = demographic_parity([with_rate("a", 0.6), with_rate("b", 0.4)])
    assert dpr == pytest.approx(0.666667, abs=1e-6)
    dpd, dpr = demographic_parity([with_rate("a", 0.5), with_rate("b", 0.5)])
    assert (dpd, dpr) == (0.0, 1.0)
    with pytest.raises(NoGroups):
        demographic_parity([with_rate("a", 0.5)])


def test_equalized_odds_values():
    a = stats_from("a", 9, 1, 9, 1)   # tmr 0.9, fmr 0.1
    b = stats_from("b", 8, 3, 7, 2)   # tmr 0.8, fmr 0.3
    eod, eor = equalized_odds([a, b])
    assert eod == pytest.approx(0.2)
    assert eor == pytest.approx(0.333333, abs=1e-6)
    eod, eor = equalized_odds([a, a])
    assert (eod, eor) == (0.0, 1.0)
    with pytest.raises(NoGroups):
        equalized_odds([a])


def test_micro_average_ignores_group_size():
    big = stats_from("a", 1000, 0, 0, 0)          # accuracy 1.0, n=1000
    small = stats_from("b", 5, 0, 0, 5)           # accuracy 0.5, n=10
    assert micro_average_accuracy([big, small]) == pytest.approx(0.75)
    assert micro_average_accuracy([stats_from("a", 9, 0, 0, 1)]) == pytest.approx(0.9)
    eight = [stats_from(str(i), i + 1, 1, 1, 1) for i in range(8)]
    assert micro_average_accuracy(eight) == pytest.approx(
        sum(g.accuracy for g in eight) / 8
    )


# --- diversity ---


def test_diversity_frozen_values():
    assert diversity([0.5, 0.5], 2) == 1.0
    assert diversity([1.0, 0.0], 2) == 0.0
    got = diversity([0.7, 0.1, 0.1, 0.1], 4)
    assert got == pytest.approx(DIVERSITY_7111, abs=1e-9)
    assert got == pytest.approx(
        oracles.diversity_highprec([0.7, 0.1, 0.1, 0.1], 4), abs=1e-12
    )


def test_diversity_degenerate_support():
    with pytest.raises(DegenerateSupport):
        diversity([1.0], 1)


@given(st.lists(st.integers(0, 50), min_size=2, max_size=9).filter(lambda c: sum(c) > 0))
@settings(max_examples=120)
def test_diversity_properties(counts):
    n = len(counts)
    value = diversity(counts, n)
    assert 0.0 <= value <= 1.0
    # exact permutation invariance
    assert diversity(list(reversed(counts)), n) == value
    assert diversity(sorted(counts), n) == value
    positive = [c for c in counts if c > 0]
    if len(positive) == n and len(set(positive)) == 1:
        assert value == 1.0
    else:
        assert value < 1.0


# --- report ---


def test_fairness_report_excludes_small_groups():
    rng = np.random.default_rng(11)
    prs, covs = [], {}
    for i in range(200):
        pid = f"p{i}"
        prs.append(pair(pid, "a", "b", bool(rng.integers(2)), float(rng.random())))
        covs[pid] = make_cov(pid, "AB"[rng.integers(2)])
    # a tiny third group
    for i in range(3):
        pid = f"t{i}"
        prs.append(pair(pid, "a", "b", True, 0.1))
        covs[pid] = make_cov(pid, "C")
    report = fairness_report(prs, covs, ["g"], min_support=30)
    assert len(report.per_group) == 2
    assert [k.items for k in report.excluded_groups] == [(("g", "C"),)]
    assert report.threshold is not None
    assert 0.0 <= report.dpr <= 1.0
    assert 0.0 <= report.eor <= 1.0

    # the same report from precomputed statistics of every group
    stats = group_confusion(prs, covs, report.threshold, ["g"], min_support=0)
    assert fairness_from_groups(stats, 30, report.threshold) == report
