from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import favfa.anova
import oracles
from conftest import Covariates, frames, pair
from favfa.anova import anova_distances
from favfa.data import Subset
from favfa.errors import EmptySubset
from favfa.schema import (
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
)

SCHEMA_GH_AGE = AttributeSchema(
    (
        AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),
        AttributeDef("h", Categorical(("U", "V", "W"), "V"), Scope.IMAGE),
        AttributeDef("age", Continuous("years"), Scope.IMAGE),
    )
)

SCHEMA_G = AttributeSchema(
    (AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),)
)

SCHEMA_GH = AttributeSchema(
    (
        AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),
        AttributeDef("h", Categorical(("U", "V", "W"), "U"), Scope.IMAGE),
    )
)


def anova(pairs, covs, schema, *args, **kwargs):
    """``anova_distances`` over the frames of pair rows and their covariates."""
    return anova_distances(*frames(pairs, covs, schema), schema, *args, **kwargs)


def dataset(levels_and_distances, schema_names=("g",)):
    pairs, covs = [], {}
    for i, (levels, dist) in enumerate(levels_and_distances):
        pid = f"p{i}"
        pairs.append(pair(pid, "a", "b", True, dist))
        covs[pid] = Covariates(dict(zip(schema_names, levels)), {})
    return pairs, covs


def test_two_groups_all_between_variance():
    pairs, covs = dataset([(("A",), 1.0), (("A",), 1.0), (("B",), 3.0), (("B",), 3.0)])
    table = anova(pairs, covs, SCHEMA_G, Subset.POSITIVES, ["g"])
    assert table.factors[0].eta_squared == 1.0
    assert table.residual_ss == pytest.approx(0.0, abs=1e-15)
    assert table.total_ss == pytest.approx(4.0)
    assert table.factors[0].df == 1


def test_two_groups_no_between_variance():
    pairs, covs = dataset([(("A",), 1.0), (("A",), 3.0), (("B",), 1.0), (("B",), 3.0)])
    table = anova(pairs, covs, SCHEMA_G, Subset.POSITIVES, ["g"])
    assert table.factors[0].eta_squared == pytest.approx(0.0, abs=1e-12)


def test_balanced_two_factor_matches_nested_oracle():
    rng = np.random.default_rng(6)
    rows = []
    for g in ("A", "B"):
        for h in ("U", "V", "W"):
            for _ in range(10):
                base = 2.0 + {"A": 0.0, "B": 1.5}[g] + {"U": 0.0, "V": 0.7, "W": -0.4}[h]
                rows.append(((g, h), base + float(rng.normal(scale=0.3))))
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    table = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g", "h"])

    d = [p.distance for p in pairs]
    g_block = np.array([[1.0 if covs[p.pair_id].categorical["g"] == "B" else 0.0] for p in pairs])
    h_block = np.array(
        [
            [
                1.0 if covs[p.pair_id].categorical["h"] == "V" else 0.0,
                1.0 if covs[p.pair_id].categorical["h"] == "W" else 0.0,
            ]
            for p in pairs
        ]
    )
    total, ss, resid = oracles.sequential_ss(d, [g_block, h_block])
    assert table.total_ss == pytest.approx(total, rel=1e-12)
    assert table.factors[0].sum_squares == pytest.approx(ss[0], rel=1e-9)
    assert table.factors[1].sum_squares == pytest.approx(ss[1], rel=1e-9)
    assert table.residual_ss == pytest.approx(resid, rel=1e-9)
    assert table.factors[1].df == 2

    # balanced layout: order must not matter
    flipped = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["h", "g"])
    by_name = {f.name: f.eta_squared for f in flipped.factors}
    for factor in table.factors:
        assert factor.eta_squared == pytest.approx(by_name[factor.name], abs=1e-10)


def test_eta_identities_and_scaling():
    rng = np.random.default_rng(12)
    rows = []
    for i in range(90):
        g = "AB"[int(rng.integers(2))]
        h = "UVW"[int(rng.integers(3))]
        rows.append(((g, h), float(rng.gamma(2.0, 1.0) + (g == "B"))))
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    table = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g", "h"])

    factor_ss = math.fsum(f.sum_squares for f in table.factors)
    assert abs(factor_ss + table.residual_ss - table.total_ss) <= 1e-8 * table.total_ss
    assert table.r_squared == pytest.approx(
        math.fsum(f.eta_squared for f in table.factors), abs=1e-12
    )
    assert table.r_squared == pytest.approx(1.0 - table.residual_ss / table.total_ss, abs=1e-8)

    scaled_pairs, _ = dataset([((r[0]), r[1] * 7.25) for r in rows], ("g", "h"))
    scaled = anova(scaled_pairs, covs_for(scaled_pairs, rows), SCHEMA_GH,
                             Subset.POSITIVES, ["g", "h"])
    for a, b in zip(table.factors, scaled.factors):
        assert a.eta_squared == pytest.approx(b.eta_squared, abs=1e-10)
    assert table.r_squared == pytest.approx(scaled.r_squared, abs=1e-10)


def covs_for(pairs, rows):
    return {
        p.pair_id: Covariates(dict(zip(("g", "h"), row[0])), {})
        for p, row in zip(pairs, rows)
    }


def test_noise_factor_barely_moves_eta():
    rng = np.random.default_rng(30)
    n = 4000
    rows = []
    for _ in range(n):
        g = "AB"[int(rng.integers(2))]
        h = "UVW"[int(rng.integers(3))]  # pure noise factor
        rows.append(((g, h), 3.0 + (1.0 if g == "B" else 0.0) + float(rng.normal(scale=0.5))))
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    with_noise = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g", "h"])
    alone = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g"])
    delta = abs(with_noise.factors[0].eta_squared - alone.factors[0].eta_squared)
    assert delta < 2 / math.sqrt(n)


def test_collinear_factor_dropped_with_warning():
    rows = [(("A", "U"), 1.0), (("A", "U"), 2.0), (("B", "V"), 3.0), (("B", "V"), 4.0)]
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    table = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g", "h"])
    assert table.factors[1].df == 0
    assert table.factors[1].sum_squares == 0.0
    assert any("collinear" in w for w in table.warnings)


def test_single_level_factor_dropped():
    rows = [(("A", "U"), 1.0), (("A", "U"), 2.0), (("A", "V"), 3.0)]
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    table = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g", "h"])
    assert table.factors[0].df == 0
    assert any("single level" in w for w in table.warnings)


def test_empty_subset():
    pairs, covs = dataset([(("A",), 1.0)])
    with pytest.raises(EmptySubset):
        anova(pairs, covs, SCHEMA_G, Subset.NEGATIVES, ["g"])


def test_continuous_factor_df_one():
    schema = AttributeSchema(
        (
            AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),
            AttributeDef("age", Continuous("years"), Scope.IMAGE),
        )
    )
    rng = np.random.default_rng(2)
    pairs, covs = [], {}
    for i in range(60):
        pid = f"p{i}"
        age = float(rng.uniform(0, 50))
        pairs.append(pair(pid, "a", "b", True, 1.0 + 0.02 * age + float(rng.normal(scale=0.1))))
        covs[pid] = Covariates({"g": "AB"[int(rng.integers(2))]}, {"age": age})
    table = anova(pairs, covs, schema, Subset.POSITIVES, ["g", "age"])
    age_factor = next(f for f in table.factors if f.name == "age")
    assert age_factor.df == 1
    assert age_factor.eta_squared > 0.5


def test_interactions_flag():
    rng = np.random.default_rng(14)
    rows = []
    for g in ("A", "B"):
        for h in ("U", "V"):
            effect = 1.0 if (g == "B") != (h == "V") else 0.0  # pure interaction
            for _ in range(25):
                rows.append(((g, h), 1.0 + effect + float(rng.normal(scale=0.1))))
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    schema = AttributeSchema(
        (
            AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),
            AttributeDef("h", Categorical(("U", "V"), "U"), Scope.IMAGE),
        )
    )
    plain = anova(pairs, covs, schema, Subset.POSITIVES, ["g", "h"])
    assert plain.r_squared < 0.2
    interacted = anova(
        pairs, covs, schema, Subset.POSITIVES, ["g", "h"], interactions=True
    )
    names = [f.name for f in interacted.factors]
    assert "g×h" in names
    inter = next(f for f in interacted.factors if f.name == "g×h")
    assert inter.eta_squared > 0.8


@given(st.integers(0, 2**31 - 1), st.integers(10, 120))
@settings(max_examples=40, deadline=None)
def test_eta_sum_identity_random(seed, n):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        g = "AB"[int(rng.integers(2))]
        h = "UVW"[int(rng.integers(3))]
        rows.append(((g, h), float(rng.random() * 3.0)))
    pairs, covs = dataset(rows, schema_names=("g", "h"))
    table = anova(pairs, covs, SCHEMA_GH, Subset.POSITIVES, ["g", "h"])
    if table.total_ss > 0:
        factor_ss = math.fsum(f.sum_squares for f in table.factors)
        assert abs(factor_ss + table.residual_ss - table.total_ss) <= max(
            1e-8 * table.total_ss, 1e-12
        )
        assert 0.0 <= table.r_squared <= 1.0 + 1e-12


def reference_block(schema, name, values):
    """A factor's columns written out from its values: a continuous value as
    it is, a categorical one as dummies for every observed level but the
    reference (or, when the reference is not observed, the first observed
    level), in the schema's level order."""
    attr = schema[name]
    if not attr.is_categorical:
        return np.array(values, dtype=float)[:, None]
    observed = [level for level in attr.levels if level in values]
    reference = attr.reference if attr.reference in observed else observed[0]
    return np.array(
        [[v == level for level in observed if level != reference] for v in values], dtype=float
    ).reshape(len(values), -1)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    g_levels=st.sampled_from(["A", "B", "AB"]),
    h_mode=st.sampled_from(["free", "single", "follows-g"]),
    constant_age=st.booleans(),
    interactions=st.booleans(),
    order=st.permutations(["g", "h", "age"]),
    fold_rows=st.sampled_from([1, 3, 4096]),
)
@settings(max_examples=150, deadline=None)
def test_anova_matches_growing_design_reference(
    seed, n, g_levels, h_mode, constant_age, interactions, order, fold_rows
):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        g = g_levels[int(rng.integers(len(g_levels)))]
        h = {"free": "UVW"[int(rng.integers(3))], "single": "W", "follows-g": "UW"[g == "B"]}
        age = 41.3 if constant_age else float(rng.uniform(18, 70))
        rows.append((g, h[h_mode], age, float(rng.gamma(2.0, 0.3))))
    pairs, covs = [], {}
    for i, (g, h, age, dist) in enumerate(rows):
        pairs.append(pair(f"p{i}", "a", "b", True, dist))
        covs[f"p{i}"] = Covariates({"g": g, "h": h}, {"age": age})
    # small slices fold the rows into R over many steps, as a large set does
    with mock.patch.object(favfa.anova, "_FOLD_ROWS", fold_rows):
        table = anova(pairs, covs, SCHEMA_GH_AGE, Subset.POSITIVES, order, interactions)

    columns = dict(zip(["g", "h", "age"], zip(*rows)))
    blocks = [(name, reference_block(SCHEMA_GH_AGE, name, columns[name])) for name in order]
    if interactions:
        mains = dict(blocks)
        for i, a in enumerate(order):
            for b in order[i + 1 :]:
                products = [l * r for l in mains[a].T for r in mains[b].T]
                block = np.column_stack(products) if products else np.zeros((n, 0))
                blocks.append((f"{a}×{b}", block))
    factors, residual, total, warnings = oracles.anova_reference([r[3] for r in rows], blocks)

    assert [(f.name, f.df) for f in table.factors] == [(name, df) for name, df, _ in factors]
    assert list(table.warnings) == warnings
    tol = 1e-12 * total
    assert abs(table.total_ss - total) <= tol
    assert abs(table.residual_ss - residual) <= tol
    for f, (_, _, ss) in zip(table.factors, factors):
        assert abs(f.sum_squares - ss) <= tol
