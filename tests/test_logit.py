from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import Covariates, frames, pair
from favfa import logit
from favfa.data import (
    CROSS_LEVEL,
    Label,
    Subset,
    consolidate_identity_attributes,
    covariates_for_pairs,
    load_images,
    load_pairs,
)
from favfa.errors import (
    ConstantColumn,
    EmptySubset,
    FavfaError,
    NotConverged,
    QuasiSeparation,
    SingularInformation,
)
from favfa.logit import (
    DesignMatrix,
    LogitFit,
    bootstrap_marginal_effects,
    build_design,
    effect_key,
    fit_logit,
    interpret,
    marginal_effects,
    summarize_fit,
)
from favfa.metrics import optimize_threshold
from favfa.report import MODEL_SUBSETS
from favfa.schema import (
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
    load_schema,
)
from favfa.util import named_seed
from synth import make_verification_dataset

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"


def design_2x2(k1=30, n1=40, k0=10, n0=40):
    x = np.array([1.0] * n1 + [0.0] * n0)
    y = np.array([1.0] * k1 + [0.0] * (n1 - k1) + [1.0] * k0 + [0.0] * (n0 - k0))
    return DesignMatrix(
        X=np.column_stack([np.ones(n1 + n0), x]),
        y=y,
        columns=("intercept", "x=yes"),
        categorical_columns={"x": {"yes": 1}},
        continuous_columns={},
        standardization={},
        subset=Subset.POSITIVES,
    )


X_SCHEMA = AttributeSchema(
    (AttributeDef("x", Categorical(("no", "yes"), "no"), Scope.IMAGE),)
)


# --- build_design ---


def two_cat_two_cont_dataset():
    schema = AttributeSchema(
        (
            AttributeDef("gender", Categorical(("Male", "Female"), "Male"), Scope.IDENTITY),
            AttributeDef(
                "ethnicity",
                Categorical(("Caucasian", "African", "Asian", "Indian"), "Caucasian"),
                Scope.IDENTITY,
            ),
            AttributeDef("age", Continuous("years"), Scope.IMAGE),
            AttributeDef("pose", Continuous("degrees"), Scope.IMAGE),
        )
    )
    rng = np.random.default_rng(3)
    pairs, covs = [], {}
    genders = ("Male", "Female")
    eths = ("Caucasian", "African", "Asian", "Indian")
    for i in range(160):
        pid = f"p{i}"
        pairs.append(pair(pid, "a", "b", True, 0.4, predicted=bool(rng.integers(2))))
        covs[pid] = Covariates(
            {
                "gender": genders[rng.integers(2)] if i >= 2 else genders[i],
                "ethnicity": eths[rng.integers(4)] if i >= 4 else eths[i],
            },
            {"age": float(rng.uniform(20, 60)), "pose": float(rng.uniform(0, 40))},
        )
    return schema, pairs, covs


def test_build_design_column_arithmetic():
    schema, pairs, covs = two_cat_two_cont_dataset()
    design = build_design(*frames(pairs, covs, schema), schema, Subset.POSITIVES)
    # intercept + 1 gender dummy + 3 ethnicity dummies + 2 continuous
    assert design.X.shape[1] == 7
    assert design.columns == (
        "intercept", "gender=Female", "ethnicity=African", "ethnicity=Asian",
        "ethnicity=Indian", "age", "pose",
    )
    # standardized continuous columns
    assert abs(design.X[:, 5].mean()) < 1e-12
    assert design.X[:, 5].std() == pytest.approx(1.0)


def test_build_design_missing_level_constant_column():
    schema, pairs, covs = two_cat_two_cont_dataset()
    for cov in covs.values():
        if cov.categorical["ethnicity"] == "African":
            cov.categorical["ethnicity"] = "Asian"
    with pytest.raises(ConstantColumn) as err:
        build_design(*frames(pairs, covs, schema), schema, Subset.POSITIVES)
    assert err.value.label == "ethnicity=African"


def test_build_design_response_matches_oracle():
    schema, pairs, covs = two_cat_two_cont_dataset()
    design = build_design(*frames(pairs, covs, schema), schema, Subset.POSITIVES)
    expected = [1.0 if p.predicted is Label.SAME else 0.0 for p in pairs]
    assert list(design.y) == expected


def test_build_design_empty_subset():
    schema, pairs, covs = two_cat_two_cont_dataset()
    with pytest.raises(EmptySubset):
        build_design(*frames(pairs, covs, schema), schema, Subset.NEGATIVES)


# --- fit_logit ---


def test_fit_closed_form_2x2():
    fit = fit_logit(design_2x2())
    beta0, beta1 = oracles.logodds_2x2(30, 40, 10, 40)
    assert fit.converged and fit.iterations <= 25
    assert fit.beta[0] == pytest.approx(beta0, abs=1e-8)
    assert fit.beta[1] == pytest.approx(beta1, abs=1e-8)
    assert fit.beta[0] == pytest.approx(-1.098612, abs=1e-6)
    assert fit.beta[1] == pytest.approx(2.197225, abs=1e-6)


@given(
    st.integers(1, 39), st.integers(1, 39), st.integers(10, 40), st.integers(10, 40)
)
@settings(max_examples=40, deadline=None)
def test_fit_saturated_2x2_property(k1, k0, extra1, extra0):
    n1, n0 = k1 + extra1, k0 + extra0
    fit = fit_logit(design_2x2(k1, n1, k0, n0))
    beta0, beta1 = oracles.logodds_2x2(k1, n1, k0, n0)
    assert fit.beta[0] == pytest.approx(beta0, abs=1e-8)
    assert fit.beta[1] == pytest.approx(beta1, abs=1e-8)


def test_fit_null_effect_within_3se():
    rng = np.random.default_rng(17)
    n = 5000
    x = rng.integers(0, 2, n).astype(float)
    y = (rng.random(n) < 0.5).astype(float)
    design = DesignMatrix(
        X=np.column_stack([np.ones(n), x]), y=y, columns=("intercept", "x"),
        categorical_columns={}, continuous_columns={}, standardization={},
        subset=Subset.POSITIVES,
    )
    fit = fit_logit(design)
    se = math.sqrt(fit.covariance[1, 1])
    assert abs(fit.beta[1]) < 3 * se


def test_fit_detects_singular_information():
    from favfa.errors import SingularInformation

    rng = np.random.default_rng(2)
    n = 100
    z = rng.normal(size=n)
    x = np.column_stack([np.ones(n), z, 2.0 * z])  # exact collinearity
    y = (rng.random(n) < 0.5).astype(float)
    design = DesignMatrix(
        X=x, y=y, columns=("intercept", "z", "z2"), categorical_columns={},
        continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
    )
    with pytest.raises(SingularInformation):
        fit_logit(design)


def test_fit_detects_separation():
    x = np.array([0.0] * 25 + [1.0] * 25)
    design = DesignMatrix(
        X=np.column_stack([np.ones(50), x]), y=x.copy(), columns=("intercept", "x"),
        categorical_columns={}, continuous_columns={}, standardization={},
        subset=Subset.POSITIVES,
    )
    with pytest.raises(QuasiSeparation):
        fit_logit(design)


def test_fit_score_equations_and_monotone_loglik():
    rng = np.random.default_rng(8)
    n = 800
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 2, n)])
    eta = x @ np.array([-0.5, 0.8, -0.4])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    design = DesignMatrix(
        X=x, y=y, columns=("intercept", "z", "d"), categorical_columns={},
        continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
    )
    fit = fit_logit(design, tol=1e-8)
    mu = 1 / (1 + np.exp(-(x @ fit.beta)))
    assert np.max(np.abs(x.T @ (y - mu))) < 1e-8
    assert all(b >= a - 1e-12 for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))


def test_fit_converges_where_loglik_rounding_exceeds_fixed_slack():
    # |log-likelihood| is in the thousands here, so near the optimum a
    # correct Newton step can lower it by more than 1e-12 through rounding
    # alone; a fixed slack halved every such step and stalled at max_iter
    dataset = make_verification_dataset(
        n_identities=400, n_positive=10_000, n_negative=10_000, seed=0,
        fmr_bias={"African": 0.08},
    )
    threshold = optimize_threshold(dataset.pairs)
    covariates = covariates_for_pairs(dataset.pairs, dataset.images, dataset.schema)
    design = build_design(
        dataset.pairs, covariates, dataset.schema, Subset.POSITIVES, threshold
    )
    fit = fit_logit(design)
    assert fit.converged
    assert fit.iterations < 10


def test_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(9)
    n = 400
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = (rng.random(n) < 0.4).astype(float)

    def fit_with(order):
        design = DesignMatrix(
            X=x[order], y=y[order], columns=("intercept", "z"),
            categorical_columns={}, continuous_columns={}, standardization={},
            subset=Subset.POSITIVES,
        )
        return fit_logit(design).beta

    base = fit_with(np.arange(n))
    perm = fit_with(rng.permutation(n))
    assert np.allclose(base, perm, atol=1e-10)


def test_fit_standardization_invariance():
    schema, pairs, covs = two_cat_two_cont_dataset()
    design = build_design(*frames(pairs, covs, schema), schema, Subset.POSITIVES)
    fit = fit_logit(design)
    effects = marginal_effects(fit, design, schema)

    raw = design.X.copy()
    for name, j in design.continuous_columns.items():
        mean, std = design.standardization[name]
        raw[:, j] = raw[:, j] * std + mean
    raw_design = DesignMatrix(
        X=raw, y=design.y, columns=design.columns,
        categorical_columns=design.categorical_columns,
        continuous_columns=design.continuous_columns,
        standardization={name: (0.0, 1.0) for name in design.continuous_columns},
        subset=design.subset,
    )
    raw_fit = fit_logit(raw_design)
    from scipy.special import expit

    assert np.allclose(
        expit(design.X @ fit.beta), expit(raw_design.X @ raw_fit.beta), atol=1e-10
    )
    raw_effects = marginal_effects(raw_fit, raw_design, schema)
    for a, b in zip(effects, raw_effects):
        assert a.estimate == pytest.approx(b.estimate, abs=1e-10)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-10)


def test_fit_cross_check_against_statsmodels():
    sm = pytest.importorskip("statsmodels.api")
    rng = np.random.default_rng(21)
    n = 1500
    x = np.column_stack(
        [np.ones(n), rng.integers(0, 2, n), rng.normal(size=n), rng.normal(size=n)]
    )
    eta = x @ np.array([-0.3, 0.6, -0.5, 0.25])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    design = DesignMatrix(
        X=x, y=y, columns=("intercept", "d", "z1", "z2"), categorical_columns={},
        continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
    )
    fit = fit_logit(design)
    reference = sm.Logit(y, x).fit(disp=0, method="newton")
    assert np.allclose(fit.beta, reference.params, atol=1e-6)
    assert np.allclose(fit.covariance, reference.cov_params(), atol=1e-6)


# --- marginal effects ---


def test_marginal_effect_2x2_is_half():
    fit = fit_logit(design_2x2())
    design = design_2x2()
    effects = marginal_effects(fit, design, X_SCHEMA)
    assert len(effects) == 1
    assert effects[0].estimate == pytest.approx(0.5, abs=1e-10)
    assert effects[0].significant


def test_marginal_effect_zero_beta():
    fit = LogitFit(
        beta=np.array([0.3, 0.0]),
        covariance=np.eye(2) * 0.01,
        log_likelihood=-1.0,
        iterations=1,
        converged=True,
        columns=("intercept", "x=yes"),
        ll_trace=(-1.0,),
    )
    effects = marginal_effects(fit, design_2x2(), X_SCHEMA)
    assert effects[0].estimate == 0.0
    assert effects[0].p_value == 1.0
    assert not effects[0].significant


def test_marginal_effects_require_convergence():
    fit = fit_logit(design_2x2())
    fit.converged = False
    with pytest.raises(NotConverged):
        marginal_effects(fit, design_2x2(), X_SCHEMA)


def test_marginal_effects_match_finite_difference_oracle():
    schema, pairs, covs = two_cat_two_cont_dataset()
    design = build_design(*frames(pairs, covs, schema), schema, Subset.POSITIVES)
    fit = fit_logit(design)
    effects = marginal_effects(fit, design, schema)
    for effect in effects:
        if effect.level is not None:
            cols = design.categorical_columns[effect.attribute]
            got = oracles.ame_categorical_fd(
                design.X, fit.beta, list(cols.values()), cols[effect.level]
            )
            assert effect.estimate == pytest.approx(got, abs=1e-12)
        else:
            j = design.continuous_columns[effect.attribute]
            _, std = design.standardization[effect.attribute]
            got = oracles.ame_continuous_fd(design.X, fit.beta, j, std)
            assert effect.estimate == pytest.approx(got, abs=1e-7)


def test_marginal_effect_recovers_simulated_gap():
    # Monte-Carlo oracle: one level carries a +0.10 outcome-probability gap
    rng = np.random.default_rng(50_000)
    n = 50_000
    is_level = rng.integers(0, 2, n).astype(float)
    prob = np.where(is_level > 0, 0.15, 0.05)
    y = (rng.random(n) < prob).astype(float)
    design = DesignMatrix(
        X=np.column_stack([np.ones(n), is_level]), y=y, columns=("intercept", "x=yes"),
        categorical_columns={"x": {"yes": 1}}, continuous_columns={},
        standardization={}, subset=Subset.NEGATIVES,
    )
    fit = fit_logit(design)
    effects = marginal_effects(fit, design, X_SCHEMA)
    assert effects[0].estimate == pytest.approx(0.10, abs=0.02)
    assert effects[0].significant


def test_bootstrap_close_to_delta_method():
    rng = np.random.default_rng(4)
    n = 3000
    d = rng.integers(0, 2, n).astype(float)
    z = rng.normal(size=n)
    x = np.column_stack([np.ones(n), d, z])
    eta = x @ np.array([-0.8, 0.9, 0.5])
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    schema = AttributeSchema(
        (
            AttributeDef("d", Categorical(("no", "yes"), "no"), Scope.IMAGE),
            AttributeDef("z", Continuous("units"), Scope.IMAGE),
        )
    )
    design = DesignMatrix(
        X=x, y=y, columns=("intercept", "d=yes", "z"),
        categorical_columns={"d": {"yes": 1}}, continuous_columns={"z": 2},
        standardization={"z": (0.0, 1.0)}, subset=Subset.POSITIVES,
    )
    fit = fit_logit(design)
    effects = marginal_effects(fit, design, schema)
    ses, used, _ = bootstrap_marginal_effects(fit, design, schema, n_boot=300, seed=7)
    assert used >= 290
    for effect in effects:
        boot = ses[(effect.attribute, effect.level)]
        assert abs(boot - effect.std_error) <= 0.25 * effect.std_error


def test_bootstrap_deterministic():
    design = design_2x2(25, 40, 15, 40)
    fit = fit_logit(design)
    first = bootstrap_marginal_effects(fit, design, X_SCHEMA, n_boot=120, seed=3)
    second = bootstrap_marginal_effects(fit, design, X_SCHEMA, n_boot=120, seed=3)
    assert first == second


def test_bootstrap_single_resample_has_no_standard_errors():
    # one usable resample gives no spread: every effect is left out, not NaN
    design = design_2x2(25, 40, 15, 40)
    ses, used, iterations = bootstrap_marginal_effects(
        fit_logit(design), design, X_SCHEMA, n_boot=1
    )
    assert (ses, used) == ({}, 1)
    assert iterations > 0


def test_bootstrap_needs_a_converged_fit():
    design = design_2x2(25, 40, 15, 40)
    fit = replace(fit_logit(design), converged=False)
    with pytest.raises(NotConverged):
        bootstrap_marginal_effects(fit, design, X_SCHEMA, n_boot=5)


def test_bootstrap_seeds_equal_one_spawn():
    # the seeds are spawned a block at a time; each resample must still get
    # the child that one spawn of n_boot children gives it
    design = design_2x2(25, 40, 15, 40)
    fit = fit_logit(design)
    want = [(c.entropy, c.spawn_key) for c in np.random.SeedSequence(5).spawn(17)]
    real = np.random.default_rng
    for block in (1, 3, 16, 17, 100):
        seen = []

        def recording(child):
            seen.append((child.entropy, child.spawn_key))
            return real(child)

        with (
            patch.object(logit, "_BOOT_ELEMENTS", block * design.n),
            patch.object(np.random, "default_rng", recording),
        ):
            bootstrap_marginal_effects(fit, design, X_SCHEMA, n_boot=17, seed=5)
        assert seen == want, block


# --- marginal effects against the copy-based oracle ---


def random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale):
    """A design as build_design lays it out: intercept; attribute ``a``'s
    non-reference levels and ``Cross``; attribute ``b``'s non-reference
    levels; standardized continuous columns. Every level occurs. The
    response is drawn from the logit with coefficients ``coef_scale`` times
    standard normals, which are returned with a random covariance."""
    rng = np.random.default_rng(seed)
    a_names = tuple(f"a{i}" for i in range(a_levels))
    b_names = tuple(f"b{i}" for i in range(b_levels))
    continuous = tuple(f"z{k}" for k in range(n_continuous))
    schema = AttributeSchema(
        (
            AttributeDef("a", Categorical(a_names, "a0"), Scope.IDENTITY),
            AttributeDef("b", Categorical(b_names, "b0"), Scope.IMAGE),
            *(AttributeDef(name, Continuous("units"), Scope.IMAGE) for name in continuous),
        )
    )
    columns, blocks = ["intercept"], [np.ones(n)]
    categorical_columns = {}
    for name, levels in (("a", a_names[1:] + (CROSS_LEVEL,)), ("b", b_names[1:])):
        codes = rng.integers(0, len(levels) + 1, n)  # 0 is the reference
        codes[: len(levels) + 1] = np.arange(len(levels) + 1)
        col_map = {}
        for code, level in enumerate(levels, start=1):
            col_map[level] = len(columns)
            columns.append(f"{name}={level}")
            blocks.append((codes == code).astype(float))
        categorical_columns[name] = col_map
    continuous_columns, standardization = {}, {}
    for name in continuous:
        raw = rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 20), n)
        mean, std = float(raw.mean()), float(raw.std())
        continuous_columns[name] = len(columns)
        standardization[name] = (mean, std)
        columns.append(name)
        blocks.append((raw - mean) / std)
    X = np.column_stack(blocks)
    p = X.shape[1]
    beta = coef_scale * rng.normal(size=p)
    root = rng.normal(size=(p, p))
    cov = root @ root.T / (p * n)
    y = (rng.random(n) < 1 / (1 + np.exp(-(X @ beta)))).astype(float)
    design = DesignMatrix(
        X=X, y=y, columns=tuple(columns), categorical_columns=categorical_columns,
        continuous_columns=continuous_columns, standardization=standardization,
        subset=Subset.NEGATIVES,
    )
    return schema, design, beta, cov


def assert_close(got, want, allowance=0.0):
    # the two formulas sum the same terms in another order; ``allowance`` is
    # a bound on what that order can move when the value is ill-conditioned
    assert abs(got - want) <= max(1e-12 * abs(want), allowance, 1e-15), (got, want, allowance)


design_params = (
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(2, 3),
    st.integers(1, 2),
)


@given(*design_params, st.integers(20, 400), st.floats(0.0, 3.0))
@settings(max_examples=80, deadline=None)
def test_marginal_effects_equal_copy_oracle(seed, a_levels, b_levels, n_continuous, n, coef_scale):
    schema, design, beta, cov = random_design(
        seed, n, a_levels, b_levels, n_continuous, coef_scale
    )
    fit = LogitFit(
        beta=beta, covariance=cov, log_likelihood=0.0, iterations=0, converged=True,
        columns=design.columns, ll_trace=(),
    )
    effects = marginal_effects(fit, design, schema)
    want = oracles.marginal_effects_copy(design, beta, cov, schema)
    assert [effect_key(e) for e in effects] == [key for key, _, _ in want]
    for effect, (_, estimate, std_error) in zip(effects, want):
        assert_close(effect.estimate, estimate)
        assert_close(effect.std_error, std_error)


# --- the frequency-weighted IRLS kernel against the row-copy oracle ---


def converged_at(design, beta):
    """``beta`` as a converged fit of ``design``, for a bootstrap to start from."""
    return LogitFit(
        beta=beta, covariance=np.eye(len(beta)), log_likelihood=0.0, iterations=0,
        converged=True, columns=design.columns, ll_trace=(),
    )


@given(*design_params, st.integers(60, 200), st.floats(0.0, 1.5), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_bootstrap_equals_copy_oracle_loop(
    seed, a_levels, b_levels, n_continuous, n, coef_scale, boot_seed
):
    schema, design, beta, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    # from the full-sample fit, as in run_analysis; where there is none, from
    # the coefficients that drew the responses
    try:
        fit = fit_logit(design)
    except FavfaError:
        fit = None
    if fit is None or not fit.converged:
        fit = converged_at(design, beta)
    ses, used, _ = bootstrap_marginal_effects(fit, design, schema, n_boot=10, seed=boot_seed)
    want, want_used, allowances = oracles.bootstrap_rowcopy(fit, design, schema, 10, boot_seed)
    assert used == want_used
    assert ses.keys() == want.keys()
    for key, se in ses.items():
        assert_close(se, want[key], allowances[key])


def schema_order(design, schema):
    """Effect keys in schema order, each categorical's levels in design-column order."""
    keys = []
    for attr in schema.attributes:
        if attr.is_categorical:
            col_map = design.categorical_columns[attr.name]
            keys += [(attr.name, level) for level in sorted(col_map, key=col_map.get)]
        else:
            keys.append((attr.name, None))
    return keys


@pytest.mark.parametrize(
    "order",
    [
        ("age", "gender", "ethnicity", "pose"),  # a continuous attribute first
        ("gender", "age", "ethnicity", "pose"),  # one between two categoricals
    ],
)
def test_effects_keep_schema_order(order):
    base, pairs, covs = two_cat_two_cont_dataset()
    schema = AttributeSchema(tuple(base[name] for name in order))
    design = build_design(*frames(pairs, covs, schema), schema, Subset.POSITIVES)
    assert design.columns[1] == ("age" if order[0] == "age" else "gender=Female")
    want = schema_order(design, schema)

    fit = fit_logit(design)
    effects = marginal_effects(fit, design, schema)
    assert [effect_key(e) for e in effects] == want
    oracle = oracles.marginal_effects_copy(design, fit.beta, fit.covariance, schema)
    for effect, (_, estimate, std_error) in zip(effects, oracle):
        assert_close(effect.estimate, estimate)
        assert_close(effect.std_error, std_error)

    ses, used, _ = bootstrap_marginal_effects(fit, design, schema, n_boot=10, seed=5)
    boot, want_used, allowances = oracles.bootstrap_rowcopy(fit, design, schema, 10, 5)
    assert used == want_used >= 2
    assert list(ses) == list(boot) == want
    for key, se in ses.items():
        assert_close(se, boot[key], allowances[key])


# --- memory of a bootstrap block ---


def test_bootstrap_block_memory():
    # one block of 10 resamples over 6,000 rows, laid out like the FMR model;
    # besides the column-product table the block holds its counts and at most
    # four arrays of its shape at once: 5.0 such arrays at the peak here
    schema, design, _, _ = random_design(7, 6000, 4, 3, 2, 0.5)
    n, p = design.X.shape
    assert (p, logit._BOOT_ELEMENTS // n) == (9, 10)
    fit = fit_logit(design)
    tracemalloc.start()
    try:
        _, used, _ = bootstrap_marginal_effects(fit, design, schema, n_boot=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert used == 10
    table = n * p * (p + 1) // 2 * 8
    assert (peak - table) / (10 * n * 8) < 6.5


def assert_same_error_message(got, want):
    """The same message, except that the iteration counts of two
    ``COEF_LIMIT`` messages may differ by one: the two routes sum the score
    and the information in different orders, so coefficients that grow
    without bound can cross the limit one iteration apart."""
    crossed = f"coefficient magnitude exceeded {logit.COEF_LIMIT} after "
    if got.startswith(crossed) and want.startswith(crossed):
        counts = [int(m.removeprefix(crossed).removesuffix(" iterations")) for m in (got, want)]
        assert abs(counts[0] - counts[1]) <= 1, (got, want)
    else:
        assert got == want


@given(
    *design_params, st.integers(8, 80), st.floats(0.0, 4.0), st.integers(1, 50), st.booleans()
)
@settings(max_examples=80, deadline=None)
# converged with |beta| near 21.6 and an information matrix of condition
# number 2.9e9: the two fits' coefficients lie 1e-7 apart
@example(362017, 2, 2, 1, 47, 2.0, 21, False)
# a doubled column whose information matrix factorizes through rounding
@example(2, 4, 2, 1, 75, 3.0, 2, True)
# separated: the oracle's coefficients pass COEF_LIMIT one iteration later
@example(281418624, 4, 3, 2, 12, 0.022723336243564596, 26, False)
def test_fit_logit_equals_rowcopy_oracle(
    seed, a_levels, b_levels, n_continuous, n, coef_scale, max_iter, collinear
):
    # small samples and large coefficients: separation, growth until
    # max_iter, too few rows; a doubled column makes the design rank-deficient
    _, design, _, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    if collinear:
        design = replace(
            design,
            X=np.column_stack([design.X, 2.0 * design.X[:, -1]]),
            columns=(*design.columns, "twice"),
        )
    n, p = design.X.shape
    if n > p and design.y.min() < design.y.max() and np.linalg.matrix_rank(design.X) < p:
        # after the two DegenerateResponse checks, and before any iteration
        with pytest.raises(SingularInformation):
            fit_logit(design, max_iter=max_iter)
        return
    try:
        want = oracles.fit_logit_rowcopy(design.X, design.y, design.subset.value, max_iter)
    except FavfaError as exc:
        with pytest.raises(type(exc)) as raised:
            fit_logit(design, max_iter=max_iter)
        assert_same_error_message(str(raised.value), str(exc))
        return
    fit = fit_logit(design, max_iter=max_iter)
    assert (fit.iterations, fit.converged) == (want.iterations, want.converged)
    assert len(fit.ll_trace) == len(want.ll_trace)
    allowances = oracles.fit_rounding_allowance(design.X, design.y, want)
    pairs = zip((fit.beta, fit.covariance), (want.beta, want.covariance), allowances)
    for got, ref, allowance in pairs:
        gate = 1e-12 * np.abs(ref).max()
        for g, r, a in zip(got.ravel(), ref.ravel(), allowance.ravel()):
            assert_close(g, r, max(gate, a))


@given(
    *design_params,
    st.integers(8, 40),
    st.floats(0.0, 4.0),
    st.integers(0, 2**32 - 1),
    st.integers(1, 13),
    st.integers(1, 5),
    st.sampled_from([2, 4, 50]),
)
@settings(max_examples=60, deadline=None)
def test_bootstrap_blocks_equal_rowcopy_oracle(
    seed, a_levels, b_levels, n_continuous, n, coef_scale, boot_seed, n_boot, block, max_iter
):
    # resamples that lose a level or the response variation, separate, or
    # stop at max_iter, refitted in blocks of ``block`` resamples that need
    # not divide n_boot, with and without the column-product table
    schema, design, beta, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    if design.n <= design.X.shape[1] or design.y.min() == design.y.max():
        return  # no model to fit, so none to bootstrap
    # From the coefficients that drew the responses. These small designs
    # often fit near separation, with a coefficient near 20 where the score
    # fell below tol; a step from such an estimate solves a numerically
    # singular system, so which side of COEF_LIMIT it lands on is rounding.
    args = (converged_at(design, beta), design, schema)
    kwargs = dict(n_boot=n_boot, seed=boot_seed, max_iter=max_iter)
    with patch.object(logit, "_BOOT_ELEMENTS", block * n):
        ses, used, _ = bootstrap_marginal_effects(*args, **kwargs)
    want_ses, want_used, allowances = oracles.bootstrap_rowcopy(*args, **kwargs)
    assert used == want_used
    assert ses.keys() == want_ses.keys()
    for key, se in ses.items():
        assert_close(se, want_ses[key], allowances[key])


# --- the certified kernel against the kernel as it was ---


def assert_kernels_agree(X, y, counts, start, max_iter, table=None):
    """``logit._irls`` ends every row as ``oracles.irls_reference`` does, bit
    for bit: coefficients, status, iterations and Cholesky factor, with its
    steps certified and, with ``trace``, with every log-likelihood computed
    and traced. Returns the reference's fits."""
    want = oracles.irls_reference(X, y, counts, start, max_iter, 1e-8, table)
    for trace in (False, True):
        got = logit._irls(X, y, counts, start, max_iter, 1e-8, table, trace=trace)
        for field in ("beta", "status", "iterations", "chol"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (field, trace)
    assert len(got.trace) == len(want.trace)
    assert all(np.array_equal(a, b) for a, b in zip(got.trace, want.trace))
    return want


@given(
    *design_params, st.integers(8, 80), st.floats(0.0, 4.0), st.integers(1, 50), st.booleans()
)
@settings(max_examples=80, deadline=None)
# the three cases of test_fit_logit_equals_rowcopy_oracle: near-singular
# information, a doubled column, separation
@example(362017, 2, 2, 1, 47, 2.0, 21, False)
@example(2, 4, 2, 1, 75, 3.0, 2, True)
@example(281418624, 4, 3, 2, 12, 0.022723336243564596, 26, False)
def test_irls_from_zero_equals_reference(
    seed, a_levels, b_levels, n_continuous, n, coef_scale, max_iter, collinear
):
    # one row of unit weights from zero, as fit_logit runs the kernel, on the
    # designs of test_fit_logit_equals_rowcopy_oracle; the fit's ll_trace
    # must equal the reference's too
    _, design, _, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    if collinear:
        design = replace(
            design,
            X=np.column_stack([design.X, 2.0 * design.X[:, -1]]),
            columns=(*design.columns, "twice"),
        )
    X, y = design.X, design.y
    want = assert_kernels_agree(X, y, np.ones((1, n)), np.zeros(X.shape[1]), max_iter)
    try:
        fit = fit_logit(design, max_iter=max_iter)
    except FavfaError:
        return
    assert fit.ll_trace == tuple(float(ll[0]) for ll in want.trace[: fit.iterations + 1])


def test_irls_equals_reference_on_every_ending():
    # from (-3, 3) one step shrinks the coefficients without converging; x=yes
    # always matches on the separated design: its coefficient grows until
    # max_iter, or from 28 past COEF_LIMIT; a zero column never factorizes
    ok, separated = design_2x2(), design_2x2(40, 40, 10, 40)
    zero_column = np.column_stack([ok.X, np.zeros(ok.n)])
    cases = [
        (ok.X, ok.y, (0.0, 0.0), 50, logit._CONVERGED),
        (ok.X, ok.y, (-3.0, 3.0), 1, logit._NOT_CONVERGED),
        (separated.X, separated.y, (0.0, 0.0), 3, logit._GROWING),
        (separated.X, separated.y, (0.0, 28.0), 50, logit._SEPARATED),
        (zero_column, ok.y, (0.0, 0.0, 0.0), 50, logit._SINGULAR),
    ]
    for X, y, start, max_iter, status in cases:
        want = assert_kernels_agree(X, y, np.ones((1, len(y))), np.array(start), max_iter)
        assert want.status[0] == status


@given(
    *design_params,
    st.integers(20, 400),
    st.floats(0.0, 2.0),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.integers(1, 50),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_irls_blocks_equal_reference(
    seed, a_levels, b_levels, n_continuous, n, coef_scale, boot_seed, k, max_iter, with_table
):
    # a bootstrap block of k resamples from the full-sample estimate (from
    # the coefficients that drew the responses where there is none), with
    # and without the column-product table
    _, design, beta, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    try:
        beta = fit_logit(design).beta
    except FavfaError:
        pass
    rng = np.random.default_rng(boot_seed)
    counts = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(k)])
    table = logit._column_products(design.X) if with_table else None
    assert_kernels_agree(design.X, design.y, counts.astype(float), beta, max_iter, table)


def test_irls_halving_equals_reference():
    # at (6, 0) the 2x2 design's log-likelihood is nearly flat, so the full
    # Newton step overshoots and lowers it: no certificate, and the floor
    # sends the row through the halving, alone and in a block of resamples
    design = design_2x2()
    n, start = design.n, np.array([6.0, 0.0])
    rng = np.random.default_rng(0)
    resamples = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(4)])
    real = logit._log_likelihood
    for counts in (np.ones((1, n)), resamples.astype(float)):
        calls = []

        def counting(eta, y, counts):
            calls.append(len(counts))
            return real(eta, y, counts)

        with patch.object(logit, "_log_likelihood", counting):
            want = oracles.irls_reference(design.X, design.y, counts, start, 50, 1e-8)
        # pass 0, one call per iteration, and at least one halving
        assert len(calls) > 1 + want.iterations.max()
        assert (want.status == logit._CONVERGED).all()
        assert_kernels_agree(design.X, design.y, counts, start, 50)


@given(
    *design_params,
    st.integers(20, 400),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_certified_steps_pass_the_floor(
    seed, a_levels, b_levels, n_continuous, n, coef_scale, boot_seed, closeness
):
    # steps along the Newton direction, from 10^-closeness off the estimate
    # (off the coefficients that drew the responses where there is none), out
    # to and across where the floor first rejects one, found by bisection: a
    # certified step must pass the floor as _log_likelihood computes it, so
    # the first rejected step must not be certified, and the log-likelihood
    # may not fall below what the certificate's bound allows
    _, design, beta, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    try:
        beta = fit_logit(design).beta
    except FavfaError:
        pass
    X, y = design.X, design.y
    rng = np.random.default_rng(boot_seed)
    counts = np.stack([np.ones(n), np.bincount(rng.integers(0, n, size=n), minlength=n)])
    beta = beta + 10.0**-closeness * rng.standard_normal((2, len(beta)))
    reach, total = np.abs(X).max(axis=0), counts.sum(axis=1)
    mu = logit.expit(beta @ X.T)
    grad = logit._sum_over_rows((y - mu) * counts, X)
    chol, ok = logit._cholesky(logit._information(X, mu * (1 - mu) * counts, None))
    if not ok.all():
        return
    half = np.linalg.solve(chol, grad[:, :, None])
    delta = np.linalg.solve(chol.transpose(0, 2, 1), half)[:, :, 0]
    ll = logit._log_likelihood(beta @ X.T, y, counts)
    low = logit._nll_lower_bound(ll, beta, total, reach, n)
    floor = ll - 1e-12 * np.maximum(1.0, np.abs(ll))

    def certify(step):
        candidate = beta + step[:, None] * delta
        sure, drop = logit._certified(grad, chol, beta, candidate, low, total, reach, n)
        ll_step = logit._log_likelihood(candidate @ X.T, y, counts)
        passed = ll_step >= floor
        assert not (sure & ~passed).any()
        assert (-ll_step[sure] >= (low - drop)[sure]).all()
        return sure, passed

    accepted, rejected = np.zeros(2), np.full(2, np.inf)
    for step in np.linspace(0.25, 8.0, 32):
        _, passed = certify(np.full(2, step))
        grow = passed & np.isinf(rejected)
        accepted[grow] = step
        rejected[~passed & np.isinf(rejected)] = step
    crossed = np.isfinite(rejected)
    if not crossed.any():
        return
    rejected[~crossed] = accepted[~crossed]
    for _ in range(50):
        mid = (accepted + rejected) / 2
        _, passed = certify(mid)
        accepted = np.where(crossed & passed, mid, accepted)
        rejected = np.where(crossed & ~passed, mid, rejected)
    sure, passed = certify(rejected)
    assert not (sure & crossed).any()


# --- refits from the full-sample estimate against refits from zero ---


def assert_warm_start_within_tol(fit, design, schema, n_boot, seed):
    """Refits from ``fit``'s estimate use the same resamples as refits from
    zero, and their standard errors lie within what two stops anywhere with
    a score below the bootstrap's ``tol`` = 1e-8 can move them
    (``oracles.bootstrap_rowcopy`` with that much score slack, to first
    order)."""
    warm, used, _ = bootstrap_marginal_effects(fit, design, schema, n_boot=n_boot, seed=seed)
    zero = replace(fit, beta=np.zeros_like(fit.beta))
    cold, cold_used, _ = bootstrap_marginal_effects(zero, design, schema, n_boot=n_boot, seed=seed)
    _, _, allowances = oracles.bootstrap_rowcopy(
        fit, design, schema, n_boot, seed, score_slack=1e-8
    )
    assert used == cold_used
    assert warm.keys() == cold.keys()
    for key, se in warm.items():
        assert abs(se - cold[key]) <= allowances[key], (key, se, cold[key], allowances[key])


def test_warm_start_within_tol_on_demo():
    # both models of ``favfa analyze --bootstrap 20`` on data/demo
    schema = load_schema(DEMO / "schema.json")
    images = consolidate_identity_attributes(load_images(DEMO / "images.csv", schema), schema)
    pairs = load_pairs(DEMO / "pairs.csv", images)
    covs = covariates_for_pairs(pairs, images, schema)
    threshold = optimize_threshold(pairs)
    for model, subset in MODEL_SUBSETS.items():
        design = build_design(pairs, covs, schema, subset, threshold)
        seed = named_seed(0, f"bootstrap:{model}")
        assert_warm_start_within_tol(fit_logit(design), design, schema, 20, seed)


# Near separation the two starts can end a resample differently: a refit from
# an estimate with a coefficient near 20 can cross COEF_LIMIT where one from
# zero stops short of it with a score below tol, or the reverse. At 60-200 rows
# and coefficients up to 1.5, ``used`` differed in about 1 design in 30 (in
# most of them the full-sample fit itself stopped near separation). These
# designs keep every cell far from it: 300 rows or more, coefficients at most
# 0.5.
@given(*design_params, st.integers(300, 1000), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_warm_start_within_tol(seed, a_levels, b_levels, n_continuous, n, coef_scale, boot_seed):
    schema, design, _, _ = random_design(seed, n, a_levels, b_levels, n_continuous, coef_scale)
    fit = fit_logit(design)
    assert_warm_start_within_tol(fit, design, schema, 10, boot_seed)


# --- sums over the observations ---


def spread_values(rng, shape):
    """Normal values scaled over +-8 decades, about one in ten of them -0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    values[rng.random(shape) < 0.1] = -0.0
    return values


@given(
    st.one_of(
        st.integers(1, logit._INFO_ROWS - 1),
        st.integers(1, 12).map(lambda slices: slices * logit._INFO_ROWS),
        st.integers(logit._INFO_ROWS + 1, 6500),
    ),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
# one row times one column: numpy's add.reduce sums those slices pairwise
@example(6000, 1, 1, False, 0)
@example(6000, 1, 1, True, 0)
def test_sum_over_rows_equals_slice_loop(n, k, m, weighted_design, seed):
    rng = np.random.default_rng(seed)
    if weighted_design:
        # the operands of _information: (X * w[:, None]).T, a transposed view, and X
        b = spread_values(rng, (n, k))
        a = (b * rng.random(n)[:, None]).T
    else:
        a, b = spread_values(rng, (k, n)), spread_values(rng, (n, m))
    got, want = logit._sum_over_rows(a, b), oracles.sum_over_rows_loop(a, b)
    assert got.shape == want.shape == (k, b.shape[1])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- reporting helpers ---


def test_summarize_fit_shape():
    fit = fit_logit(design_2x2())
    rows = summarize_fit(fit)
    assert [r["term"] for r in rows] == ["intercept", "x=yes"]
    assert all(0.0 <= r["p_value"] <= 1.0 for r in rows)


def test_interpret_sentences(schema):
    def effect(level, estimate, significant=True):
        from favfa.logit import MarginalEffect

        return MarginalEffect(
            attribute="ethnicity", level=level, unit=None, estimate=estimate,
            std_error=0.01, p_value=0.001 if significant else 0.6,
            significant=significant,
        )

    text = interpret(effect("African", 0.12), schema, model="fmr")
    assert "12 points more likely" in text
    assert "wrongly matched" in text
    assert "Caucasian subgroup" in text
    assert text.startswith("On average and other things being equal")

    text = interpret(effect("Asian", -0.03), schema, model="fmr")
    assert "3 points less likely" in text

    text = interpret(effect("African", 0.12, significant=False), schema)
    assert text.endswith("(not statistically significant)")

    from favfa.logit import MarginalEffect

    cont = MarginalEffect(
        attribute="age", level=None, unit="years", estimate=0.002,
        std_error=0.01, p_value=0.9, significant=False,
    )
    text = interpret(cont, schema, model="tmr")
    assert "correctly matched" in text and "years" in text
