"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Statistical criteria use fixed master seeds; timing criteria assert their
stated budgets.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from conftest import Covariates, frames, image, image_rows, load_tables, pair
from favfa.anova import anova_distances
from favfa.cli import main as cli_main
from favfa.data import Label, Subset, covariates_for_pairs
from favfa.diagnostics import simulate_residuals
from favfa.errors import NoGroups
from favfa.logit import (
    DesignMatrix,
    bootstrap_marginal_effects,
    build_design,
    fit_logit,
    marginal_effects,
)
from favfa.metrics import (
    degree_of_bias,
    demographic_parity,
    diversity,
    equalized_odds,
    group_confusion,
    micro_average_accuracy,
    optimize_threshold,
)
from favfa.planner import resample_epoch, sampling_weights
from favfa.schema import AttributeDef, AttributeSchema, Categorical, Continuous, Scope
from synth import make_planner_pools, make_verification_dataset

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"


class Criterion:
    """Prints `ACCEPTANCE <n> PASS|FAIL (<dt>s): <text>` when the block ends."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.started
        print(f"\nACCEPTANCE {self.number:>2} {verdict} ({elapsed:.1f}s): {self.text}")
        return False


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_metric_oracle_equivalence():
    with Criterion(1, "six fairness metrics match the brute-force oracle exactly "
                      "on 1000 random datasets in under 10s"):
        rng = np.random.default_rng(20240501)
        started = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 1001))
            n_levels = int(rng.integers(2, 9))
            levels = [f"g{k}" for k in range(n_levels)]
            level_idx = rng.integers(0, n_levels, size=n)
            is_pos = rng.random(n) < rng.uniform(0.2, 0.8)
            said = rng.random(n) < rng.uniform(0.2, 0.8, size=n)

            pairs, covs, rows = [], {}, []
            for i in range(n):
                pid = f"p{i}"
                level = levels[level_idx[i]]
                pairs.append(pair(pid, "a", "b", bool(is_pos[i]), 0.5, predicted=bool(said[i])))
                covs[pid] = Covariates({"g": level}, {})
                rows.append(((("g", level),), bool(is_pos[i]), bool(said[i])))

            stats = group_confusion(*frames(pairs, covs), None, ["g"])
            expected = oracles.fairness_metrics(oracles.tally_groups(rows))

            assert degree_of_bias(stats) == expected["dob"]
            assert micro_average_accuracy(stats) == expected["micro"]
            if expected["dpd"] is None:
                with pytest.raises(NoGroups):
                    demographic_parity(stats)
            else:
                assert demographic_parity(stats) == (expected["dpd"], expected["dpr"])
            if expected["eod"] is None:
                with pytest.raises(NoGroups):
                    equalized_odds(stats)
            else:
                assert equalized_odds(stats) == (expected["eod"], expected["eor"])
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"metric-oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_diversity_fidelity():
    with Criterion(2, "normalized-entropy diversity: uniform/point-mass exact, "
                      "(0.7,0.1,0.1,0.1) pinned to the formula's 50-digit "
                      "value to six places"):
        assert diversity([0.5, 0.5], 2) == 1.0
        assert diversity([1.0, 0.0], 2) == 0.0
        got = diversity([0.7, 0.1, 0.1, 0.1], 4)
        # the formula itself, against a 50-digit independent evaluation
        reference = oracles.diversity_highprec([0.7, 0.1, 0.1, 0.1], 4)
        assert got == pytest.approx(reference, abs=1e-9)
        # -(0.7 ln 0.7 + 3 * 0.1 ln 0.1) / ln 4 = 0.678389824723519736... at 50
        # digits, i.e. 0.678390 to six places. An earlier constant, 0.678385,
        # was 4.8e-6 off the formula (outside this window) and matches no
        # rounding or float32 evaluation of it; do not restore it.
        assert got == pytest.approx(0.678390, abs=1e-6)


# ---------------------------------------------------------------- criterion 3


X_SCHEMA = AttributeSchema(
    (AttributeDef("x", Categorical(("no", "yes"), "no"), Scope.IMAGE),)
)


def _design_2x2_via_pipeline():
    pairs, covs = [], {}
    k = 0
    for level, hits, total in (("yes", 30, 40), ("no", 10, 40)):
        for i in range(total):
            pid = f"{level}{i}"
            pairs.append(pair(pid, "a", "b", True, 0.4, predicted=i < hits))
            covs[pid] = Covariates({"x": level}, {})
            k += 1
    return build_design(*frames(pairs, covs, X_SCHEMA), X_SCHEMA, Subset.POSITIVES)


def test_criterion_3_logit_closed_form():
    with Criterion(3, "2x2 logit equals closed-form log-odds within 1e-8 in <=25 "
                      "iterations; marginal effect 0.50 within 1e-10"):
        design = _design_2x2_via_pipeline()
        fit = fit_logit(design)
        assert fit.converged and fit.iterations <= 25
        assert fit.beta[0] == pytest.approx(-1.098612, abs=1e-6)
        assert fit.beta[1] == pytest.approx(2.197225, abs=1e-6)
        beta0, beta1 = oracles.logodds_2x2(30, 40, 10, 40)
        assert fit.beta[0] == pytest.approx(beta0, abs=1e-8)
        assert fit.beta[1] == pytest.approx(beta1, abs=1e-8)
        effects = marginal_effects(fit, design, X_SCHEMA)
        assert effects[0].estimate == pytest.approx(0.50, abs=1e-10)


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_logit_recovery():
    with Criterion(4, "known coefficients at n=50000 recovered within 3 reported "
                      "SEs in >=95 of 100 seeds"):
        truth = np.array([-1.2, 0.7, 0.4])
        master = np.random.SeedSequence(77)
        hits = 0
        for child in master.spawn(100):
            rng = np.random.default_rng(child)
            n = 50_000
            x = np.column_stack(
                [np.ones(n), rng.integers(0, 2, n).astype(float), rng.normal(size=n)]
            )
            y = (rng.random(n) < 1 / (1 + np.exp(-(x @ truth)))).astype(float)
            design = DesignMatrix(
                X=x, y=y, columns=("intercept", "d", "z"), categorical_columns={},
                continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
            )
            fit = fit_logit(design)
            ses = np.sqrt(np.diag(fit.covariance))
            if np.all(np.abs(fit.beta - truth) <= 3 * ses):
                hits += 1
        assert hits >= 95, f"recovered in only {hits}/100 seeds"


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_marginal_effect_oracle():
    with Criterion(5, "delta-method marginal effects match the counterfactual "
                      "finite-difference oracle within 1e-12; bootstrap SEs within "
                      "25% of delta SEs"):
        rng = np.random.default_rng(505)
        n = 3000
        d = rng.integers(0, 2, n).astype(float)
        z = rng.normal(size=n)
        x = np.column_stack([np.ones(n), d, z])
        y = (rng.random(n) < 1 / (1 + np.exp(-(x @ np.array([-0.8, 0.9, 0.5]))))).astype(float)
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
        cat = next(e for e in effects if e.level == "yes")
        fd = oracles.ame_categorical_fd(x, fit.beta, [1], 1)
        assert cat.estimate == pytest.approx(fd, abs=1e-12)

        ses, used, _ = bootstrap_marginal_effects(fit, design, schema, n_boot=300, seed=1234)
        assert used >= 290
        for effect in effects:
            boot = ses[(effect.attribute, effect.level)]
            assert abs(boot - effect.std_error) <= 0.25 * effect.std_error, (
                f"{effect.attribute}/{effect.level}: bootstrap {boot:.5f} vs "
                f"delta {effect.std_error:.5f}"
            )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_anova_identities():
    with Criterion(6, "eta-squared identities: sums, the {1,1}/{3,3} case, scale "
                      "and order invariance"):
        schema = AttributeSchema(
            (
                AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),
                AttributeDef("h", Categorical(("U", "V", "W"), "U"), Scope.IMAGE),
            )
        )

        def table_for(rows, order=("g", "h")):
            pairs, covs = [], {}
            for i, (levels, dist) in enumerate(rows):
                pid = f"p{i}"
                pairs.append(pair(pid, "a", "b", True, dist))
                covs[pid] = Covariates(dict(zip(("g", "h"), levels)), {})
            return anova_distances(
                *frames(pairs, covs, schema), schema, Subset.POSITIVES, list(order)
            )

        # two-group case: all variance between groups
        simple_schema = AttributeSchema(
            (AttributeDef("g", Categorical(("A", "B"), "A"), Scope.IMAGE),)
        )
        pairs = [pair(f"p{i}", "a", "b", True, d) for i, d in enumerate([1.0, 1.0, 3.0, 3.0])]
        covs = {
            p.pair_id: Covariates({"g": lvl}, {})
            for p, lvl in zip(pairs, ["A", "A", "B", "B"])
        }
        two_group = anova_distances(
            *frames(pairs, covs, simple_schema), simple_schema, Subset.POSITIVES, ["g"]
        )
        assert two_group.factors[0].eta_squared == 1.0

        rng = np.random.default_rng(606)
        rows = []
        for g in ("A", "B"):
            for h in ("U", "V", "W"):
                for _ in range(12):
                    base = 2.0 + (g == "B") * 1.1 + {"U": 0.0, "V": 0.4, "W": -0.3}[h]
                    rows.append(((g, h), base + float(rng.normal(scale=0.4))))

        table = table_for(rows)
        assert table.r_squared == pytest.approx(
            math.fsum(f.eta_squared for f in table.factors), abs=1e-10
        )
        ss_sum = math.fsum(f.sum_squares for f in table.factors) + table.residual_ss
        assert abs(ss_sum - table.total_ss) <= 1e-8 * table.total_ss

        scaled = table_for([(lv, d * 3.75) for lv, d in rows])
        for a, b in zip(table.factors, scaled.factors):
            assert a.eta_squared == pytest.approx(b.eta_squared, abs=1e-10)
        assert table.r_squared == pytest.approx(scaled.r_squared, abs=1e-10)

        flipped = table_for(rows, order=("h", "g"))
        by_name = {f.name: f.eta_squared for f in flipped.factors}
        for factor in table.factors:
            assert factor.eta_squared == pytest.approx(by_name[factor.name], abs=1e-10)

        # identities on random unbalanced data as well
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = [
                (
                    ("AB"[int(rng.integers(2))], "UVW"[int(rng.integers(3))]),
                    float(rng.random() * 4.0),
                )
                for _ in range(int(rng.integers(12, 160)))
            ]
            t = table_for(rows)
            assert t.r_squared == pytest.approx(
                math.fsum(f.eta_squared for f in t.factors), abs=1e-10
            )
            if t.total_ss > 0:
                total = math.fsum(f.sum_squares for f in t.factors) + t.residual_ss
                assert abs(total - t.total_ss) <= 1e-8 * t.total_ss


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_end_to_end_bias_detection():
    with Criterion(7, "+0.10 injected FMR handicap on one ethnicity is recovered "
                      "as a significant marginal effect in [0.06, 0.14] with a "
                      "larger negative-pair ethnicity eta^2 than the control, "
                      "in under 30s"):
        started = time.perf_counter()

        def analyze(bias):
            dataset = make_verification_dataset(
                n_identities=800,
                images_per_identity=4,
                n_positive=10_000,
                n_negative=10_000,
                seed=424242,
                fmr_bias={"African": bias} if bias else None,
            )
            threshold = optimize_threshold(dataset.pairs)
            covariates = covariates_for_pairs(dataset.pairs, dataset.images, dataset.schema)
            design = build_design(
                dataset.pairs, covariates, dataset.schema, Subset.NEGATIVES, threshold
            )
            fit = fit_logit(design)
            effects = marginal_effects(fit, design, dataset.schema)
            table = anova_distances(
                dataset.pairs, covariates, dataset.schema, Subset.NEGATIVES
            )
            return effects, table

        effects, table = analyze(0.10)
        african = next(e for e in effects if e.level == "African")
        assert african.significant
        assert 0.06 <= african.estimate <= 0.14, african

        _, control_table = analyze(0.0)
        eta = next(f.eta_squared for f in table.factors if f.name == "ethnicity")
        eta_control = next(
            f.eta_squared for f in control_table.factors if f.name == "ethnicity"
        )
        assert eta > eta_control

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"end-to-end bias check took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_planner_guarantees(tmp_path):
    with Criterion(8, "emitted generation plans: segment diversity exactly 1.0, "
                      "per-cell balance within one, 100% segment matching; "
                      "10000x50 through the CLI in under 60s"):
        schema, ids, styles = make_planner_pools(ids_per_cell=1250, styles_per_segment=90)

        def dump(table, path):
            rows = ["image_id,identity_id,gender,ethnicity,age,pose"]
            rows += [
                f"{r.image_id},{r.identity_id},{r.values['gender']},"
                f"{r.values['ethnicity']},{r.values['age']!r},{r.values['pose']!r}"
                for r in image_rows(table)
            ]
            path.write_text("\n".join(rows) + "\n")

        from favfa.util import canonical_json
        from synth import schema_to_dict

        (tmp_path / "schema.json").write_text(canonical_json(schema_to_dict(schema)))
        dump(ids, tmp_path / "ids.csv")
        dump(styles, tmp_path / "styles.csv")

        started = time.perf_counter()
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            ["plan", "--schema", str(tmp_path / "schema.json"),
             "--ids", str(tmp_path / "ids.csv"), "--styles", str(tmp_path / "styles.csv"),
             "--n-identities", "10000", "--samples", "50", "--seed", "31",
             "--out", str(tmp_path / "plan.jsonl")],
        )
        elapsed = time.perf_counter() - started
        assert result.exit_code == 0, result.output
        assert elapsed < 60.0, f"planning took {elapsed:.1f}s"

        # verify the emitted artifact, not library state
        segment_of: dict = {}
        capacity: dict = {}
        for rec in image_rows(styles):
            seg = (str(rec.values["gender"]), str(rec.values["ethnicity"]))
            segment_of[rec.image_id] = seg
            cell = (
                schema["age"].bin_index(float(rec.values["age"])),
                schema["pose"].bin_index(float(rec.values["pose"])),
            )
            capacity.setdefault(seg, Counter())[cell] += 1

        entries = [
            json.loads(line)
            for line in (tmp_path / "plan.jsonl").read_text().splitlines()
        ]
        assert len(entries) == 10_000
        id_rows = {r.image_id: r for r in image_rows(ids)}
        segment_counts: Counter = Counter()
        for entry in entries:
            segment = (entry["segment"]["gender"], entry["segment"]["ethnicity"])
            segment_counts[segment] += 1
            id_rec = id_rows[entry["id_image"]]
            assert segment == (id_rec.values["gender"], id_rec.values["ethnicity"])
            styles_used = entry["styles"]
            assert len(styles_used) == 50
            assert len({s["style_image"] for s in styles_used}) == 50
            assert all(segment_of[s["style_image"]] == segment for s in styles_used)
            used = Counter((s["age_bin"], s["pose_bin"]) for s in styles_used)
            cells = capacity[segment]
            open_counts = [used.get(c, 0) for c in cells if used.get(c, 0) < cells[c]]
            if open_counts:
                assert max(open_counts) - min(open_counts) <= 1
        assert diversity(list(segment_counts.values()), 8) == 1.0


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_weighting_formula():
    with Criterion(9, "inverse-frequency weights give p=(0.25,0.25,0.5) exactly "
                      "and 100000 seeded resamples land within 0.01"):
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
        table, _ = load_tables(
            schema,
            [
                image("i1", "I1", ethnicity="African"),
                image("i2", "I2", ethnicity="African"),
                image("i3", "I3", ethnicity="Asian"),
            ],
        )
        weights = sampling_weights(table, schema, ["ethnicity"])
        assert weights.probability.tolist() == [0.25, 0.25, 0.5]
        draws = Counter(resample_epoch(weights, 100_000, seed=99))
        assert abs(draws["i1"] / 100_000 - 0.25) <= 0.01
        assert abs(draws["i2"] / 100_000 - 0.25) <= 0.01
        assert abs(draws["i3"] / 100_000 - 0.50) <= 0.01


# --------------------------------------------------------------- criterion 10


def test_criterion_10_diagnostics_calibration():
    with Criterion(10, "well-specified fits: KS p > 0.01 in >=95 of 100 seeds; "
                       "dispersion ratio within 1 +/- 0.1 at n=10000"):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n = 500
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = (rng.random(n) < 1 / (1 + np.exp(-(x @ np.array([-0.4, 0.7]))))).astype(float)
            design = DesignMatrix(
                X=x, y=y, columns=("intercept", "z"), categorical_columns={},
                continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
            )
            fit = fit_logit(design)
            diag = simulate_residuals(fit, design, seed=seed)
            if diag.ks_p_value > 0.01:
                hits += 1
        assert hits >= 95, f"KS p > 0.01 in only {hits}/100 seeds"

        rng = np.random.default_rng(5150)
        n = 10_000
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.random(n) < 1 / (1 + np.exp(-(x @ np.array([0.2, -0.5]))))).astype(float)
        design = DesignMatrix(
            X=x, y=y, columns=("intercept", "z"), categorical_columns={},
            continuous_columns={}, standardization={}, subset=Subset.POSITIVES,
        )
        diag = simulate_residuals(fit_logit(design), design, seed=8)
        assert abs(diag.dispersion_ratio - 1.0) <= 0.1


# --------------------------------------------------------------- criterion 11


def test_criterion_11_analyze_determinism(tmp_path):
    with Criterion(11, "two cmd_analyze runs with identical inputs and seed "
                       "produce byte-identical bundles"):
        runner = CliRunner()
        args = [
            "analyze",
            "--schema", str(DEMO / "schema.json"),
            "--images", str(DEMO / "images.csv"),
            "--pairs", str(DEMO / "pairs.csv"),
            "--seed", "17",
            "--bootstrap", "40",
        ]
        first = runner.invoke(cli_main, args + ["--out", str(tmp_path / "one")])
        assert first.exit_code == 0, first.output
        second = runner.invoke(cli_main, args + ["--out", str(tmp_path / "two")])
        assert second.exit_code == 0, second.output
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        for name in names:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
