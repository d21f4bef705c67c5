"""End-to-end analysis run: pipeline orchestration and the output bundle.

A run loads the tables, optimizes the verification threshold, computes the
fairness report, fits the positive- and negative-pair logit models with
marginal effects, decomposes distance variance for both subsets, runs the
residual diagnostics, and writes everything (JSON and CSV tables, SVG charts,
a manifest with input hashes) into the output directory. Every file is
written by ``util.write_files``, so a failed run leaves no partial file, and
every byte is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .anova import AnovaTable, anova_distances
from .charts import eta_squared_svg, marginal_effects_svg, qq_plot_svg
from .data import (
    NO_PREDICTION,
    Subset,
    consolidate_identity_attributes,
    covariates_for_pairs,
    load_images,
    load_pairs,
)
from .diagnostics import ResidualDiagnostics, simulate_residuals
from .errors import OutputError
from .logit import (
    LogitFit,
    MarginalEffect,
    bootstrap_marginal_effects,
    build_design,
    effect_key,
    fit_logit,
    interpret,
    marginal_effects,
    summarize_fit,
)
from .metrics import (
    FairnessReport,
    GroupStats,
    fairness_from_groups,
    fairness_report,  # unused here; perfbench/spans.py wraps this name
    group_confusion,
    optimize_threshold,
)
from .schema import AttributeSchema, load_schema
from .util import canonical_json, csv_text, named_seed, sha256_hex, write_files

MODEL_SUBSETS = {"tmr": Subset.POSITIVES, "fmr": Subset.NEGATIVES}

#: The per-group statistics, in ``per_group.csv`` column order; each
#: ``fairness_report.json`` ``per_group`` entry holds the same keys and
#: ``group``.
_GROUP_FIELDS = tuple(f.name for f in fields(GroupStats) if f.name != "group")
#: The marginal-effect columns of ``marginal_effects.csv`` and keys of
#: ``marginal_effects.json``, besides ``model``, ``bootstrap_se`` and
#: ``interpretation``.
_EFFECT_FIELDS = tuple(f.name for f in fields(MarginalEffect))


@dataclass
class AnalysisConfig:
    schema_path: Path
    images_path: Path
    pairs_path: Path
    out_dir: Path
    grouping: tuple[str, ...] = ("gender", "ethnicity")
    min_support: int = 30
    alpha: float = 0.05
    factor_order: tuple[str, ...] | None = None
    pair_aggregate: str = "mean"
    seed: int = 0
    bootstrap: int = 0
    interactions: bool = False


#: The ``AnalysisConfig`` fields that ``run_manifest.json`` records under
#: ``config``: all but the paths, which ``inputs`` records by name and hash.
_CONFIG_FIELDS = tuple(f.name for f in fields(AnalysisConfig) if f.type != "Path")


@dataclass
class AnalysisResult:
    schema: AttributeSchema
    report: FairnessReport
    fits: dict[str, LogitFit]
    effects: dict[str, list[MarginalEffect]]
    bootstrap_se: dict[str, dict[tuple[str, str | None], float]]
    bootstrap_used: dict[str, int]  # resamples used per model, empty without a bootstrap
    bootstrap_iterations: dict[str, int]  # IRLS iterations of those resamples, per model
    anova: dict[str, AnovaTable]
    diagnostics: dict[str, ResidualDiagnostics]
    outputs: dict[str, Path] = field(default_factory=dict)


def _per_group_csv(report: FairnessReport, all_groups) -> str:
    included = {g.group for g in report.per_group}
    rows = (
        [g.group.label(), *(getattr(g, name) for name in _GROUP_FIELDS), g.group in included]
        for g in all_groups
    )
    return csv_text(["group", *_GROUP_FIELDS, "included"], rows)


def _fit_csv(fit: LogitFit) -> str:
    header = ["term", "estimate", "std_error", "z", "p_value"]
    return csv_text(header, ([r[name] for name in header] for r in summarize_fit(fit)))


def _effect_rows(result: AnalysisResult):
    """``(model, effect, row)`` for every marginal effect, models in name
    order; ``row`` maps each of ``_EFFECT_FIELDS`` and ``bootstrap_se`` to
    its value."""
    for model in sorted(result.effects):
        boot = result.bootstrap_se.get(model, {})
        for e in result.effects[model]:
            row = {name: getattr(e, name) for name in _EFFECT_FIELDS}
            row["bootstrap_se"] = boot.get(effect_key(e))
            yield model, e, row


def _effects_csv(result: AnalysisResult) -> str:
    return csv_text(
        ["model", *_EFFECT_FIELDS, "bootstrap_se"],
        ([model, *row.values()] for model, _, row in _effect_rows(result)),
    )


def _effects_json(result: AnalysisResult) -> dict:
    out: dict[str, list[dict]] = {model: [] for model in result.effects}
    for model, e, row in _effect_rows(result):
        row["interpretation"] = interpret(e, result.schema, model)
        out[model].append(row)
    return out


def _anova_csv(table: AnovaTable) -> str:
    rows: list[list[object]] = [
        [f.name, f.df, f.sum_squares, f.eta_squared] for f in table.factors
    ]
    model_df = sum(f.df for f in table.factors)
    rows.append(["residual", table.n - 1 - model_df, table.residual_ss, None])
    rows.append(["total", table.n - 1, table.total_ss, None])
    rows.append(["r_squared", None, None, table.r_squared])
    if table.warnings:
        rows.append(["warnings", None, None, "; ".join(table.warnings)])
    return csv_text(["name", "df", "sum_squares", "eta_squared"], rows)


def _report_json(report: FairnessReport, config: AnalysisConfig) -> dict:
    return {
        "threshold": report.threshold,
        "dob": report.dob,
        "dpd": report.dpd,
        "eod": report.eod,
        "dpr": report.dpr,
        "eor": report.eor,
        "micro_accuracy": report.micro_accuracy,
        "grouping": list(config.grouping),
        "min_support": config.min_support,
        "per_group": [
            {"group": g.group.as_lists(), **{name: getattr(g, name) for name in _GROUP_FIELDS}}
            for g in report.per_group
        ],
        "excluded_groups": [k.as_lists() for k in report.excluded_groups],
    }


def _diagnostics_json(diagnostics: dict[str, ResidualDiagnostics]) -> str:
    """``canonical_json`` of every model's diagnostics. Each residual list is
    written by json's C encoder and spliced in, indented as the (pure Python)
    indenting encoder would: both write a float as its repr, and no repr
    holds ", ", so the text is the same."""
    fields, lists = {}, {}
    for model, diag in sorted(diagnostics.items()):
        marker = f"@scaled_residuals:{model}@"
        fields[model] = {
            "ks_statistic": diag.ks_statistic,
            "ks_p_value": diag.ks_p_value,
            "dispersion_ratio": diag.dispersion_ratio,
            "dispersion_p": diag.dispersion_p,
            "zero_inflation_ratio": diag.zero_inflation_ratio,
            "zero_inflation_p": diag.zero_inflation_p,
            "n_simulations": diag.n_simulations,
            "n_observations": len(diag.scaled_residuals),
            "seed": diag.seed,
            "scaled_residuals": marker,
        }
        residuals = json.dumps(diag.scaled_residuals.tolist(), allow_nan=False)
        if len(diag.scaled_residuals):
            residuals = "[\n      " + residuals[1:-1].replace(", ", ",\n      ") + "\n    ]"
        lists[json.dumps(marker)] = residuals
    text = canonical_json(fields)
    for marker, residuals in lists.items():
        text = text.replace(marker, residuals, 1)
    return text


def _manifest(config: AnalysisConfig, outputs: list[str], result: AnalysisResult) -> dict:
    manifest = {
        # inputs by file name and out_dir not at all, so bundles from the
        # same inputs stay byte-identical wherever the files are
        "inputs": {
            name: {"file": Path(path).name, "sha256": sha256_hex(path)}
            for name, path in (
                ("schema", config.schema_path),
                ("images", config.images_path),
                ("pairs", config.pairs_path),
            )
        },
        "config": {name: getattr(config, name) for name in _CONFIG_FIELDS},
        "outputs": sorted(outputs),
        "versions": {
            "favfa": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if config.bootstrap > 0:
        manifest["bootstrap"] = {
            "requested": config.bootstrap,
            "used": result.bootstrap_used,
            "iterations": result.bootstrap_iterations,
        }
    return manifest


def run_analysis(config: AnalysisConfig) -> AnalysisResult:
    """Execute the full pipeline and write the report bundle.

    Each model's design, fit, marginal effects, bootstrap, diagnostics and
    ANOVA run in turn on the calling thread, every random stage on its own
    stream from ``named_seed``. Reruns on the same inputs are byte-identical
    at any OpenBLAS thread count.
    """
    schema = load_schema(config.schema_path)
    images = consolidate_identity_attributes(load_images(config.images_path, schema), schema)
    pairs = load_pairs(config.pairs_path, images)
    covariates = covariates_for_pairs(pairs, images, schema, config.pair_aggregate)

    threshold = (
        optimize_threshold(pairs) if (pairs.predicted == NO_PREDICTION).any() else None
    )
    all_groups = group_confusion(pairs, covariates, threshold, config.grouping)
    report = fairness_from_groups(all_groups, config.min_support, threshold)

    fits: dict[str, LogitFit] = {}
    effects: dict[str, list[MarginalEffect]] = {}
    bootstrap_se: dict[str, dict[tuple[str, str | None], float]] = {}
    bootstrap_used: dict[str, int] = {}
    bootstrap_iterations: dict[str, int] = {}
    diagnostics: dict[str, ResidualDiagnostics] = {}
    anova_tables: dict[str, AnovaTable] = {}
    for m in sorted(MODEL_SUBSETS):
        subset = MODEL_SUBSETS[m]
        design = build_design(pairs, covariates, schema, subset, threshold)
        fit = fits[m] = fit_logit(design)
        effects[m] = marginal_effects(fit, design, schema, config.alpha)
        if config.bootstrap > 0:
            seed = named_seed(config.seed, f"bootstrap:{m}")
            boot = bootstrap_marginal_effects(fit, design, schema, config.bootstrap, seed)
            bootstrap_se[m], bootstrap_used[m], bootstrap_iterations[m] = boot
        diagnostics[m] = simulate_residuals(
            fit, design, seed=named_seed(config.seed, f"diagnostics:{m}")
        )
        anova_tables[m] = anova_distances(
            pairs, covariates, schema, subset, config.factor_order, config.interactions
        )

    result = AnalysisResult(
        schema=schema,
        report=report,
        fits=fits,
        effects=effects,
        bootstrap_se=bootstrap_se,
        bootstrap_used=bootstrap_used,
        bootstrap_iterations=bootstrap_iterations,
        anova=anova_tables,
        diagnostics=diagnostics,
    )

    files: dict[str, str] = {
        "fairness_report.json": canonical_json(_report_json(report, config)),
        "per_group.csv": _per_group_csv(report, all_groups),
        "logit_tmr.csv": _fit_csv(fits["tmr"]),
        "logit_fmr.csv": _fit_csv(fits["fmr"]),
        "marginal_effects.csv": _effects_csv(result),
        "marginal_effects.json": canonical_json(_effects_json(result)),
        "marginal_effects.svg": marginal_effects_svg(effects),
        "anova_pos.csv": _anova_csv(anova_tables["tmr"]),
        "anova_neg.csv": _anova_csv(anova_tables["fmr"]),
        "anova_pos.svg": eta_squared_svg({"positives": anova_tables["tmr"]}),
        "anova_neg.svg": eta_squared_svg({"negatives": anova_tables["fmr"]}),
        "diagnostics.json": _diagnostics_json(diagnostics),
        "diagnostics_qq.svg": qq_plot_svg(
            {m: diagnostics[m].scaled_residuals for m in sorted(diagnostics)}
        ),
    }
    files["run_manifest.json"] = canonical_json(
        _manifest(config, [*files.keys(), "run_manifest.json"], result)
    )

    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise OutputError(out_dir, error) from error
    result.outputs = {name: out_dir / name for name in files}
    write_files({result.outputs[name]: (text,) for name, text in files.items()})
    return result
