"""End-to-end analysis run: pipeline orchestration and the output bundle.

A run loads the tables, optimizes the verification threshold, computes the
fairness report, fits the positive- and negative-pair logit models with
marginal effects, decomposes distance variance for both subsets, runs the
residual diagnostics, and writes everything (JSON and CSV tables, SVG charts,
a manifest with input hashes) into the output directory. Outputs are staged
in a scratch directory and moved into place only on success, and every byte
is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import csv
import io
import os
import platform
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

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
from .errors import ParseError
from .logit import (
    DesignMatrix,
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
    fairness_from_groups,
    fairness_report,  # unused here; perfbench/spans.py wraps this name
    group_confusion,
    optimize_threshold,
)
from .schema import load_schema
from .util import canonical_json, named_seed, sha256_hex

MODEL_SUBSETS = {"tmr": Subset.POSITIVES, "fmr": Subset.NEGATIVES}


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
    threads: int | None = None

    def resolved_threads(self) -> int:
        if self.threads is not None:
            return max(1, self.threads)
        env = os.environ.get("FAVFA_THREADS")
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ParseError(f"FAVFA_THREADS must be an integer, got {env!r}") from None
        return min(4, os.cpu_count() or 1)


@dataclass
class AnalysisResult:
    report: FairnessReport
    fits: dict[str, LogitFit]
    designs: dict[str, DesignMatrix]
    effects: dict[str, list[MarginalEffect]]
    bootstrap_se: dict[str, dict[tuple[str, str | None], float]]
    bootstrap_used: dict[str, int]  # resamples used per model, empty without a bootstrap
    anova: dict[str, AnovaTable]
    diagnostics: dict[str, ResidualDiagnostics]
    outputs: dict[str, Path] = field(default_factory=dict)


def _csv_text(header: list[str], rows: list[list[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _per_group_csv(report: FairnessReport, all_groups) -> str:
    rows = []
    included = {g.group for g in report.per_group}
    for g in all_groups:
        rows.append(
            [
                g.group.label(),
                g.n_pos,
                g.n_neg,
                g.tp,
                g.fp,
                g.tn,
                g.fn,
                _cell(g.tmr),
                _cell(g.fmr),
                _cell(g.accuracy),
                _cell(g.selection_rate),
                "yes" if g.group in included else "no",
            ]
        )
    return _csv_text(
        ["group", "n_pos", "n_neg", "tp", "fp", "tn", "fn", "tmr", "fmr",
         "accuracy", "selection_rate", "included"],
        rows,
    )


def _fit_csv(fit: LogitFit) -> str:
    rows = [
        [r["term"], _cell(r["estimate"]), _cell(r["std_error"]), _cell(r["z"]),
         _cell(r["p_value"])]
        for r in summarize_fit(fit)
    ]
    return _csv_text(["term", "estimate", "std_error", "z", "p_value"], rows)


def _effects_csv(
    effects: dict[str, list[MarginalEffect]],
    bootstrap_se: dict[str, dict[tuple[str, str | None], float]],
) -> str:
    rows = []
    for model in sorted(effects):
        boot = bootstrap_se.get(model, {})
        for e in effects[model]:
            rows.append(
                [
                    model,
                    e.attribute,
                    _cell(e.level),
                    _cell(e.unit),
                    _cell(e.estimate),
                    _cell(e.std_error),
                    _cell(e.p_value),
                    "yes" if e.significant else "no",
                    _cell(boot.get(effect_key(e))),
                ]
            )
    return _csv_text(
        ["model", "attribute", "level", "unit", "estimate", "std_error",
         "p_value", "significant", "bootstrap_se"],
        rows,
    )


def _effects_json(result: AnalysisResult, schema) -> dict:
    out: dict[str, list[dict]] = {}
    for model in sorted(result.effects):
        boot = result.bootstrap_se.get(model, {})
        out[model] = [
            {
                "attribute": e.attribute,
                "level": e.level,
                "unit": e.unit,
                "estimate": e.estimate,
                "std_error": e.std_error,
                "p_value": e.p_value,
                "significant": e.significant,
                "bootstrap_se": boot.get(effect_key(e)),
                "interpretation": interpret(e, schema, model),
            }
            for e in result.effects[model]
        ]
    return out


def _anova_csv(table: AnovaTable) -> str:
    rows: list[list[object]] = [
        [f.name, f.df, _cell(f.sum_squares), _cell(f.eta_squared)]
        for f in table.factors
    ]
    model_df = sum(f.df for f in table.factors)
    rows.append(["residual", table.n - 1 - model_df, _cell(table.residual_ss), ""])
    rows.append(["total", table.n - 1, _cell(table.total_ss), ""])
    rows.append(["r_squared", "", "", _cell(table.r_squared)])
    if table.warnings:
        rows.append(["warnings", "", "", "; ".join(table.warnings)])
    return _csv_text(["name", "df", "sum_squares", "eta_squared"], rows)


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
            {
                "group": g.group.as_lists(),
                "n_pos": g.n_pos,
                "n_neg": g.n_neg,
                "tp": g.tp,
                "fp": g.fp,
                "tn": g.tn,
                "fn": g.fn,
                "tmr": g.tmr,
                "fmr": g.fmr,
                "accuracy": g.accuracy,
                "selection_rate": g.selection_rate,
            }
            for g in report.per_group
        ],
        "excluded_groups": [k.as_lists() for k in report.excluded_groups],
    }


def _diagnostics_json(diag: ResidualDiagnostics) -> dict:
    return {
        "ks_statistic": diag.ks_statistic,
        "ks_p_value": diag.ks_p_value,
        "dispersion_ratio": diag.dispersion_ratio,
        "dispersion_p": diag.dispersion_p,
        "zero_inflation_ratio": diag.zero_inflation_ratio,
        "zero_inflation_p": diag.zero_inflation_p,
        "n_simulations": diag.n_simulations,
        "n_observations": len(diag.scaled_residuals),
        "seed": diag.seed,
        "scaled_residuals": list(diag.scaled_residuals),
    }


def _manifest(
    config: AnalysisConfig, outputs: list[str], bootstrap_used: dict[str, int]
) -> dict:
    manifest = {
        "inputs": {
            "schema": {"path": str(config.schema_path), "sha256": sha256_hex(config.schema_path)},
            "images": {"path": str(config.images_path), "sha256": sha256_hex(config.images_path)},
            "pairs": {"path": str(config.pairs_path), "sha256": sha256_hex(config.pairs_path)},
        },
        # out_dir is deliberately omitted so bundles written to different
        # places from the same inputs stay byte-identical
        "config": {
            "grouping": list(config.grouping),
            "min_support": config.min_support,
            "alpha": config.alpha,
            "factor_order": list(config.factor_order) if config.factor_order else None,
            "pair_aggregate": config.pair_aggregate,
            "seed": config.seed,
            "bootstrap": config.bootstrap,
            "interactions": config.interactions,
        },
        "outputs": sorted(outputs),
        "versions": {
            "favfa": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    if config.bootstrap > 0:
        manifest["bootstrap"] = {"requested": config.bootstrap, "used": bootstrap_used}
    return manifest


def run_analysis(config: AnalysisConfig) -> AnalysisResult:
    """Execute the full pipeline and write the report bundle.

    Independent model fits and decompositions fan out over a small thread
    pool (capped by the FAVFA_THREADS environment variable); results and
    files are assembled in a fixed order regardless of scheduling.
    """
    threads = config.resolved_threads()
    schema = load_schema(config.schema_path)
    images = consolidate_identity_attributes(load_images(config.images_path, schema), schema)
    pairs = load_pairs(config.pairs_path, images)
    covariates = covariates_for_pairs(pairs, images, schema, config.pair_aggregate)

    threshold = (
        optimize_threshold(pairs) if (pairs.predicted == NO_PREDICTION).any() else None
    )
    all_groups = group_confusion(pairs, covariates, threshold, config.grouping, 0)
    report = fairness_from_groups(all_groups, config.min_support, threshold)

    def fit_model(model: str):
        design = build_design(pairs, covariates, schema, MODEL_SUBSETS[model], threshold)
        return design, fit_logit(design)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        fit_futures = {m: pool.submit(fit_model, m) for m in sorted(MODEL_SUBSETS)}
        anova_futures = {
            m: pool.submit(
                anova_distances,
                pairs,
                covariates,
                schema,
                MODEL_SUBSETS[m],
                config.factor_order,
                config.interactions,
            )
            for m in sorted(MODEL_SUBSETS)
        }
        designs_fits = {m: f.result() for m, f in fit_futures.items()}
        anova_tables = {m: f.result() for m, f in anova_futures.items()}

    designs = {m: df[0] for m, df in designs_fits.items()}
    fits = {m: df[1] for m, df in designs_fits.items()}
    effects = {
        m: marginal_effects(fits[m], designs[m], schema, config.alpha)
        for m in sorted(fits)
    }
    bootstrap_se: dict[str, dict[tuple[str, str | None], float]] = {}
    bootstrap_used: dict[str, int] = {}
    if config.bootstrap > 0:
        for m in sorted(fits):
            bootstrap_se[m], bootstrap_used[m] = bootstrap_marginal_effects(
                designs[m],
                schema,
                n_boot=config.bootstrap,
                seed=named_seed(config.seed, f"bootstrap:{m}"),
            )
    diagnostics = {
        m: simulate_residuals(
            fits[m], designs[m], seed=named_seed(config.seed, f"diagnostics:{m}")
        )
        for m in sorted(fits)
    }

    result = AnalysisResult(
        report=report,
        fits=fits,
        designs=designs,
        effects=effects,
        bootstrap_se=bootstrap_se,
        bootstrap_used=bootstrap_used,
        anova=anova_tables,
        diagnostics=diagnostics,
    )

    files: dict[str, str] = {
        "fairness_report.json": canonical_json(_report_json(report, config)),
        "per_group.csv": _per_group_csv(report, all_groups),
        "logit_tmr.csv": _fit_csv(fits["tmr"]),
        "logit_fmr.csv": _fit_csv(fits["fmr"]),
        "marginal_effects.csv": _effects_csv(effects, bootstrap_se),
        "marginal_effects.json": canonical_json(_effects_json(result, schema)),
        "marginal_effects.svg": marginal_effects_svg(effects),
        "anova_pos.csv": _anova_csv(anova_tables["tmr"]),
        "anova_neg.csv": _anova_csv(anova_tables["fmr"]),
        "anova_pos.svg": eta_squared_svg({"positives": anova_tables["tmr"]}),
        "anova_neg.svg": eta_squared_svg({"negatives": anova_tables["fmr"]}),
        "diagnostics.json": canonical_json(
            {m: _diagnostics_json(diagnostics[m]) for m in sorted(diagnostics)}
        ),
        "diagnostics_qq.svg": qq_plot_svg(
            {m: diagnostics[m].scaled_residuals for m in sorted(diagnostics)}
        ),
    }
    files["run_manifest.json"] = canonical_json(
        _manifest(config, [*files.keys(), "run_manifest.json"], bootstrap_used)
    )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".favfa-staging-", dir=out_dir.parent))
    try:
        for name, text in files.items():
            (staging / name).write_text(text, encoding="utf-8")
        for name in files:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    result.outputs = {name: out_dir / name for name in files}
    return result
