"""Fairness analysis for face verification systems, on tabular metadata.

The package covers attribute schemas and pair covariates, verification
threshold optimization, group fairness metrics and diversity scoring, logit
bias models with mean marginal effects, variance decomposition of embedding
distances, simulation-based residual diagnostics, and balanced dataset
planning (inverse-frequency weights and generation plans).
"""

__version__ = "0.1.0"

from .anova import AnovaTable, FactorResult, anova_distances
from .data import (
    CROSS_LEVEL,
    CovariateFrame,
    ImageFrame,
    Label,
    LevelCodes,
    PairFrame,
    Subset,
    attribute_frequencies,
    consolidate_identity_attributes,
    covariates_for_pairs,
    load_images,
    load_pairs,
)
from .diagnostics import ResidualDiagnostics, simulate_residuals
from .errors import FavfaError
from .logit import (
    DesignMatrix,
    LogitFit,
    MarginalEffect,
    bootstrap_marginal_effects,
    build_design,
    fit_logit,
    interpret,
    marginal_effects,
    summarize_fit,
)
from .metrics import (
    FairnessReport,
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
from .planner import (
    GenerationPlan,
    SamplingWeights,
    StyleAssignment,
    assign_styles,
    loss_weights,
    plan_diversity_report,
    plan_to_jsonl,
    resample_epoch,
    sampling_weights,
    select_id_pool,
)
from .report import AnalysisConfig, AnalysisResult, run_analysis
from .schema import (
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
    load_schema,
    schema_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
