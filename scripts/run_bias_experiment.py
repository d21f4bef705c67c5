#!/usr/bin/env python3
"""Recover a known injected bias end to end.

Simulates a verification run where negative pairs sharing one ethnicity get
an extra false-match probability, then checks what the analysis stack says:
the marginal effect on the false-match model should land near the injected
handicap, and the negative-pair ethnicity share of distance variance should
exceed the zero-bias control's.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from favfa.anova import anova_distances
from favfa.data import Subset, covariates_for_pairs
from favfa.logit import build_design, fit_logit, interpret, marginal_effects
from favfa.metrics import optimize_threshold

# the generator is test-support code, beside the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from synth import make_verification_dataset


def run(n_pairs: int, seed: int, bias: float, level: str):
    dataset = make_verification_dataset(
        n_identities=max(200, n_pairs // 50),
        images_per_identity=4,
        n_positive=n_pairs // 2,
        n_negative=n_pairs // 2,
        seed=seed,
        fmr_bias={level: bias} if bias else None,
    )
    threshold = optimize_threshold(dataset.pairs)
    covariates = covariates_for_pairs(dataset.pairs, dataset.images, dataset.schema)
    design = build_design(dataset.pairs, covariates, dataset.schema, Subset.NEGATIVES, threshold)
    fit = fit_logit(design)
    effects = marginal_effects(fit, design, dataset.schema)
    table = anova_distances(dataset.pairs, covariates, dataset.schema, Subset.NEGATIVES)
    return dataset, threshold, fit, effects, table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--bias", type=float, default=0.10)
    parser.add_argument("--level", default="African")
    args = parser.parse_args()

    started = time.perf_counter()
    dataset, threshold, fit, effects, table = run(args.pairs, args.seed, args.bias, args.level)
    _, _, _, _, control_table = run(args.pairs, args.seed, 0.0, args.level)
    elapsed = time.perf_counter() - started

    print(f"pairs={args.pairs}  threshold={threshold:.4f}  logit iters={fit.iterations}")
    target = next(e for e in effects if e.level == args.level)
    print(
        f"injected {args.bias:+.2f} on {args.level}: estimated marginal effect "
        f"{target.estimate:+.4f} (se {target.std_error:.4f}, p {target.p_value:.2e})"
    )
    print(interpret(target, dataset.schema, model="fmr"))
    eta = next(f.eta_squared for f in table.factors if f.name == "ethnicity")
    eta_control = next(
        f.eta_squared for f in control_table.factors if f.name == "ethnicity"
    )
    print(
        f"negative-pair ethnicity eta^2: biased {eta:.4f} vs control {eta_control:.4f}"
    )
    print(f"total runtime {elapsed:.1f}s")


if __name__ == "__main__":
    main()
