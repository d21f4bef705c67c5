"""Command-line front end.

Exit codes: 0 success, 1 domain error (reported as one JSON line on stderr),
2 usage error. Aggregate fairness metrics are printed as percentages; files
always carry raw proportions.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from .data import attribute_frequencies, consolidate_identity_attributes, load_images
from .errors import FavfaError
from .metrics import diversity
from .planner import (
    assign_styles,
    plan_diversity_report,
    plan_to_jsonl,
    sampling_weights,
    select_id_pool,
)
from .report import AnalysisConfig, run_analysis
from .schema import load_schema
from .util import named_seed


#: Plan entries serialised per write: the JSONL of a DCFace-scale plan
#: (10,000 identities x 50 styles) is 30 MB, and is never held whole.
_PLAN_CHUNK = 1000


def _fail(error: FavfaError) -> None:
    click.echo(
        json.dumps({"error": type(error).__name__, "message": str(error)}),
        err=True,
    )
    sys.exit(1)


def _comma_list(value: str | None) -> tuple[str, ...] | None:
    if not value:
        return None
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _diversity_table(scores: dict[str, float]) -> str:
    names = list(scores)
    head = "  ".join(f"{n:>10}" for n in names)
    row = "  ".join(f"{scores[n]:>10.2f}" for n in names)
    return head + "\n" + row


@click.group()
def main() -> None:
    """Fairness analysis for face verification, on tabular metadata."""


@main.command("analyze")
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--images", "images_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--group-by", default="gender,ethnicity", show_default=True,
              help="Comma-separated categorical attributes defining the segments.")
@click.option("--min-support", default=30, show_default=True, type=click.IntRange(min=0))
@click.option("--alpha", default=0.05, show_default=True, type=click.FloatRange(0, 1))
@click.option("--factor-order", default=None,
              help="Comma-separated attribute order for the variance decomposition.")
@click.option("--pair-aggregate", default="mean", show_default=True,
              type=click.Choice(["mean", "absdiff"]))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--bootstrap", default=0, show_default=True, type=click.IntRange(min=0),
              help="Bootstrap resamples for marginal-effect standard errors (0 = off).")
@click.option("--interactions", is_flag=True,
              help="Add pairwise interaction factors to the variance decomposition.")
def cmd_analyze(schema_path, images_path, pairs_path, out_dir, group_by, min_support,
                alpha, factor_order, pair_aggregate, seed, bootstrap, interactions):
    """Run the full pipeline and write the report bundle."""
    config = AnalysisConfig(
        schema_path=Path(schema_path),
        images_path=Path(images_path),
        pairs_path=Path(pairs_path),
        out_dir=Path(out_dir),
        grouping=_comma_list(group_by) or ("gender", "ethnicity"),
        min_support=min_support,
        alpha=alpha,
        factor_order=_comma_list(factor_order),
        pair_aggregate=pair_aggregate,
        seed=seed,
        bootstrap=bootstrap,
        interactions=interactions,
    )
    try:
        result = run_analysis(config)
    except FavfaError as error:
        _fail(error)
    report = result.report
    if report.threshold is not None:
        click.echo(f"threshold: {report.threshold:.6f}")
    click.echo(
        f"groups: {len(report.per_group)} included, "
        f"{len(report.excluded_groups)} excluded (min support {min_support})"
    )
    click.echo(
        "  ".join(
            f"{name} {value * 100:.1f}"
            for name, value in [
                ("DoB", report.dob), ("DPD", report.dpd), ("EOD", report.eod),
                ("DPR", report.dpr), ("EOR", report.eor),
                ("Acc", report.micro_accuracy),
            ]
        )
        + "   (percent)"
    )
    effects_json = json.loads((result.outputs["marginal_effects.json"]).read_text())
    for model in ("fmr", "tmr"):
        significant = [e for e in effects_json[model] if e["significant"]]
        click.echo(f"{model.upper()} model: {len(significant)} significant effect(s)")
        for e in significant:
            click.echo(f"  {e['interpretation']}")
    click.echo("wrote: " + ", ".join(str(p) for _, p in sorted(result.outputs.items())))


@main.command("diversity")
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--images", "images_path", required=True, type=click.Path(exists=True, dir_okay=False))
def cmd_diversity(schema_path, images_path):
    """Per-attribute diversity (normalized entropy) of an image table."""
    try:
        schema = load_schema(schema_path)
        images = consolidate_identity_attributes(load_images(images_path, schema), schema)
        scores = {}
        for attr in schema.attributes:
            freqs = attribute_frequencies(images, schema, attr.name)
            scores[attr.name] = diversity(freqs, len(freqs))
    except FavfaError as error:
        _fail(error)
    click.echo(_diversity_table(scores))


@main.command("plan")
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--ids", "ids_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="CSV of candidate identity images with segment attributes.")
@click.option("--styles", "styles_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="CSV of candidate style images with segment, age and pose.")
@click.option("--n-identities", required=True, type=click.IntRange(min=1))
@click.option("--samples", required=True, type=click.IntRange(min=1),
              help="Style samples per identity.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_plan(schema_path, ids_path, styles_path, n_identities, samples, seed, out_path):
    """Build a balanced generation plan and write it as JSONL."""
    try:
        schema = load_schema(schema_path)
        ids = consolidate_identity_attributes(load_images(ids_path, schema), schema)
        styles = consolidate_identity_attributes(load_images(styles_path, schema), schema)
        pool = select_id_pool(ids, schema, n_identities, named_seed(seed, "planner"))
        plan = assign_styles(pool, ids, styles, schema, samples)
        scores = plan_diversity_report(plan, schema)
    except FavfaError as error:
        _fail(error)
    with open(out_path, "w", encoding="utf-8") as fh:
        for start in range(0, len(plan.entries), _PLAN_CHUNK):
            chunk = replace(plan, entries=plan.entries[start : start + _PLAN_CHUNK])
            fh.write(plan_to_jsonl(chunk))
    click.echo(_diversity_table(scores))
    click.echo(f"wrote {len(plan.entries)} identities × {samples} styles to {out_path}")


@main.command("weights")
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--images", "images_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--attrs", required=True,
              help="Comma-separated attributes the weights balance for.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Write CSV here instead of stdout.")
def cmd_weights(schema_path, images_path, attrs, out_path):
    """Inverse-frequency sampling weights for an image table."""
    try:
        schema = load_schema(schema_path)
        images = consolidate_identity_attributes(load_images(images_path, schema), schema)
        weights = sampling_weights(images, schema, _comma_list(attrs) or ())
    except FavfaError as error:
        _fail(error)
    lines = ["image_id,weight,probability"]
    lines += [
        f"{e.image_id},{e.weight!r},{e.probability!r}" for e in weights.entries
    ]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote {len(weights.entries)} rows to {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
