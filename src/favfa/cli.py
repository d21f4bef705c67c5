"""Command-line front end.

Exit codes: 0 success, 1 domain error or an output that cannot be written,
2 usage error, such as an attribute list that names no attribute or an
``--alpha`` that is not a number in [0, 1]. Commands raise ``FavfaError``;
the ``main`` group turns it into exit 1 with one JSON line on stderr.
Aggregate fairness metrics are printed as percentages; files always carry
raw proportions.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .data import attribute_frequencies, consolidate_identity_attributes, load_images
from .errors import FavfaError, ParseError
from .logit import interpret
from .metrics import diversity
from .planner import (
    GenerationPlan,
    assign_styles,
    plan_diversity_report,
    plan_to_jsonl,
    sampling_weights,
    select_id_pool,
)
from .report import AnalysisConfig, run_analysis
from .schema import load_schema
from .util import csv_text, named_seed, write_files


#: Plan lines serialised per write: the JSONL of a DCFace-scale plan
#: (10,000 identities x 50 styles) is 30 MB, and is never held whole.
_PLAN_CHUNK = 1000


def _comma_list(ctx, param, value: str | None) -> tuple[str, ...] | None:
    """Option callback: the attribute names of a comma-separated list; a
    list that names none is a usage error."""
    if value is None:
        return None
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise click.BadParameter(f"{value!r} names no attribute")
    return names


def _not_nan(ctx, param, value: float) -> float:
    """Option callback: ``FloatRange`` lets NaN through, as every comparison
    with it is false, so reject it here as a usage error."""
    if math.isnan(value):
        raise click.BadParameter("nan is not a number")
    return value


def _diversity_table(scores: dict[str, float]) -> str:
    names = list(scores)
    head = "  ".join(f"{n:>10}" for n in names)
    row = "  ".join(f"{scores[n]:>10.2f}" for n in names)
    return head + "\n" + row


class _FavfaGroup(click.Group):
    """The command group: a ``FavfaError`` from any command ends the run
    with exit 1 and one JSON line on stderr."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except FavfaError as error:
            click.echo(
                json.dumps({"error": type(error).__name__, "message": str(error)}),
                err=True,
            )
            sys.exit(1)


@click.group(cls=_FavfaGroup)
def main() -> None:
    """Fairness analysis for face verification, on tabular metadata."""


@main.command("analyze")
@click.option("--schema", "schema_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--images", "images_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--pairs", "pairs_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--group-by", "grouping", default="gender,ethnicity", show_default=True,
              callback=_comma_list,
              help="Comma-separated categorical attributes defining the segments.")
@click.option("--min-support", default=30, show_default=True, type=click.IntRange(min=0))
@click.option("--alpha", default=0.05, show_default=True, type=click.FloatRange(0, 1),
              callback=_not_nan)
@click.option("--factor-order", default=None, callback=_comma_list,
              help="Comma-separated attribute order for the variance decomposition.")
@click.option("--pair-aggregate", default="mean", show_default=True,
              type=click.Choice(["mean", "absdiff"]))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--bootstrap", default=0, show_default=True, type=click.IntRange(min=0),
              help="Bootstrap resamples for marginal-effect standard errors (0 = off).")
@click.option("--interactions", is_flag=True,
              help="Add pairwise interaction factors to the variance decomposition.")
def cmd_analyze(**options):
    """Run the full pipeline and write the report bundle."""
    config = AnalysisConfig(**options)
    result = run_analysis(config)
    report = result.report
    if report.threshold is not None:
        click.echo(f"threshold: {report.threshold:.6f}")
    click.echo(
        f"groups: {len(report.per_group)} included, "
        f"{len(report.excluded_groups)} excluded (min support {config.min_support})"
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
    for model in ("fmr", "tmr"):
        significant = [e for e in result.effects[model] if e.significant]
        click.echo(f"{model.upper()} model: {len(significant)} significant effect(s)")
        for e in significant:
            click.echo(f"  {interpret(e, result.schema, model)}")
    click.echo("wrote: " + ", ".join(str(p) for _, p in sorted(result.outputs.items())))


@main.command("diversity")
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--images", "images_path", required=True, type=click.Path(exists=True, dir_okay=False))
def cmd_diversity(schema_path, images_path):
    """Per-attribute diversity (normalized entropy) of an image table."""
    schema = load_schema(schema_path)
    images = consolidate_identity_attributes(load_images(images_path, schema), schema)
    if len(images) == 0:
        raise ParseError(f"{images_path}: the image table is empty")
    scores = {}
    for attr in schema.attributes:
        freqs = attribute_frequencies(images, schema, attr.name)
        scores[attr.name] = diversity(freqs, len(freqs))
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
    schema = load_schema(schema_path)
    ids = consolidate_identity_attributes(load_images(ids_path, schema), schema)
    styles = consolidate_identity_attributes(load_images(styles_path, schema), schema)
    pool = select_id_pool(ids, schema, n_identities, named_seed(seed, "planner"))
    plan = assign_styles(pool, ids, styles, schema, samples)
    scores = plan_diversity_report(plan, schema)
    write_files({
        Path(out_path): (
            plan_to_jsonl(GenerationPlan(
                plan.ids[start : start + _PLAN_CHUNK],
                plan.group[start : start + _PLAN_CHUNK],
                plan.groups,
            ))
            for start in range(0, len(plan.ids), _PLAN_CHUNK)
        )
    })
    click.echo(_diversity_table(scores))
    click.echo(f"wrote {len(plan.ids)} identities × {samples} styles to {out_path}")


@main.command("weights")
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--images", "images_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--attrs", required=True, callback=_comma_list,
              help="Comma-separated attributes the weights balance for.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Write CSV here instead of stdout.")
def cmd_weights(schema_path, images_path, attrs, out_path):
    """Inverse-frequency sampling weights for an image table."""
    schema = load_schema(schema_path)
    images = consolidate_identity_attributes(load_images(images_path, schema), schema)
    weights = sampling_weights(images, schema, attrs)
    text = csv_text(
        ["image_id", "weight", "probability"],
        zip(weights.ids, weights.weight.tolist(), weights.probability.tolist()),
    )
    if out_path:
        write_files({Path(out_path): [text]})
        click.echo(f"wrote {len(weights.ids)} rows to {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
