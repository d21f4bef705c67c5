"""Dataset balancing: inverse-frequency weights, resampling, generation plans.

Weights follow the inverse-count rule (an image's weight is the product over
the selected attributes of 1/count of its value, continuous values binned
first). The generation planner draws an identity pool exactly balanced over
the gender x ethnicity segments (``SEGMENT_ATTRS``) and greedily assigns
style donors so each identity covers its least-filled (age bin, pose bin)
cells, with deterministic tie-breaking throughout.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .data import ImageFrame, LevelCodes, key_checks, raise_first, segment_codes
from .errors import (
    InsufficientCandidates,
    InsufficientStyles,
    NotDivisible,
    SchemaInvalid,
)
from .metrics import diversity
from .schema import AttributeSchema

#: The attributes whose joint levels make a planner segment.
SEGMENT_ATTRS = ("gender", "ethnicity")


@dataclass(frozen=True, eq=False)
class SamplingWeights:
    """Weights as columns: image ``ids[i]`` (the image table's own id
    column) has weight ``weight[i]`` and probability ``probability[i]``."""

    ids: tuple[str, ...]
    weight: np.ndarray
    probability: np.ndarray
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class StyleAssignment:
    style_image: str
    age_bin: int
    pose_bin: int


@dataclass(frozen=True, eq=False)
class GenerationPlan:
    """A plan as columns: identity ``ids[i]`` is in group ``group[i]``, and
    ``groups[g]`` is group g's segment and the styles every identity of it
    gets."""

    ids: tuple[str, ...]
    group: np.ndarray
    groups: tuple[tuple[tuple[str, ...], tuple[StyleAssignment, ...]], ...]


def _raw_weights(
    frame: ImageFrame, schema: AttributeSchema, attrs: Sequence[str]
) -> np.ndarray:
    """Each image's weight, in frame order."""
    if len(set(attrs)) != len(attrs):
        raise SchemaInvalid("attrs repeats an attribute")
    for name in attrs:
        if name not in schema:
            raise SchemaInvalid(f"unknown attribute {name!r}")
    rows = np.arange(len(frame))
    keyed = [key_checks(frame, schema[name], rows) for name in attrs]
    raise_first([check for _, checks in keyed for check in checks])
    weights = np.ones(len(frame))
    for codes, _ in keyed:
        weights *= 1.0 / np.bincount(codes)[codes]
    return weights


def sampling_weights(
    frame: ImageFrame, schema: AttributeSchema, attrs: Sequence[str]
) -> SamplingWeights:
    """Inverse-frequency sampling weights over the image table.

    Each image's weight is the product across ``attrs`` of one over the
    number of images sharing its value (counted with one ``np.bincount`` of
    the attribute's level codes or bin indices); probabilities normalize the
    weights to unit total. Rows follow table order, but every probability
    is independent of that order (the normalizer is an exactly rounded sum).
    An attribute named twice raises ``SchemaInvalid``; the first image
    without a value, or with one no bin holds, raises for its first such
    attribute.
    """
    weights = _raw_weights(frame, schema, attrs)
    return SamplingWeights(
        frame.ids, weights, weights / math.fsum(weights.tolist()), tuple(attrs)
    )


def loss_weights(
    frame: ImageFrame,
    schema: AttributeSchema,
    attrs: Sequence[str],
    batch: Sequence[str],
) -> list[float]:
    """Batch-normalized loss weights: the sampling weights of the batch
    members divided by the batch total, so the weighted mean has unit mass."""
    if not batch:
        raise ValueError("batch must be non-empty")
    weights = _raw_weights(frame, schema, attrs)
    chosen = weights[[frame.row(image_id) for image_id in batch]].tolist()
    denominator = math.fsum(chosen)
    return [w / denominator for w in chosen]


def resample_epoch(weights: SamplingWeights, n: int, seed: int) -> list[str]:
    """Draw ``n`` image ids independently with replacement from the sampling
    probabilities; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(weights.ids), size=n, replace=True, p=weights.probability)
    return [weights.ids[i] for i in idx.tolist()]


def _segments(
    frame: ImageFrame, schema: AttributeSchema, rows: np.ndarray
) -> tuple[np.ndarray, list[tuple[str, ...]], list]:
    """Segment of the images ``rows``: a code, -1 for an image lacking a
    segment attribute, the segment each code stands for (every segment of
    the schema's levels, in schema order), and the checks of the
    ``SEGMENT_ATTRS``. A schema must declare each of them categorical."""
    columns = []
    checks = []
    for name in SEGMENT_ATTRS:
        attr = schema[name] if name in schema else None
        if attr is None or not attr.is_categorical:
            raise SchemaInvalid(f"segment attribute {name!r} must be categorical")
        codes, attr_checks = key_checks(frame, attr, rows)
        columns.append(LevelCodes(codes, attr.levels))
        checks += attr_checks
    return *segment_codes(len(rows), columns), checks


def select_id_pool(
    frame: ImageFrame,
    schema: AttributeSchema,
    n_identities: int,
    seed: int,
) -> list[str]:
    """Identity-image pool with an exactly uniform joint segment distribution.

    ``n_identities`` must divide evenly across the ``SEGMENT_ATTRS`` cells;
    each cell contributes the same number of ids, drawn uniformly without
    replacement. Output is canonical: cells in schema order, ids sorted
    within each cell. The segment attributes must be categorical; the first
    image lacking one raises for its first such attribute, read off one mask
    per attribute.
    """
    codes, cells, checks = _segments(frame, schema, np.arange(len(frame)))
    per_cell, remainder = divmod(n_identities, len(cells))
    if remainder != 0:
        raise NotDivisible(
            f"{n_identities} identities do not divide across {len(cells)} cells"
        )
    raise_first(checks)
    # each cell's candidate ids, sorted once; the draws index into them
    pools = [
        sorted(map(frame.ids.__getitem__, np.flatnonzero(codes == code).tolist()))
        for code in range(len(cells))
    ]
    for cell, pool in zip(cells, pools):
        if len(pool) < per_cell:
            raise InsufficientCandidates(cell, len(pool), per_cell)

    rng = np.random.default_rng(seed)
    selected: list[str] = []
    for pool in pools:
        idx = rng.choice(len(pool), size=per_cell, replace=False)
        selected.extend(map(pool.__getitem__, np.sort(idx).tolist()))
    return selected


def _greedy_fill(
    cells: dict[tuple[int, int], list[str]], k: int
) -> list[tuple[str, tuple[int, int]]]:
    """The first k styles in (rank within cell, cell) order, each cell's
    candidates ranked in id order: picking one at a time from the
    least-filled cell that still has candidates, lowest cell first, visits
    the cells round-robin in exactly this order."""
    order = sorted(cells)
    depth = max(map(len, cells.values()), default=0)
    ranked = (
        (cells[cell][rank], cell)
        for rank in range(depth)
        for cell in order
        if rank < len(cells[cell])
    )
    return list(islice(ranked, k))


def assign_styles(
    plan_ids: Sequence[str],
    frame: ImageFrame,
    styles: ImageFrame,
    schema: AttributeSchema,
    samples_per_identity: int,
) -> GenerationPlan:
    """Assign ``samples_per_identity`` style donors to every planned identity.

    Donors always share the identity's demographic segment. Within one
    identity styles are distinct and chosen greedily to keep its (age bin,
    pose bin) cell counts level. The fill depends only on the segment's
    style pool, so every identity of a segment gets the same style list:
    the plan holds one group per segment, in schema order, and one
    ``styles`` tuple per group. The whole construction is deterministic, so
    equal inputs give byte-identical plans.

    An unknown id in ``plan_ids`` raises first. The other inputs are judged
    by one mask per check, and the first image a mask flags raises its first
    error: a style image for a missing segment attribute, then a missing age
    or pose, then an age or pose no bin holds; a planned identity for a
    missing segment attribute, then a segment with too few style images.
    """
    rows = np.fromiter(map(frame.index.get, plan_ids, repeat(-1)), np.intp, len(plan_ids))
    unknown = np.flatnonzero(rows < 0)
    if unknown.size:
        frame.row(plan_ids[unknown[0]])  # raises for the first unknown id
    for name in ("age", "pose"):
        attr = schema[name] if name in schema else None
        if attr is None or attr.is_categorical or attr.bins is None:
            raise SchemaInvalid(f"style attribute {name!r} must be continuous with bins")
    everyone = np.arange(len(styles))
    style_codes, style_segments, checks = _segments(styles, schema, everyone)
    age_bins, (age_missing, age_out) = key_checks(styles, schema["age"], everyone)
    pose_bins, (pose_missing, pose_out) = key_checks(styles, schema["pose"], everyone)
    raise_first(checks + [age_missing, pose_missing, age_out, pose_out])
    by_segment: dict[tuple[str, ...], dict[tuple[int, int], list[str]]] = {}
    for code, age_bin, pose_bin, image_id in zip(
        style_codes.tolist(), age_bins.tolist(), pose_bins.tolist(), styles.ids
    ):
        cells = by_segment.setdefault(style_segments[code], {})
        cells.setdefault((age_bin, pose_bin), []).append(image_id)
    for cells in by_segment.values():
        for ids in cells.values():
            ids.sort()

    codes, segments, checks = _segments(frame, schema, rows)
    have = [sum(map(len, by_segment.get(segment, {}).values())) for segment in segments]
    # a row without a segment (code -1) is flagged by an earlier check
    short = np.array(have)[codes] < samples_per_identity
    raise_first(checks + [(short, lambda i: InsufficientStyles(
        segments[codes[i]], have[codes[i]], samples_per_identity))])
    present, group = np.unique(codes, return_inverse=True)
    groups = []
    for code in present.tolist():
        fill = _greedy_fill(by_segment.get(segments[code], {}), samples_per_identity)
        groups.append((segments[code], tuple(
            StyleAssignment(style_image=sid, age_bin=cell[0], pose_bin=cell[1])
            for sid, cell in fill
        )))
    return GenerationPlan(tuple(plan_ids), group, tuple(groups))


def plan_diversity_report(
    plan: GenerationPlan, schema: AttributeSchema
) -> dict[str, float]:
    """Diversity of the plan's segment attributes (over identities) and of
    its age and pose bins (over style assignments): each group counts once,
    weighted by its number of identities."""
    sizes = np.bincount(plan.group, minlength=len(plan.groups)).tolist()
    counts: dict[str, Counter] = {name: Counter() for name in (*SEGMENT_ATTRS, "age", "pose")}
    for (segment, styles), n in zip(plan.groups, sizes):
        for name, level in zip(SEGMENT_ATTRS, segment):
            counts[name][level] += n
        for s in styles:
            counts["age"][s.age_bin] += n
            counts["pose"][s.pose_bin] += n
    out: dict[str, float] = {}
    for name, tally in counts.items():
        keys = schema[name].levels if name in SEGMENT_ATTRS else range(schema[name].n_bins)
        out[name] = diversity([tally[key] for key in keys], len(keys))
    return out


def plan_to_jsonl(plan: GenerationPlan) -> str:
    """One JSON object per identity, the handoff format for image generators.

    Each line is the identity's object encoded with sorted keys: its
    ``"id_image"`` first, then the ``"segment"``/``"styles"`` tail of its
    group, encoded once for each group the plan uses. An empty plan gives a
    single newline.
    """
    used = np.bincount(plan.group, minlength=len(plan.groups)).tolist()
    tails = [
        json.dumps(
            {
                "segment": dict(zip(SEGMENT_ATTRS, segment)),
                "styles": [
                    {"style_image": s.style_image, "age_bin": s.age_bin, "pose_bin": s.pose_bin}
                    for s in styles
                ],
            },
            sort_keys=True,
        )[1:] + "\n" if n else ""
        for (segment, styles), n in zip(plan.groups, used)
    ]
    # one join copies every piece once; a string per line would copy each tail twice
    parts: list[str] = []
    for image_id, g in zip(plan.ids, plan.group.tolist()):
        parts += ('{"id_image": ', encode_basestring_ascii(image_id), ", ", tails[g])
    return "".join(parts) or "\n"
