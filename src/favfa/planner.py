"""Dataset balancing: inverse-frequency weights, resampling, generation plans.

Weights follow the inverse-count rule (an image's weight is the product over
the selected attributes of 1/count of its value, continuous values binned
first). The generation planner draws a demographically exact identity pool
and greedily assigns style donors so each identity covers its least-filled
(age bin, pose bin) cells, with deterministic tie-breaking throughout.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import ImageRecord, ImageTable
from .errors import (
    InsufficientCandidates,
    InsufficientStyles,
    MissingAttribute,
    NotDivisible,
    SchemaInvalid,
)
from .metrics import diversity
from .schema import AttributeSchema, Scope

DEFAULT_SEGMENT_ATTRS = ("gender", "ethnicity")


@dataclass(frozen=True)
class WeightEntry:
    image_id: str
    weight: float
    probability: float


@dataclass(frozen=True)
class SamplingWeights:
    entries: tuple[WeightEntry, ...]
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class StyleAssignment:
    style_image: str
    age_bin: int
    pose_bin: int


@dataclass(frozen=True)
class PlanEntry:
    id_image: str
    segment: tuple[str, ...]
    styles: tuple[StyleAssignment, ...]


@dataclass(frozen=True)
class GenerationPlan:
    entries: tuple[PlanEntry, ...]
    samples_per_identity: int
    segment_attrs: tuple[str, ...] = DEFAULT_SEGMENT_ATTRS


def _weight_value(record: ImageRecord, schema: AttributeSchema, name: str) -> object:
    """Counting key for one attribute: the level, or the bin index."""
    attr = schema[name]
    if name not in record.values:
        raise MissingAttribute(record.image_id, name)
    value = record.values[name]
    if attr.is_categorical:
        return value
    return attr.bin_index(float(value))


def _raw_weights(
    images: ImageTable, schema: AttributeSchema, attrs: Sequence[str]
) -> dict[str, float]:
    for name in attrs:
        if name not in schema:
            raise SchemaInvalid(f"unknown attribute {name!r}")
    keys = {
        rec.image_id: tuple(_weight_value(rec, schema, a) for a in attrs)
        for rec in images
    }
    counts = [Counter(k[i] for k in keys.values()) for i in range(len(attrs))]
    weights = {}
    for image_id, key in keys.items():
        w = 1.0
        for i, value in enumerate(key):
            w *= 1.0 / counts[i][value]
        weights[image_id] = w
    return weights


def sampling_weights(
    images: ImageTable, schema: AttributeSchema, attrs: Sequence[str]
) -> SamplingWeights:
    """Inverse-frequency sampling weights over the image table.

    Each image's weight is the product across ``attrs`` of one over the
    number of images sharing its value; probabilities normalize the weights
    to unit total. Entries follow table order, but every probability is
    independent of that order (the normalizer is summed canonically).
    """
    weights = _raw_weights(images, schema, attrs)
    denominator = math.fsum(weights[i] for i in sorted(weights))
    entries = tuple(
        WeightEntry(rec.image_id, weights[rec.image_id], weights[rec.image_id] / denominator)
        for rec in images
    )
    return SamplingWeights(entries, tuple(attrs))


def loss_weights(
    images: ImageTable,
    schema: AttributeSchema,
    attrs: Sequence[str],
    batch: Sequence[str],
) -> list[float]:
    """Batch-normalized loss weights: the sampling weights of the batch
    members divided by the batch total, so the weighted mean has unit mass."""
    if not batch:
        raise ValueError("batch must be non-empty")
    weights = _raw_weights(images, schema, attrs)
    for image_id in batch:
        images.resolve(image_id)
    denominator = math.fsum(weights[i] for i in batch)
    return [weights[i] / denominator for i in batch]


def resample_epoch(weights: SamplingWeights, n: int, seed: int) -> list[str]:
    """Draw ``n`` image ids independently with replacement from the sampling
    probabilities; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    ids = [e.image_id for e in weights.entries]
    probs = np.array([e.probability for e in weights.entries])
    idx = rng.choice(len(ids), size=n, replace=True, p=probs)
    return [ids[i] for i in idx]


def _segment_levels(
    schema: AttributeSchema, segment_attrs: Sequence[str]
) -> list[tuple[str, ...]]:
    cells: list[tuple[str, ...]] = [()]
    for name in segment_attrs:
        attr = schema[name] if name in schema else None
        if attr is None or not attr.is_categorical:
            raise SchemaInvalid(f"segment attribute {name!r} must be categorical")
        cells = [cell + (level,) for cell in cells for level in attr.levels]
    return cells


def _record_segment(
    record: ImageRecord, segment_attrs: Sequence[str]
) -> tuple[str, ...]:
    values = []
    for name in segment_attrs:
        if name not in record.values:
            raise MissingAttribute(record.image_id, name)
        values.append(str(record.values[name]))
    return tuple(values)


def select_id_pool(
    candidates: ImageTable,
    schema: AttributeSchema,
    n_identities: int,
    seed: int,
    segment_attrs: Sequence[str] = DEFAULT_SEGMENT_ATTRS,
) -> list[str]:
    """Identity-image pool with an exactly uniform joint segment distribution.

    ``n_identities`` must divide evenly across the demographic cells; each
    cell contributes the same number of ids, drawn uniformly without
    replacement. Output is canonical: cells in schema order, ids sorted
    within each cell.
    """
    cells = _segment_levels(schema, segment_attrs)
    per_cell, remainder = divmod(n_identities, len(cells))
    if remainder != 0:
        raise NotDivisible(
            f"{n_identities} identities do not divide across {len(cells)} cells"
        )
    pools: dict[tuple[str, ...], list[str]] = {cell: [] for cell in cells}
    for rec in candidates:
        segment = _record_segment(rec, segment_attrs)
        if segment in pools:
            pools[segment].append(rec.image_id)
    for cell in cells:
        if len(pools[cell]) < per_cell:
            raise InsufficientCandidates(cell, len(pools[cell]), per_cell)

    rng = np.random.default_rng(seed)
    selected: list[str] = []
    for cell in cells:
        pool = sorted(pools[cell])
        idx = rng.choice(len(pool), size=per_cell, replace=False)
        selected.extend(sorted(pool[i] for i in idx))
    return selected


def _greedy_fill(
    cells: dict[tuple[int, int], list[str]], k: int
) -> list[tuple[str, tuple[int, int]]]:
    """Pick k styles one at a time, always from the least-filled cell that
    still has unused candidates; ties break to the lowest cell index, then
    candidates are consumed in id order."""
    order = sorted(cells)
    cursor = {cell: 0 for cell in order}
    counts = {cell: 0 for cell in order}
    chosen: list[tuple[str, tuple[int, int]]] = []
    for _ in range(k):
        available = [c for c in order if cursor[c] < len(cells[c])]
        cell = min(available, key=lambda c: (counts[c], c))
        chosen.append((cells[cell][cursor[cell]], cell))
        cursor[cell] += 1
        counts[cell] += 1
    return chosen


def assign_styles(
    plan_ids: Sequence[str],
    id_table: ImageTable,
    style_pool: ImageTable,
    schema: AttributeSchema,
    samples_per_identity: int,
    segment_attrs: Sequence[str] = DEFAULT_SEGMENT_ATTRS,
) -> GenerationPlan:
    """Assign ``samples_per_identity`` style donors to every planned identity.

    Donors always share the identity's demographic segment. Within one
    identity styles are distinct and chosen greedily to keep its (age bin,
    pose bin) cell counts level. The fill depends only on the segment's
    style pool, so every identity of a segment gets the same style list:
    its entries share one ``styles`` tuple. The whole construction is
    deterministic, so equal inputs give byte-identical plans.
    """
    age = schema["age"]
    pose = schema["pose"]
    by_segment: dict[tuple[str, ...], dict[tuple[int, int], list[str]]] = {}
    for rec in style_pool:
        segment = _record_segment(rec, segment_attrs)
        if "age" not in rec.values or "pose" not in rec.values:
            raise MissingAttribute(rec.image_id, "age" if "age" not in rec.values else "pose")
        cell = (age.bin_index(float(rec.values["age"])), pose.bin_index(float(rec.values["pose"])))
        by_segment.setdefault(segment, {}).setdefault(cell, []).append(rec.image_id)
    for cells in by_segment.values():
        for ids in cells.values():
            ids.sort()

    fills: dict[tuple[str, ...], tuple[StyleAssignment, ...]] = {}
    entries = []
    for image_id in plan_ids:
        segment = _record_segment(id_table.resolve(image_id), segment_attrs)
        if segment not in fills:
            cells = by_segment.get(segment, {})
            have = sum(len(ids) for ids in cells.values())
            if have < samples_per_identity:
                raise InsufficientStyles(segment, have, samples_per_identity)
            fills[segment] = tuple(
                StyleAssignment(style_image=sid, age_bin=cell[0], pose_bin=cell[1])
                for sid, cell in _greedy_fill(cells, samples_per_identity)
            )
        entries.append(PlanEntry(id_image=image_id, segment=segment, styles=fills[segment]))
    return GenerationPlan(tuple(entries), samples_per_identity, tuple(segment_attrs))


def plan_diversity_report(
    plan: GenerationPlan, schema: AttributeSchema
) -> dict[str, float]:
    """Diversity of the plan's segment attributes (over identities) and of
    its age and pose bins (over style assignments)."""
    out: dict[str, float] = {}
    for i, name in enumerate(plan.segment_attrs):
        levels = schema[name].levels
        counts = Counter(e.segment[i] for e in plan.entries)
        out[name] = diversity([counts.get(l, 0) for l in levels], len(levels))
    # Entries of one segment share one styles tuple (see assign_styles):
    # count each distinct tuple once, weighted by the entries holding it.
    shared = Counter(id(e.styles) for e in plan.entries)
    styles_of = {id(e.styles): e.styles for e in plan.entries}
    age_counts: Counter[int] = Counter()
    pose_counts: Counter[int] = Counter()
    for key, n_entries in shared.items():
        for s in styles_of[key]:
            age_counts[s.age_bin] += n_entries
            pose_counts[s.pose_bin] += n_entries
    out["age"] = diversity(
        [age_counts.get(i, 0) for i in range(schema["age"].n_bins)],
        schema["age"].n_bins,
    )
    out["pose"] = diversity(
        [pose_counts.get(i, 0) for i in range(schema["pose"].n_bins)],
        schema["pose"].n_bins,
    )
    return out


def plan_to_jsonl(plan: GenerationPlan) -> str:
    """One JSON object per identity, the handoff format for image generators.

    Each line is the entry encoded with sorted keys: its ``"id_image"``
    first, then a ``"segment"``/``"styles"`` tail that every entry with the
    same segment and styles tuple shares, so each tail is encoded once. An
    empty plan gives a single newline.
    """
    tails: dict[tuple[int, tuple[str, ...]], str] = {}
    lines = []
    for entry in plan.entries:
        key = (id(entry.styles), entry.segment)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = json.dumps(
                {
                    "segment": dict(zip(plan.segment_attrs, entry.segment)),
                    "styles": [
                        {
                            "style_image": s.style_image,
                            "age_bin": s.age_bin,
                            "pose_bin": s.pose_bin,
                        }
                        for s in entry.styles
                    ],
                },
                sort_keys=True,
            )[1:]
        lines.append(f'{{"id_image": {json.dumps(entry.id_image)}, {tail}\n')
    return "".join(lines) or "\n"
