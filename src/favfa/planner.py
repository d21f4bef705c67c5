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

from .data import ImageFrame, ImageTable, as_image_frame, bin_codes
from .errors import (
    InsufficientCandidates,
    InsufficientStyles,
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


def _weight_key(frame: ImageFrame, schema: AttributeSchema, name: str) -> np.ndarray:
    """Counting key of every image for one attribute, as a code: the level
    code, or the bin index; -1 for an image without one."""
    attr = schema[name]
    if attr.is_categorical:
        return frame.codes(attr).codes
    return bin_codes(attr, frame.floats(name))


def _weight_value(frame: ImageFrame, row: int, schema: AttributeSchema, name: str) -> object:
    """Counting key for one attribute of one image: the level, or the bin
    index. Raises for an image without a value, or one outside the bins."""
    attr = schema[name]
    value = frame.value(row, name)
    if attr.is_categorical:
        return value
    return attr.bin_index(float(value))


def _raw_weights(
    images: ImageFrame | ImageTable, schema: AttributeSchema, attrs: Sequence[str]
) -> tuple[ImageFrame, np.ndarray]:
    """The image columns and each image's weight, in frame order."""
    for name in attrs:
        if name not in schema:
            raise SchemaInvalid(f"unknown attribute {name!r}")
    frame = as_image_frame(images, schema)
    keys = [_weight_key(frame, schema, name) for name in attrs]
    lacking = [codes < 0 for codes in keys]
    if any(mask.any() for mask in lacking):
        row = int(np.argmax(np.logical_or.reduce(lacking)))
        for name in attrs:  # raises for the image's first attribute without a key
            _weight_value(frame, row, schema, name)
    weights = np.ones(len(frame))
    for codes in keys:
        weights *= 1.0 / np.bincount(codes)[codes]
    return frame, weights


def sampling_weights(
    images: ImageFrame | ImageTable, schema: AttributeSchema, attrs: Sequence[str]
) -> SamplingWeights:
    """Inverse-frequency sampling weights over the image table.

    Each image's weight is the product across ``attrs`` of one over the
    number of images sharing its value (counted with one ``np.bincount`` of
    the attribute's level codes or bin indices); probabilities normalize the
    weights to unit total. Entries follow table order, but every probability
    is independent of that order (the normalizer is an exactly rounded sum).
    """
    frame, weights = _raw_weights(images, schema, attrs)
    denominator = math.fsum(weights.tolist())
    entries = tuple(
        map(WeightEntry, frame.ids, weights.tolist(), (weights / denominator).tolist())
    )
    return SamplingWeights(entries, tuple(attrs))


def loss_weights(
    images: ImageFrame | ImageTable,
    schema: AttributeSchema,
    attrs: Sequence[str],
    batch: Sequence[str],
) -> list[float]:
    """Batch-normalized loss weights: the sampling weights of the batch
    members divided by the batch total, so the weighted mean has unit mass."""
    if not batch:
        raise ValueError("batch must be non-empty")
    frame, weights = _raw_weights(images, schema, attrs)
    chosen = weights[[frame.row(image_id) for image_id in batch]].tolist()
    denominator = math.fsum(chosen)
    return [w / denominator for w in chosen]


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


def _segments(
    frame: ImageFrame, schema: AttributeSchema, segment_attrs: Sequence[str]
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """Segment of every image: a code, -1 for an image lacking a segment
    attribute, and the segment each code stands for."""
    cols = [frame.codes(schema[name]) for name in segment_attrs]
    codes = np.zeros(len(frame), dtype=np.intp)
    held = np.ones(len(frame), dtype=bool)
    segments: list[tuple[str, ...]] = [()]
    for col in cols:
        codes = codes * len(col.levels) + col.codes
        held &= col.codes >= 0
        segments = [seg + (str(level),) for seg in segments for level in col.levels]
    return np.where(held, codes, -1), segments


def _record_segment(
    frame: ImageFrame, row: int, segment_attrs: Sequence[str]
) -> tuple[str, ...]:
    """Segment of one image; raises for its first missing segment attribute."""
    return tuple(str(frame.value(row, name)) for name in segment_attrs)


def select_id_pool(
    candidates: ImageFrame | ImageTable,
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
    frame = as_image_frame(candidates, schema)
    codes, segments = _segments(frame, schema, segment_attrs)
    if (codes < 0).any():
        _record_segment(frame, int(np.argmin(codes)), segment_attrs)
    pools: dict[tuple[str, ...], list[str]] = {cell: [] for cell in cells}
    for code in np.unique(codes).tolist():
        if segments[code] in pools:
            pools[segments[code]] += [frame.ids[r] for r in np.flatnonzero(codes == code)]
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


def _style_cell(
    frame: ImageFrame, row: int, schema: AttributeSchema, segment_attrs: Sequence[str]
) -> tuple[int, int]:
    """(age bin, pose bin) of one style image. Raises for a missing segment
    attribute, then a missing age or pose, then a value outside the bins."""
    _record_segment(frame, row, segment_attrs)
    age, pose = (float(frame.value(row, name)) for name in ("age", "pose"))
    return schema["age"].bin_index(age), schema["pose"].bin_index(pose)


def assign_styles(
    plan_ids: Sequence[str],
    id_table: ImageFrame | ImageTable,
    style_pool: ImageFrame | ImageTable,
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
    styles = as_image_frame(style_pool, schema)
    style_codes, style_segments = _segments(styles, schema, segment_attrs)
    age_bins = bin_codes(schema["age"], styles.floats("age"))
    pose_bins = bin_codes(schema["pose"], styles.floats("pose"))
    ok = (style_codes >= 0) & (age_bins >= 0) & (pose_bins >= 0)
    if not ok.all():
        _style_cell(styles, int(np.argmin(ok)), schema, segment_attrs)
    by_segment: dict[tuple[str, ...], dict[tuple[int, int], list[str]]] = {}
    for code, age_bin, pose_bin, image_id in zip(
        style_codes.tolist(), age_bins.tolist(), pose_bins.tolist(), styles.ids
    ):
        cells = by_segment.setdefault(style_segments[code], {})
        cells.setdefault((age_bin, pose_bin), []).append(image_id)
    for cells in by_segment.values():
        for ids in cells.values():
            ids.sort()

    frame = as_image_frame(id_table, schema)
    codes, segments = _segments(frame, schema, segment_attrs)
    codes = codes.tolist()
    fills: dict[tuple[str, ...], tuple[StyleAssignment, ...]] = {}
    entries = []
    for image_id in plan_ids:
        row = frame.row(image_id)
        if codes[row] < 0:
            _record_segment(frame, row, segment_attrs)
        segment = segments[codes[row]]
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
