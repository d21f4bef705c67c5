"""Image and pair tables: CSV ingestion, identity consolidation, pair covariates.

Tables are immutable after construction; operations that "update" them return
new tables. CSV files are UTF-8 with a header row, comma delimiter and ``.``
decimal point. Soft-score columns are named ``attr:level``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import MissingAttribute, ParseError, UnresolvedImage
from .schema import AttributeDef, AttributeSchema, Scope

#: Sentinel level assigned to a pair whose two sides disagree on an attribute.
CROSS_LEVEL = "Cross"

#: Columns accepted as rotation components for a continuous `pose` attribute.
POSE_COMPONENT_COLUMNS = ("pitch", "yaw", "roll")


class Label(str, Enum):
    SAME = "same"
    DIFFERENT = "different"


class Subset(str, Enum):
    POSITIVES = "positives"
    NEGATIVES = "negatives"

    @property
    def ground_truth(self) -> Label:
        return Label.SAME if self is Subset.POSITIVES else Label.DIFFERENT


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    identity_id: str
    values: dict[str, str | float]
    soft_scores: dict[str, tuple[float, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class PairRecord:
    pair_id: str
    image_a: str
    image_b: str
    ground_truth: Label
    distance: float
    predicted: Label | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.distance) or self.distance < 0:
            raise ParseError(
                f"pair {self.pair_id!r}: distance must be finite and >= 0, "
                f"got {self.distance}"
            )


@dataclass(frozen=True)
class PairCovariates:
    pair_id: str
    categorical: dict[str, str]
    continuous: dict[str, float]


class ImageTable:
    """Immutable collection of image records with id and identity indexes."""

    def __init__(self, records: Iterable[ImageRecord]):
        self.records: tuple[ImageRecord, ...] = tuple(records)
        by_id: dict[str, ImageRecord] = {}
        by_identity: dict[str, list[ImageRecord]] = {}
        for rec in self.records:
            if rec.image_id in by_id:
                raise ParseError(f"duplicate image_id {rec.image_id!r}")
            by_id[rec.image_id] = rec
            by_identity.setdefault(rec.identity_id, []).append(rec)
        self.by_id = by_id
        self.by_identity = {k: tuple(v) for k, v in by_identity.items()}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def resolve(self, image_id: str) -> ImageRecord:
        try:
            return self.by_id[image_id]
        except KeyError:
            raise UnresolvedImage(f"unknown image_id {image_id!r}") from None


def _parse_finite(raw: str, context: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"{context}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{context}: value must be finite, got {raw!r}")
    return value


def _argmax_first(values: Sequence[float]) -> int:
    return values.index(max(values))


def _soft_columns(attr: AttributeDef, header: Sequence[str]) -> dict[str, str] | None:
    cols = {level: f"{attr.name}:{level}" for level in attr.levels}
    present = [c for c in cols.values() if c in header]
    if not present:
        return None
    if len(present) != len(cols):
        raise ParseError(
            f"attribute {attr.name!r}: soft-score columns must cover every level"
        )
    return cols


def _read_soft_scores(
    row: Mapping[str, str], attr: AttributeDef, cols: dict[str, str], image_id: str
) -> tuple[float, ...] | None:
    cells = [(row.get(col) or "").strip() for col in cols.values()]
    if all(not c for c in cells):
        return None
    if any(not c for c in cells):
        raise ParseError(f"image {image_id!r}: incomplete soft scores for {attr.name!r}")
    scores = tuple(
        _parse_finite(c, f"image {image_id!r} soft score {attr.name!r}") for c in cells
    )
    if any(s < 0 for s in scores):
        raise ParseError(f"image {image_id!r}: negative soft score for {attr.name!r}")
    if abs(math.fsum(scores) - 1.0) > 1e-6:
        raise ParseError(
            f"image {image_id!r}: soft scores for {attr.name!r} must sum to 1"
        )
    return scores


def load_images(path: str | Path, schema: AttributeSchema) -> ImageTable:
    """Load the image metadata CSV.

    Each row needs ``image_id`` and ``identity_id``. Attribute values come
    from a column named after the attribute; categorical attributes may come
    as per-level soft-score columns ``attr:level`` instead. A continuous
    ``pose`` value may alternatively be given as ``pitch``, ``yaw`` and
    ``roll`` columns (degrees), combined into their Euclidean norm. Image
    scoped attributes are required on every row; identity-scoped ones may be
    left for consolidation.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise ParseError(f"{path}: empty file")
        for col in ("image_id", "identity_id"):
            if col not in header:
                raise ParseError(f"{path}: missing required column {col!r}")
        soft_cols = {
            a.name: _soft_columns(a, header) for a in schema.categorical()
        }
        has_pose_components = all(c in header for c in POSE_COMPONENT_COLUMNS)

        records = []
        for row in reader:
            image_id = (row.get("image_id") or "").strip()
            identity_id = (row.get("identity_id") or "").strip()
            if not image_id or not identity_id:
                raise ParseError(f"{path}: row with empty image_id or identity_id")
            values: dict[str, str | float] = {}
            softs: dict[str, tuple[float, ...]] = {}
            for attr in schema.attributes:
                name = attr.name
                raw = (row.get(name) or "").strip()
                if attr.is_categorical:
                    if raw:
                        if raw not in attr.levels:
                            raise ParseError(
                                f"image {image_id!r}: unknown level {raw!r} "
                                f"for attribute {name!r}"
                            )
                        values[name] = raw
                    cols = soft_cols[name]
                    if cols is not None:
                        scores = _read_soft_scores(row, attr, cols, image_id)
                        if scores is not None:
                            softs[name] = scores
                            if name not in values and attr.scope is Scope.IMAGE:
                                # Image-scoped soft scores resolve per image,
                                # with no identity averaging step to defer to.
                                values[name] = attr.levels[_argmax_first(list(scores))]
                else:
                    if raw:
                        values[name] = _parse_finite(raw, f"image {image_id!r} {name!r}")
                    elif name == "pose" and has_pose_components:
                        comps = [(row.get(c) or "").strip() for c in POSE_COMPONENT_COLUMNS]
                        if all(comps):
                            values[name] = math.sqrt(
                                math.fsum(
                                    _parse_finite(c, f"image {image_id!r} pose")** 2
                                    for c in comps
                                )
                            )
                if (
                    attr.scope is Scope.IMAGE
                    and name not in values
                    and name not in softs
                ):
                    raise MissingAttribute(image_id, name)
            records.append(ImageRecord(image_id, identity_id, values, softs))
    return ImageTable(records)


def _parse_label(raw: str, pair_id: str, column: str) -> Label:
    try:
        return Label(raw)
    except ValueError as exc:
        raise ParseError(
            f"pair {pair_id!r}: {column} must be 'same' or 'different'"
        ) from exc


def load_pairs(path: str | Path, images: ImageTable) -> tuple[PairRecord, ...]:
    """Load the verification-pair CSV and resolve image references."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise ParseError(f"{path}: empty file")
        for col in ("pair_id", "image_a", "image_b", "ground_truth", "distance"):
            if col not in header:
                raise ParseError(f"{path}: missing required column {col!r}")
        pairs = []
        seen: set[str] = set()
        for row in reader:
            pair_id = (row.get("pair_id") or "").strip()
            if not pair_id:
                raise ParseError(f"{path}: row with empty pair_id")
            if pair_id in seen:
                raise ParseError(f"duplicate pair_id {pair_id!r}")
            seen.add(pair_id)
            image_a = (row.get("image_a") or "").strip()
            image_b = (row.get("image_b") or "").strip()
            images.resolve(image_a)
            images.resolve(image_b)
            gt_raw = (row.get("ground_truth") or "").strip().lower()
            ground_truth = _parse_label(gt_raw, pair_id, "ground_truth")
            distance = _parse_finite(
                (row.get("distance") or "").strip(), f"pair {pair_id!r} distance"
            )
            pred_raw = (row.get("predicted") or "").strip().lower()
            predicted = _parse_label(pred_raw, pair_id, "predicted") if pred_raw else None
            pairs.append(
                PairRecord(pair_id, image_a, image_b, ground_truth, distance, predicted)
            )
    return tuple(pairs)


def consolidate_identity_attributes(
    images: ImageTable, schema: AttributeSchema
) -> ImageTable:
    """Average identity-scoped soft scores per identity and write the argmax.

    For each identity and each identity-scoped categorical attribute, the
    per-level scores are averaged over that identity's images (a hard value
    counts as a one-hot vector) and the winning level is written onto every
    image. Identities carrying hard values only are left untouched. Ties break
    to the earliest schema level. Idempotent, and independent of the image
    order within an identity.
    """
    assignments: dict[str, dict[str, str]] = {}
    for identity_id, recs in images.by_identity.items():
        for attr in schema.attributes:
            if not attr.is_categorical or attr.scope is not Scope.IDENTITY:
                continue
            name = attr.name
            if not any(name in r.soft_scores for r in recs):
                for r in recs:
                    if name not in r.values:
                        raise MissingAttribute(r.image_id, name)
                continue
            vectors = []
            for r in sorted(recs, key=lambda r: r.image_id):
                if name in r.soft_scores:
                    vectors.append(r.soft_scores[name])
                elif name in r.values:
                    one_hot = [0.0] * len(attr.levels)
                    one_hot[attr.level_index(r.values[name])] = 1.0
                    vectors.append(tuple(one_hot))
                else:
                    raise MissingAttribute(r.image_id, name)
            averaged = [
                math.fsum(v[i] for v in vectors) / len(vectors)
                for i in range(len(attr.levels))
            ]
            level = attr.levels[_argmax_first(averaged)]
            for r in recs:
                assignments.setdefault(r.image_id, {})[name] = level

    updated = []
    for rec in images.records:
        extra = assignments.get(rec.image_id)
        if extra:
            updated.append(
                ImageRecord(
                    rec.image_id,
                    rec.identity_id,
                    {**rec.values, **extra},
                    dict(rec.soft_scores),
                )
            )
        else:
            updated.append(rec)
    return ImageTable(updated)


def _required_value(record: ImageRecord, name: str) -> str | float:
    try:
        return record.values[name]
    except KeyError:
        raise MissingAttribute(record.image_id, name) from None


def derive_pair_covariates(
    pair: PairRecord,
    images: ImageTable,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> PairCovariates:
    """Collapse the two sides of a pair into one covariate per attribute.

    Categorical attributes keep the shared level, or the ``Cross`` sentinel
    when the sides differ. Continuous attributes aggregate with the mean of
    the two values (``aggregate="mean"``) or their absolute difference
    (``aggregate="absdiff"``). Symmetric in the two images.
    """
    if aggregate not in ("mean", "absdiff"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    rec_a = images.resolve(pair.image_a)
    rec_b = images.resolve(pair.image_b)
    categorical: dict[str, str] = {}
    continuous: dict[str, float] = {}
    for attr in schema.attributes:
        va = _required_value(rec_a, attr.name)
        vb = _required_value(rec_b, attr.name)
        if attr.is_categorical:
            categorical[attr.name] = va if va == vb else CROSS_LEVEL
        else:
            fa, fb = float(va), float(vb)
            continuous[attr.name] = (fa + fb) / 2 if aggregate == "mean" else abs(fa - fb)
    return PairCovariates(pair.pair_id, categorical, continuous)


def covariates_for_pairs(
    pairs: Sequence[PairRecord],
    images: ImageTable,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> dict[str, PairCovariates]:
    return {
        p.pair_id: derive_pair_covariates(p, images, schema, aggregate) for p in pairs
    }


def filter_subset(pairs: Sequence[PairRecord], subset: Subset) -> list[PairRecord]:
    wanted = subset.ground_truth
    return [p for p in pairs if p.ground_truth is wanted]


def attribute_frequencies(
    images: ImageTable, schema: AttributeSchema, name: str
) -> list[float]:
    """Observed frequency table for one attribute, aligned with its levels
    (categorical) or bins (continuous). Identity-scoped attributes count each
    identity once, via its lexicographically first image."""
    attr = schema[name]
    if attr.scope is Scope.IDENTITY:
        holders = [
            min(recs, key=lambda r: r.image_id) for recs in images.by_identity.values()
        ]
    else:
        holders = list(images.records)
    if attr.is_categorical:
        counts = [0] * len(attr.levels)
        for rec in holders:
            counts[attr.level_index(str(_required_value(rec, name)))] += 1
    else:
        counts = [0] * attr.n_bins
        for rec in holders:
            counts[attr.bin_index(float(_required_value(rec, name)))] += 1
    return [float(c) for c in counts]
