"""Image and pair tables: CSV ingestion, identity consolidation, pair covariates.

Tables are immutable after construction; operations that "update" them return
new tables. CSV files are UTF-8 with a header row, comma delimiter and ``.``
decimal point. Soft-score columns are named ``attr:level``.

Pairs are held as columns: a :class:`PairFrame` of numpy arrays, with
covariates in a :class:`CovariateFrame` of level codes and float arrays.
Every statistic reads those columns. :class:`PairRecord` and
:class:`PairCovariates` are the per-pair view of the same data: indexing a
frame gives a record, and functions handed records or a ``pair_id ->
PairCovariates`` mapping convert them into columns first.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import MissingAttribute, ParseError, SchemaInvalid, UnresolvedImage
from .schema import AttributeDef, AttributeSchema, Scope

#: Sentinel level assigned to a pair whose two sides disagree on an attribute.
CROSS_LEVEL = "Cross"

#: Columns accepted as rotation components for a continuous `pose` attribute.
POSE_COMPONENT_COLUMNS = ("pitch", "yaw", "roll")

#: ``PairFrame.predicted`` code of a pair that carries no prediction; the
#: others are 1 (same) and 0 (different).
NO_PREDICTION = -1


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

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """Image ids in record order."""
        return tuple(self.by_id)

    @cached_property
    def index(self) -> dict[str, int]:
        """Row of each image id in ``ids``."""
        return dict(zip(self.ids, range(len(self.ids))))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def resolve(self, image_id: str) -> ImageRecord:
        try:
            return self.by_id[image_id]
        except KeyError:
            raise UnresolvedImage(f"unknown image_id {image_id!r}") from None


@dataclass(frozen=True, eq=False)
class PairFrame:
    """Verification pairs as columns, one entry per pair in input order.

    ``image_a`` and ``image_b`` index ``image_ids``, which for a frame from
    :func:`load_pairs` is the image table's own ``ids``. ``predicted`` holds
    1 (same), 0 (different) or ``NO_PREDICTION``. ``pair_id`` names pairs in
    error messages and in the record view: ``frame[i]`` is pair ``i`` as a
    :class:`PairRecord`.
    """

    pair_id: tuple[str, ...]
    image_ids: tuple[str, ...]
    image_a: np.ndarray
    image_b: np.ndarray
    is_pos: np.ndarray
    distance: np.ndarray
    predicted: np.ndarray

    def __len__(self) -> int:
        return len(self.pair_id)

    def __getitem__(self, i: int) -> PairRecord:
        predicted = int(self.predicted[i])
        return PairRecord(
            self.pair_id[i],
            self.image_ids[self.image_a[i]],
            self.image_ids[self.image_b[i]],
            Label.SAME if self.is_pos[i] else Label.DIFFERENT,
            float(self.distance[i]),
            None if predicted == NO_PREDICTION else (Label.SAME if predicted else Label.DIFFERENT),
        )

    def __iter__(self) -> Iterator[PairRecord]:
        return map(self.__getitem__, range(len(self)))

    @classmethod
    def from_records(cls, pairs: Sequence[PairRecord]) -> PairFrame:
        """Columns of a sequence of records; image ids are numbered in order
        of first appearance."""
        n = len(pairs)
        ids: dict[str, int] = {}
        image_a = [ids.setdefault(p.image_a, len(ids)) for p in pairs]
        image_b = [ids.setdefault(p.image_b, len(ids)) for p in pairs]
        return cls(
            pair_id=tuple(p.pair_id for p in pairs),
            image_ids=tuple(ids),
            image_a=np.array(image_a, dtype=np.intp),
            image_b=np.array(image_b, dtype=np.intp),
            is_pos=np.fromiter((p.ground_truth is Label.SAME for p in pairs), bool, n),
            distance=np.fromiter((p.distance for p in pairs), float, n),
            predicted=np.fromiter(
                (
                    NO_PREDICTION if p.predicted is None else int(p.predicted is Label.SAME)
                    for p in pairs
                ),
                np.int8,
                n,
            ),
        )


@dataclass(frozen=True, eq=False)
class LevelCodes:
    """One categorical covariate: pair ``i`` has level ``levels[codes[i]]``."""

    codes: np.ndarray
    levels: tuple[str, ...]

    def code(self, level: str) -> int:
        """Code of ``level``, or -1 when no pair can have it."""
        return self.levels.index(level) if level in self.levels else -1


class CovariateFrame(Mapping[str, PairCovariates]):
    """Pair covariates as columns, entry ``i`` belonging to ``pair_id[i]``.

    Categorical attributes are :class:`LevelCodes`, continuous ones float64
    arrays. As a mapping it is a ``pair_id -> PairCovariates`` view over
    those columns.
    """

    def __init__(
        self,
        pair_id: tuple[str, ...],
        categorical: dict[str, LevelCodes],
        continuous: dict[str, np.ndarray],
    ):
        self.pair_id = pair_id
        self.categorical = categorical
        self.continuous = continuous

    @classmethod
    def from_mapping(
        cls, pair_id: Sequence[str], covariates: Mapping[str, PairCovariates]
    ) -> CovariateFrame:
        """Columns of the covariates of the listed pairs. The attributes are
        those of the first pair; every other pair must carry them too."""
        covs = [covariates[pid] for pid in pair_id]
        first = covs[0] if covs else PairCovariates("", {}, {})
        categorical: dict[str, LevelCodes] = {}
        continuous: dict[str, np.ndarray] = {}
        try:
            for name in first.categorical:
                levels: dict[str, int] = {}
                codes = np.fromiter(
                    (levels.setdefault(c.categorical[name], len(levels)) for c in covs),
                    np.intp,
                    len(covs),
                )
                categorical[name] = LevelCodes(codes, tuple(levels))
            for name in first.continuous:
                continuous[name] = np.fromiter(
                    (c.continuous[name] for c in covs), float, len(covs)
                )
        except KeyError as exc:
            raise SchemaInvalid(
                f"pair covariates disagree on attribute {exc.args[0]!r}"
            ) from None
        return cls(tuple(pair_id), categorical, continuous)

    @cached_property
    def _row(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.pair_id)}

    def __getitem__(self, pair_id: str) -> PairCovariates:
        i = self._row[pair_id]
        return PairCovariates(
            pair_id,
            {name: col.levels[col.codes[i]] for name, col in self.categorical.items()},
            {name: float(values[i]) for name, values in self.continuous.items()},
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.pair_id)

    def __len__(self) -> int:
        return len(self.pair_id)


def as_pair_frame(pairs: PairFrame | Sequence[PairRecord]) -> PairFrame:
    return pairs if isinstance(pairs, PairFrame) else PairFrame.from_records(pairs)


def pair_columns(
    pairs: PairFrame | Sequence[PairRecord],
    covariates: Mapping[str, PairCovariates],
) -> tuple[PairFrame, CovariateFrame]:
    """The pairs and their covariates as aligned columns: passed through when
    they already are, converted from records and a mapping otherwise."""
    frame = as_pair_frame(pairs)
    if isinstance(covariates, CovariateFrame) and (
        covariates.pair_id is frame.pair_id or covariates.pair_id == frame.pair_id
    ):
        return frame, covariates
    return frame, CovariateFrame.from_mapping(frame.pair_id, covariates)


def filter_subset(frame: PairFrame, subset: Subset) -> np.ndarray:
    """Row mask of the pairs whose ground truth matches ``subset``."""
    return frame.is_pos if subset is Subset.POSITIVES else ~frame.is_pos


def one_hot(codes: np.ndarray, wanted: Sequence[int]) -> np.ndarray:
    """Float indicator block: column ``j`` is 1.0 where ``codes == wanted[j]``."""
    return (codes[:, None] == np.asarray(wanted, dtype=np.intp)).astype(float)


def _parse_finite(raw: str, context: str, *args: object) -> float:
    """``raw`` as a finite float; errors name ``context.format(*args)``."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"{context.format(*args)}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{context.format(*args)}: value must be finite, got {raw!r}")
    return value


def _argmax_first(values: Sequence[float]) -> int:
    return values.index(max(values))


def _csv_rows(
    fh: IO[str], path: str | Path, required: Sequence[str]
) -> tuple[dict[str, int], Iterator[list[str]]]:
    """Column index and data rows of a CSV file, read as ``csv.DictReader``
    reads it: the first row is the header, a repeated column name means its
    last occurrence, blank lines are skipped, cells missing from a short row
    read as empty and cells beyond the header are ignored."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    for col in required:
        if col not in header:
            raise ParseError(f"{path}: missing required column {col!r}")
    width = len(header)

    def rows() -> Iterator[list[str]]:
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            yield row

    return {name: i for i, name in enumerate(header)}, rows()


def _soft_columns(attr: AttributeDef, columns: Mapping[str, int]) -> list[int] | None:
    names = [f"{attr.name}:{level}" for level in attr.levels]
    present = [columns[c] for c in names if c in columns]
    if not present:
        return None
    if len(present) != len(names):
        raise ParseError(
            f"attribute {attr.name!r}: soft-score columns must cover every level"
        )
    return present


def _read_soft_scores(
    cells: list[str], attr: AttributeDef, image_id: str
) -> tuple[float, ...] | None:
    if not all(cells):
        if not any(cells):
            return None
        raise ParseError(f"image {image_id!r}: incomplete soft scores for {attr.name!r}")
    try:
        scores = tuple(map(float, cells))
        finite = all(map(math.isfinite, scores))
    except ValueError:
        finite = False
    if not finite:
        for c in cells:  # raises for the first bad cell
            _parse_finite(c, "image {!r} soft score {!r}", image_id, attr.name)
    if min(scores) < 0:
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
        columns, rows = _csv_rows(fh, path, ("image_id", "identity_id"))
        id_col, identity_col = columns["image_id"], columns["identity_id"]
        pose_cols = (
            [columns[c] for c in POSE_COMPONENT_COLUMNS]
            if all(c in columns for c in POSE_COMPONENT_COLUMNS)
            else None
        )
        plan = [
            (
                attr,
                attr.is_categorical,
                columns.get(attr.name),
                _soft_columns(attr, columns) if attr.is_categorical else None,
                attr.scope is Scope.IMAGE,
            )
            for attr in schema.attributes
        ]

        records = []
        for row in rows:
            image_id = row[id_col].strip()
            identity_id = row[identity_col].strip()
            if not image_id or not identity_id:
                raise ParseError(f"{path}: row with empty image_id or identity_id")
            values: dict[str, str | float] = {}
            softs: dict[str, tuple[float, ...]] = {}
            for attr, categorical, col, soft_cols, image_scoped in plan:
                name = attr.name
                raw = row[col].strip() if col is not None else ""
                if categorical:
                    if raw:
                        if raw not in attr.levels:
                            raise ParseError(
                                f"image {image_id!r}: unknown level {raw!r} "
                                f"for attribute {name!r}"
                            )
                        values[name] = raw
                    if soft_cols is not None:
                        scores = _read_soft_scores(
                            [row[i].strip() for i in soft_cols], attr, image_id
                        )
                        if scores is not None:
                            softs[name] = scores
                            if name not in values and image_scoped:
                                # Image-scoped soft scores resolve per image,
                                # with no identity averaging step to defer to.
                                values[name] = attr.levels[_argmax_first(list(scores))]
                else:
                    if raw:
                        values[name] = _parse_finite(raw, "image {!r} {!r}", image_id, name)
                    elif name == "pose" and pose_cols is not None:
                        comps = [row[i].strip() for i in pose_cols]
                        if all(comps):
                            values[name] = math.sqrt(
                                math.fsum(
                                    _parse_finite(c, "image {!r} pose", image_id) ** 2
                                    for c in comps
                                )
                            )
                if image_scoped and name not in values and name not in softs:
                    raise MissingAttribute(image_id, name)
            records.append(ImageRecord(image_id, identity_id, values, softs))
    return ImageTable(records)


#: Pair label cells, as the codes ``PairFrame.predicted`` holds.
_LABEL_CODES = {"same": 1, "different": 0}


def _label_code(raw: str, pair_id: str, column: str) -> int:
    code = _LABEL_CODES.get(raw)
    if code is None:
        raise ParseError(f"pair {pair_id!r}: {column} must be 'same' or 'different'")
    return code


def load_pairs(path: str | Path, images: ImageTable) -> PairFrame:
    """Load the verification-pair CSV into a :class:`PairFrame`.

    Image references are resolved against ``images`` and stored as rows of
    it. Pair ids must be unique, ``ground_truth`` and the optional
    ``predicted`` column read ``same`` or ``different`` (an empty
    ``predicted`` cell means no prediction), and distances must be finite and
    non-negative.
    """
    index = images.index
    image_a: list[int] = []
    image_b: list[int] = []
    is_pos: list[bool] = []
    distance: list[float] = []
    predicted: list[int] = []
    with open(path, newline="", encoding="utf-8") as fh:
        columns, rows = _csv_rows(
            fh, path, ("pair_id", "image_a", "image_b", "ground_truth", "distance")
        )
        id_col, a_col, b_col, truth_col, dist_col = (
            columns[c] for c in ("pair_id", "image_a", "image_b", "ground_truth", "distance")
        )
        pred_col = columns.get("predicted")
        seen: dict[str, None] = {}  # the pair ids, in order
        for row in rows:
            pair_id = row[id_col].strip()
            if not pair_id:
                raise ParseError(f"{path}: row with empty pair_id")
            if pair_id in seen:
                raise ParseError(f"duplicate pair_id {pair_id!r}")
            seen[pair_id] = None
            a = index.get(row[a_col].strip())
            if a is None:
                images.resolve(row[a_col].strip())
            b = index.get(row[b_col].strip())
            if b is None:
                images.resolve(row[b_col].strip())
            truth = _label_code(row[truth_col].strip().lower(), pair_id, "ground_truth")
            dist = _parse_finite(row[dist_col].strip(), "pair {!r} distance", pair_id)
            pred_raw = row[pred_col].strip().lower() if pred_col is not None else ""
            pred = _label_code(pred_raw, pair_id, "predicted") if pred_raw else NO_PREDICTION
            if dist < 0:
                raise ParseError(
                    f"pair {pair_id!r}: distance must be finite and >= 0, got {dist}"
                )
            image_a.append(a)
            image_b.append(b)
            is_pos.append(truth == 1)
            distance.append(dist)
            predicted.append(pred)
    return PairFrame(
        pair_id=tuple(seen),
        image_ids=images.ids,
        image_a=np.array(image_a, dtype=np.intp),
        image_b=np.array(image_b, dtype=np.intp),
        is_pos=np.array(is_pos, dtype=bool),
        distance=np.array(distance, dtype=float),
        predicted=np.array(predicted, dtype=np.int8),
    )


def consolidate_identity_attributes(
    images: ImageTable, schema: AttributeSchema
) -> ImageTable:
    """Average identity-scoped soft scores per identity and write the argmax.

    For each identity and each identity-scoped categorical attribute, the
    per-level scores are averaged over that identity's images (a hard value
    counts as a one-hot vector) and the winning level is written onto every
    image. Identities carrying hard values only are left untouched. Ties break
    to the earliest schema level. Idempotent, and independent of the image
    order within an identity (the sums are exactly rounded).
    """
    attrs = [a for a in schema.attributes if a.is_categorical and a.scope is Scope.IDENTITY]
    assignments: dict[str, dict[str, str]] = {}
    for recs in images.by_identity.values():
        for attr in attrs:
            name = attr.name
            if not any(name in r.soft_scores for r in recs):
                for r in recs:
                    if name not in r.values:
                        raise MissingAttribute(r.image_id, name)
                continue
            missing = [
                r.image_id for r in recs if name not in r.soft_scores and name not in r.values
            ]
            if missing:
                raise MissingAttribute(min(missing), name)
            vectors = []
            for r in recs:
                scores = r.soft_scores.get(name)
                if scores is None:
                    one_hot = [0.0] * len(attr.levels)
                    one_hot[attr.level_index(r.values[name])] = 1.0
                    scores = tuple(one_hot)
                vectors.append(scores)
            averaged = [math.fsum(level) / len(vectors) for level in zip(*vectors)]
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


#: Marks an image that holds no value for an attribute.
_ABSENT = object()


def covariates_for_pairs(
    pairs: PairFrame | Sequence[PairRecord],
    images: ImageTable,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> CovariateFrame:
    """Collapse the two sides of every pair into one covariate per attribute.

    Each attribute of the image table is encoded once, as level codes or
    floats, and each pair looks up its two images in it. Categorical
    attributes keep the shared level, or the ``Cross`` sentinel when the
    sides differ. Continuous attributes aggregate with the mean of the two
    values (``aggregate="mean"``) or their absolute difference
    (``aggregate="absdiff"``). Symmetric in the two images. The first pair,
    in order, with an unknown image or an attribute missing on a side raises
    ``UnresolvedImage`` or ``MissingAttribute`` for it.
    """
    if aggregate not in ("mean", "absdiff"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    frame = as_pair_frame(pairs)
    n_images = len(images)
    if frame.image_ids is images.ids or frame.image_ids == images.ids:
        rows_a, rows_b = frame.image_a, frame.image_b
    else:
        # images the table lacks point at the slot past its end, which holds
        # no attribute values
        table_rows = np.fromiter(
            (images.index.get(i, n_images) for i in frame.image_ids),
            np.intp,
            len(frame.image_ids),
        )
        rows_a, rows_b = table_rows[frame.image_a], table_rows[frame.image_b]

    failed = np.zeros(len(frame), dtype=bool)
    categorical: dict[str, LevelCodes] = {}
    continuous: dict[str, np.ndarray] = {}
    for attr in schema.attributes:
        raw = [rec.values.get(attr.name, _ABSENT) for rec in images.records]
        raw.append(_ABSENT)
        held = np.fromiter((v is not _ABSENT for v in raw), bool, len(raw))
        failed |= ~held[rows_a] | ~held[rows_b]
        if attr.is_categorical:
            levels = {level: i for i, level in enumerate(attr.levels)}
            cross = levels.setdefault(CROSS_LEVEL, len(levels))
            codes = np.fromiter(
                (-1 if v is _ABSENT else levels.setdefault(v, len(levels)) for v in raw),
                np.intp,
                len(raw),
            )
            code_a, code_b = codes[rows_a], codes[rows_b]
            categorical[attr.name] = LevelCodes(
                np.where(code_a == code_b, code_a, cross), tuple(levels)
            )
        else:
            values = np.fromiter(
                (math.nan if v is _ABSENT else float(v) for v in raw), float, len(raw)
            )
            va, vb = values[rows_a], values[rows_b]
            continuous[attr.name] = (va + vb) / 2 if aggregate == "mean" else np.abs(va - vb)

    if failed.any():
        pair = frame[int(np.argmax(failed))]
        sides = (images.resolve(pair.image_a), images.resolve(pair.image_b))
        for attr in schema.attributes:
            for rec in sides:
                _required_value(rec, attr.name)
    return CovariateFrame(frame.pair_id, categorical, continuous)


def derive_pair_covariates(
    pair: PairRecord,
    images: ImageTable,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> PairCovariates:
    """The covariates of one pair, as :func:`covariates_for_pairs` derives them."""
    return covariates_for_pairs((pair,), images, schema, aggregate)[pair.pair_id]


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
