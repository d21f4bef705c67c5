"""Image and pair tables: CSV ingestion, identity consolidation, pair covariates.

Tables are immutable after construction; operations that "update" them return
new tables. CSV files are UTF-8 with a header row, comma delimiter and ``.``
decimal point. Soft-score columns are named ``attr:level``.

Images and pairs are held as columns. An :class:`ImageFrame` has an identity
code per image, level codes per categorical attribute, a score matrix per
soft-scored attribute and a float array per continuous one; a
:class:`PairFrame` has numpy arrays per pair field, with covariates in a
:class:`CovariateFrame` of level codes and float arrays. Every statistic
reads those columns. :class:`ImageRecord`, :class:`PairRecord` and
:class:`PairCovariates` are the per-row view of the same data: indexing a
frame gives a record, and functions handed an :class:`ImageTable` of records,
a sequence of pair records or a ``pair_id -> PairCovariates`` mapping
convert them into columns first.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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

#: CSV rows turned into columns at a time. Small blocks keep the row lists
#: of a large file out of memory and the block in cache while its columns
#: are read.
_BLOCK_ROWS = 2048


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


@dataclass(frozen=True, eq=False)
class LevelCodes:
    """One categorical column: row ``i`` has level ``levels[codes[i]]``, or
    none when the code is -1."""

    codes: np.ndarray
    levels: tuple[str, ...]

    def code(self, level: str) -> int:
        """Code of ``level``, or -1 when no row can have it."""
        return self.levels.index(level) if level in self.levels else -1


@dataclass(frozen=True, eq=False)
class ImageFrame:
    """Images as columns, one entry per image in input order.

    ``identity[i]`` indexes ``identities``, the identity ids in order of
    first appearance. Each categorical attribute is a :class:`LevelCodes`
    column over the schema's levels, -1 where the image holds no value; each
    soft-scored attribute an ``(n, k)`` float64 matrix of per-level scores,
    with NaN rows for images that carry none; each continuous attribute a
    float64 array, NaN where the image holds no value. ``index`` maps image
    ids to rows. ``frame[i]`` is image ``i`` as an :class:`ImageRecord`.
    """

    ids: tuple[str, ...]
    identity: np.ndarray
    identities: tuple[str, ...]
    categorical: dict[str, LevelCodes]
    scores: dict[str, np.ndarray]
    continuous: dict[str, np.ndarray]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_records(
        cls, records: Sequence[ImageRecord], schema: AttributeSchema
    ) -> ImageFrame:
        """Columns of the schema's attributes over a sequence of records with
        distinct image ids. A categorical value outside the schema's levels
        gets a code past them, in order of first appearance."""
        n = len(records)
        identities: dict[str, int] = {}
        identity = np.fromiter(
            (identities.setdefault(r.identity_id, len(identities)) for r in records), np.intp, n
        )
        categorical: dict[str, LevelCodes] = {}
        scores: dict[str, np.ndarray] = {}
        continuous: dict[str, np.ndarray] = {}
        for attr in schema.attributes:
            name = attr.name
            if attr.is_categorical:
                levels = {level: i for i, level in enumerate(attr.levels)}
                codes = np.fromiter(
                    (
                        levels.setdefault(r.values[name], len(levels)) if name in r.values else -1
                        for r in records
                    ),
                    np.intp,
                    n,
                )
                categorical[name] = LevelCodes(codes, tuple(levels))
                if any(name in r.soft_scores for r in records):
                    absent = (math.nan,) * len(attr.levels)
                    scores[name] = np.array(
                        [r.soft_scores.get(name, absent) for r in records], dtype=float
                    ).reshape(n, len(attr.levels))
            else:
                continuous[name] = np.fromiter(
                    (float(r.values[name]) if name in r.values else math.nan for r in records),
                    float,
                    n,
                )
        ids = tuple(r.image_id for r in records)
        return cls(
            ids, identity, tuple(identities), categorical, scores, continuous,
            dict(zip(ids, range(n))),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> ImageRecord:
        values: dict[str, str | float] = {}
        for name, col in self.categorical.items():
            if col.codes[i] >= 0:
                values[name] = col.levels[col.codes[i]]
        for name, column in self.continuous.items():
            if not math.isnan(column[i]):
                values[name] = float(column[i])
        soft = {
            name: tuple(matrix[i].tolist())
            for name, matrix in self.scores.items()
            if not math.isnan(matrix[i, 0])
        }
        return ImageRecord(self.ids[i], self.identities[self.identity[i]], values, soft)

    def __iter__(self) -> Iterator[ImageRecord]:
        return map(self.__getitem__, range(len(self)))

    @cached_property
    def records(self) -> tuple[ImageRecord, ...]:
        return tuple(self)

    @cached_property
    def by_id(self) -> dict[str, ImageRecord]:
        return dict(zip(self.ids, self.records))

    @cached_property
    def by_identity(self) -> dict[str, tuple[ImageRecord, ...]]:
        groups: dict[str, list[ImageRecord]] = {}
        for rec in self.records:
            groups.setdefault(rec.identity_id, []).append(rec)
        return {k: tuple(v) for k, v in groups.items()}

    def row(self, image_id: str) -> int:
        try:
            return self.index[image_id]
        except KeyError:
            raise UnresolvedImage(f"unknown image_id {image_id!r}") from None

    def resolve(self, image_id: str) -> ImageRecord:
        return self[self.row(image_id)]

    def codes(self, attr: AttributeDef) -> LevelCodes:
        """The level codes of a categorical attribute, all -1 when the frame
        has no such column."""
        col = self.categorical.get(attr.name)
        if col is None:
            return LevelCodes(np.full(len(self), -1, dtype=np.intp), attr.levels)
        return col

    def floats(self, name: str) -> np.ndarray:
        """The values of a continuous attribute, all NaN when the frame has
        no such column."""
        column = self.continuous.get(name)
        return np.full(len(self), math.nan) if column is None else column

    def held(self, attr: AttributeDef) -> np.ndarray:
        """Row mask of the images that hold a value for ``attr``."""
        if attr.is_categorical:
            return self.codes(attr).codes >= 0
        return ~np.isnan(self.floats(attr.name))

    def value(self, row: int, name: str) -> str | float:
        """The value image ``row`` holds for ``name``: its level or its float."""
        col = self.categorical.get(name)
        if col is not None and col.codes[row] >= 0:
            return col.levels[col.codes[row]]
        column = self.continuous.get(name)
        if column is not None and not math.isnan(column[row]):
            return float(column[row])
        raise MissingAttribute(self.ids[row], name)


class ImageTable:
    """Immutable collection of image records with id and identity indexes.

    The record form of an :class:`ImageFrame`: functions given a table read
    ``table.frame(schema)``, built on first use for each schema.
    """

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
        self._frames: dict[AttributeSchema, ImageFrame] = {}

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

    def frame(self, schema: AttributeSchema) -> ImageFrame:
        frame = self._frames.get(schema)
        if frame is None:
            frame = self._frames[schema] = ImageFrame.from_records(self.records, schema)
        return frame


def as_image_frame(images: ImageFrame | ImageTable, schema: AttributeSchema) -> ImageFrame:
    return images if isinstance(images, ImageFrame) else images.frame(schema)


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


def bin_codes(attr: AttributeDef, values: np.ndarray) -> np.ndarray:
    """``attr.bin_index`` of every value, -1 where it raises: the value is
    NaN or outside the bins, or the attribute declares none."""
    if attr.bins is None:
        return np.full(len(values), -1, dtype=np.intp)
    lows = np.array([lo for lo, _ in attr.bins])
    inside = (attr.bins[0][0] <= values) & (values < attr.bins[-1][1])
    return np.where(inside, np.searchsorted(lows, values, side="right") - 1, -1)


def _parse_finite(raw: str, context: str, *args: object) -> float:
    """``raw`` as a finite float; errors name ``context.format(*args)``."""
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(f"{context.format(*args)}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{context.format(*args)}: value must be finite, got {raw!r}")
    return value


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def parse_floats(cells: Sequence[str]) -> np.ndarray:
    """``float(cell)`` of every cell, NaN where it raises (an empty cell or
    not a number). Each value is the one ``float()`` gives, whitespace,
    underscores, exponents and ``inf``/``nan`` spellings included."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), float, len(cells))


def _filled(cells: list[str]) -> np.ndarray:
    """Mask of the non-empty cells."""
    if "" not in cells:
        return np.ones(len(cells), dtype=bool)
    return np.fromiter(map(bool, cells), bool, len(cells))


def _cells(rows: list[list[str]], col: int) -> list[str]:
    """Column ``col`` of a block of rows, each cell stripped."""
    return list(map(str.strip, map(itemgetter(col), rows)))


def _joined(blocks: list[np.ndarray], empty: np.ndarray) -> np.ndarray:
    """The per-block arrays of a column as one array; ``empty`` for a file
    without data rows."""
    return np.concatenate(blocks) if blocks else empty


def _argmax_first(values: Sequence[float]) -> int:
    return values.index(max(values))


def _csv_blocks(
    path: str | Path, required: Sequence[str]
) -> Iterator[dict[str, int] | list[list[str]]]:
    """A CSV file read as ``csv.DictReader`` reads it, in blocks of rows.

    The first item is the column index of the header; a repeated column
    name means its last occurrence. Then come blocks of up to
    ``_BLOCK_ROWS`` data rows: blank lines are skipped, cells missing from a
    short row read as empty and cells beyond the header are ignored. A file
    that is not UTF-8 or that the csv module cannot read raises
    ``ParseError``.
    """
    reader = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            for col in required:
                if col not in header:
                    raise ParseError(f"{path}: missing required column {col!r}")
            yield {name: i for i, name in enumerate(header)}
            width = len(header)
            pad = [""] * width
            while rows := list(islice(reader, _BLOCK_ROWS)):
                if min(map(len, rows)) < width:
                    rows = [row + pad[len(row) :] for row in rows if row]
                if rows:
                    yield rows
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        line = f" line {reader.line_num}:" if reader is not None else ""
        raise ParseError(f"{path}:{line} {exc}") from None


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


def _sum_bound(n_terms: int | np.ndarray, abs_sum: np.ndarray) -> np.ndarray:
    """A bound on how far a float64 sum of ``n_terms`` terms, added in any
    order, lies from their exact sum, and on how far rounding that exact sum
    once more moves it: (n + 8) eps sum|x|, against the classical
    (n - 1) u sum|x| of recursive summation (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 4.2), with room to spare."""
    return (n_terms + 8) * np.finfo(float).eps * abs_sum


@dataclass(frozen=True)
class _ImageColumn:
    """Where one attribute's cells sit in the images CSV."""

    attr: AttributeDef
    col: int | None
    soft_cols: list[int] | None


def _check_image_row(
    row: list[str],
    path: str | Path,
    id_col: int,
    identity_col: int,
    plan: Sequence[_ImageColumn],
    pose_cols: list[int] | None,
) -> None:
    """Raise the error of the first bad cell of ``row``, checking the cells
    in the order :func:`load_images` reads them."""
    image_id = row[id_col].strip()
    if not image_id or not row[identity_col].strip():
        raise ParseError(f"{path}: row with empty image_id or identity_id")
    for spec in plan:
        attr = spec.attr
        raw = row[spec.col].strip() if spec.col is not None else ""
        held = bool(raw)
        if attr.is_categorical:
            if raw and raw not in attr.levels:
                raise ParseError(
                    f"image {image_id!r}: unknown level {raw!r} for attribute {attr.name!r}"
                )
            if spec.soft_cols is not None:
                cells = [row[i].strip() for i in spec.soft_cols]
                held |= _read_soft_scores(cells, attr, image_id) is not None
        elif raw:
            _parse_finite(raw, "image {!r} {!r}", image_id, attr.name)
        elif attr.name == "pose" and pose_cols is not None:
            comps = [row[i].strip() for i in pose_cols]
            if all(comps):
                for c in comps:
                    _parse_finite(c, "image {!r} pose", image_id)
                held = True
        if attr.scope is Scope.IMAGE and not held:
            raise MissingAttribute(image_id, attr.name)


def _soft_block(
    rows: list[list[str]], soft_cols: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score matrix of one attribute over a block of rows (NaN rows where
    the cells are empty), the mask of rows that carry scores, and the mask
    of rows whose scores ``_read_soft_scores`` rejects."""
    cells = [_cells(rows, i) for i in soft_cols]
    filled = np.count_nonzero([_filled(c) for c in cells], axis=0)
    has = filled == len(cells)
    matrix = np.column_stack([parse_floats(c) for c in cells])
    with np.errstate(invalid="ignore"):
        bad = (filled > 0) & ~has  # incomplete
        finite = np.isfinite(matrix).all(axis=1)
        bad |= has & ~finite
        ok = has & finite
        bad |= ok & (matrix < 0).any(axis=1)
        # |fsum - 1| > 1e-6, with fsum only where the plain sum cannot tell
        deviation = np.abs(matrix.sum(axis=1) - 1.0)
        bound = _sum_bound(len(cells), np.abs(matrix).sum(axis=1))
        bad |= ok & (deviation > 1e-6 + bound)
    for i in np.flatnonzero(ok & (np.abs(deviation - 1e-6) <= bound)):
        bad[i] |= abs(math.fsum(matrix[i].tolist()) - 1.0) > 1e-6
    matrix[~has] = math.nan
    return matrix, has, bad


def load_images(path: str | Path, schema: AttributeSchema) -> ImageFrame:
    """Load the image metadata CSV into an :class:`ImageFrame`.

    Each row needs ``image_id`` and ``identity_id``. Attribute values come
    from a column named after the attribute; categorical attributes may come
    as per-level soft-score columns ``attr:level`` instead, read into the
    attribute's ``(n, k)`` score matrix. A continuous ``pose`` value may
    alternatively be given as ``pitch``, ``yaw`` and ``roll`` columns
    (degrees), combined into their Euclidean norm. Image scoped attributes
    are required on every row (an image-scoped categorical with scores only
    takes its highest-scoring level); identity-scoped ones may be left for
    consolidation.

    Each column is read in one pass over a block of rows. When a block holds
    a bad cell, its first bad row is checked cell by cell for the error to
    raise, so the error is the one a row-by-row reader meets first. Image ids
    must be unique, which is checked once every row has been read.
    """
    blocks = _csv_blocks(path, ("image_id", "identity_id"))
    columns = next(blocks)
    id_col, identity_col = columns["image_id"], columns["identity_id"]
    pose_cols = (
        [columns[c] for c in POSE_COMPONENT_COLUMNS]
        if all(c in columns for c in POSE_COMPONENT_COLUMNS)
        else None
    )
    plan = [
        _ImageColumn(
            attr,
            columns.get(attr.name),
            _soft_columns(attr, columns) if attr.is_categorical else None,
        )
        for attr in schema.attributes
    ]

    ids: list[str] = []
    identity_codes: dict[str, int] = {}
    identity: list[np.ndarray] = []
    parts: dict[str, list[np.ndarray]] = {spec.attr.name: [] for spec in plan}
    soft_parts: dict[str, list[np.ndarray]] = {
        spec.attr.name: [] for spec in plan if spec.soft_cols is not None
    }
    for rows in blocks:
        m = len(rows)
        block_ids = _cells(rows, id_col)
        block_identities = _cells(rows, identity_col)
        bad = ~(_filled(block_ids) & _filled(block_identities))
        for name in dict.fromkeys(block_identities):
            identity_codes.setdefault(name, len(identity_codes))
        identity.append(np.fromiter(map(identity_codes.get, block_identities), np.intp, m))
        ids += block_ids

        for spec in plan:
            attr = spec.attr
            raw = _cells(rows, spec.col) if spec.col is not None else None
            if attr.is_categorical:
                if raw is None:
                    codes = np.full(m, -1, dtype=np.intp)
                else:
                    lookup = {level: i for i, level in enumerate(attr.levels)}
                    lookup[""] = -1
                    codes = np.fromiter(map(lookup.get, raw, repeat(-2)), np.intp, m)
                    bad |= codes == -2
                held = codes >= 0
                if spec.soft_cols is not None:
                    matrix, has, soft_bad = _soft_block(rows, spec.soft_cols)
                    bad |= soft_bad
                    held |= has
                    if attr.scope is Scope.IMAGE:
                        # no identity averaging step to defer to
                        scored = has & (codes < 0)
                        codes[scored] = np.argmax(matrix[scored], axis=1)
                    soft_parts[attr.name].append(matrix)
                parts[attr.name].append(codes)
            else:
                if raw is None:
                    values = np.full(m, math.nan)
                else:
                    values = parse_floats(raw)
                    bad |= _filled(raw) & ~np.isfinite(values)
                if attr.name == "pose" and pose_cols is not None:
                    values = _pose_values(rows, pose_cols, values, bad)
                held = ~np.isnan(values)
                parts[attr.name].append(values)
            if attr.scope is Scope.IMAGE:
                bad |= ~held
        if bad.any():
            for row in rows[int(np.argmax(bad)) :]:
                _check_image_row(row, path, id_col, identity_col, plan, pose_cols)

    n = len(ids)
    index = dict(zip(ids, range(n)))
    if len(index) != n:
        seen: set[str] = set()
        for image_id in ids:
            if image_id in seen:
                raise ParseError(f"duplicate image_id {image_id!r}")
            seen.add(image_id)

    categorical: dict[str, LevelCodes] = {}
    continuous: dict[str, np.ndarray] = {}
    scores: dict[str, np.ndarray] = {}
    for spec in plan:
        attr = spec.attr
        if attr.is_categorical:
            codes = _joined(parts[attr.name], np.empty(0, dtype=np.intp))
            categorical[attr.name] = LevelCodes(codes, attr.levels)
            if spec.soft_cols is not None:
                scores[attr.name] = _joined(soft_parts[attr.name], np.empty((0, len(attr.levels))))
        else:
            continuous[attr.name] = _joined(parts[attr.name], np.empty(0))
    return ImageFrame(
        tuple(ids),
        _joined(identity, np.empty(0, dtype=np.intp)),
        tuple(identity_codes),
        categorical,
        scores,
        continuous,
        index,
    )


def _pose_values(
    rows: list[list[str]], pose_cols: list[int], values: np.ndarray, bad: np.ndarray
) -> np.ndarray:
    """``values`` with the rows that have no pose value but all three
    rotation components filled in set to the components' norm; rows with a
    bad component are marked in ``bad``."""
    comps = [_cells(rows, i) for i in pose_cols]
    wanted = np.isnan(values) & np.logical_and.reduce([_filled(c) for c in comps])
    if not wanted.any():
        return values
    parsed = [parse_floats(c) for c in comps]
    finite = np.logical_and.reduce([np.isfinite(p) for p in parsed])
    bad |= wanted & ~finite
    rows = wanted & finite
    # Python's ``x ** 2`` (``pow(x, 2)``) calls libm pow, which differs from
    # ``x * x`` in the last bit for some inputs: 8.4569 ** 2 != 8.4569 * 8.4569.
    # numpy's ``** 2`` is ``x * x``, so squaring the arrays would move pose
    # values; the squares are Python's, their sum exactly rounded (fsum).
    squares = [map(pow, p[rows].tolist(), repeat(2)) for p in parsed]
    values = values.copy()
    values[rows] = np.sqrt(np.fromiter(map(math.fsum, zip(*squares)), float, np.count_nonzero(rows)))
    return values


#: Pair label cells, as the codes ``PairFrame.predicted`` holds.
_LABEL_CODES = {"same": 1, "different": 0}


def _label_code(raw: str, pair_id: str, column: str) -> int:
    code = _LABEL_CODES.get(raw)
    if code is None:
        raise ParseError(f"pair {pair_id!r}: {column} must be 'same' or 'different'")
    return code


def _check_pair_row(
    row: list[str],
    path: str | Path,
    cols: tuple[int, int, int, int, int, int | None],
    images: ImageFrame | ImageTable,
    seen: Mapping[str, None],
) -> None:
    """Raise the error of the first bad cell of ``row``, checking the cells
    in the order :func:`load_pairs` reads them; ``seen`` holds the pair ids
    of the rows before it."""
    id_col, a_col, b_col, truth_col, dist_col, pred_col = cols
    pair_id = row[id_col].strip()
    if not pair_id:
        raise ParseError(f"{path}: row with empty pair_id")
    if pair_id in seen:
        raise ParseError(f"duplicate pair_id {pair_id!r}")
    images.resolve(row[a_col].strip())
    images.resolve(row[b_col].strip())
    _label_code(row[truth_col].strip().lower(), pair_id, "ground_truth")
    dist = _parse_finite(row[dist_col].strip(), "pair {!r} distance", pair_id)
    pred_raw = row[pred_col].strip().lower() if pred_col is not None else ""
    if pred_raw:
        _label_code(pred_raw, pair_id, "predicted")
    if dist < 0:
        raise ParseError(f"pair {pair_id!r}: distance must be finite and >= 0, got {dist}")


def load_pairs(path: str | Path, images: ImageFrame | ImageTable) -> PairFrame:
    """Load the verification-pair CSV into a :class:`PairFrame`.

    Image references are resolved against ``images`` and stored as rows of
    it. Pair ids must be unique, ``ground_truth`` and the optional
    ``predicted`` column read ``same`` or ``different`` (an empty
    ``predicted`` cell means no prediction), and distances must be finite and
    non-negative.

    ``distance`` is parsed as one column and both image columns are resolved
    with one lookup each per block of rows. When a block holds a bad cell,
    its first bad row is checked cell by cell for the error to raise, so the
    error is the one a row-by-row reader meets first.
    """
    index = images.index
    predicted_codes = {"": NO_PREDICTION, **_LABEL_CODES}
    seen: dict[str, None] = {}  # the pair ids, in order
    parts: dict[str, list[np.ndarray]] = {
        k: [] for k in ("image_a", "image_b", "is_pos", "distance", "predicted")
    }
    blocks = _csv_blocks(path, ("pair_id", "image_a", "image_b", "ground_truth", "distance"))
    columns = next(blocks)
    cols = (
        *(columns[c] for c in ("pair_id", "image_a", "image_b", "ground_truth", "distance")),
        columns.get("predicted"),
    )
    id_col, a_col, b_col, truth_col, dist_col, pred_col = cols
    for rows in blocks:
        m = len(rows)
        pair_ids = _cells(rows, id_col)
        bad = ~_filled(pair_ids)
        before = len(seen)
        seen.update(dict.fromkeys(pair_ids))
        if len(seen) - before != m:  # a pair id repeats
            earlier = set(islice(seen, before))
            for i, pair_id in enumerate(pair_ids):
                bad[i] |= pair_id in earlier
                earlier.add(pair_id)
        image_a = np.fromiter(map(index.get, _cells(rows, a_col), repeat(-1)), np.intp, m)
        image_b = np.fromiter(map(index.get, _cells(rows, b_col), repeat(-1)), np.intp, m)
        truth = np.fromiter(
            map(_LABEL_CODES.get, map(str.lower, _cells(rows, truth_col)), repeat(-1)),
            np.int8,
            m,
        )
        distance = parse_floats(_cells(rows, dist_col))
        if pred_col is None:
            predicted = np.full(m, NO_PREDICTION, dtype=np.int8)
        else:
            predicted = np.fromiter(
                map(predicted_codes.get, map(str.lower, _cells(rows, pred_col)), repeat(-2)),
                np.int8,
                m,
            )
        bad |= (image_a < 0) | (image_b < 0) | (truth < 0) | (predicted == -2)
        bad |= ~(np.isfinite(distance) & (distance >= 0))
        if bad.any():
            first = int(np.argmax(bad))
            prior = dict.fromkeys(islice(seen, before))
            prior.update(dict.fromkeys(pair_ids[:first]))
            for row, pair_id in zip(rows[first:], pair_ids[first:]):
                _check_pair_row(row, path, cols, images, prior)
                prior[pair_id] = None
        for name, values in (
            ("image_a", image_a), ("image_b", image_b), ("is_pos", truth == 1),
            ("distance", distance), ("predicted", predicted),
        ):
            parts[name].append(values)

    return PairFrame(
        pair_id=tuple(seen),
        image_ids=images.ids,
        image_a=_joined(parts["image_a"], np.empty(0, dtype=np.intp)),
        image_b=_joined(parts["image_b"], np.empty(0, dtype=np.intp)),
        is_pos=_joined(parts["is_pos"], np.empty(0, dtype=bool)),
        distance=_joined(parts["distance"], np.empty(0)),
        predicted=_joined(parts["predicted"], np.empty(0, dtype=np.int8)),
    )


def _consolidation_error(
    frame: ImageFrame, missing: Sequence[tuple[AttributeDef, np.ndarray, np.ndarray]]
) -> None:
    """Raise ``MissingAttribute`` for the first identity, in order of first
    appearance, with an image lacking an attribute, and its first such
    attribute: the first image lacking it when the identity has no soft
    scores for it, the lexicographically first otherwise."""
    first = min(int(frame.identity[rows].min()) for _, rows, _ in missing if rows.size)
    for attr, rows, soft_identity in missing:
        rows = rows[frame.identity[rows] == first]
        if rows.size:
            lacking = [frame.ids[r] for r in rows.tolist()]
            raise MissingAttribute(min(lacking) if soft_identity[first] else lacking[0], attr.name)


def consolidate_identity_attributes(
    images: ImageFrame | ImageTable, schema: AttributeSchema
) -> ImageFrame:
    """Average identity-scoped soft scores per identity and write the argmax.

    For each identity and each identity-scoped categorical attribute, the
    per-level scores are averaged over that identity's images (a hard value
    counts as a one-hot vector, and an image with both counts its scores)
    and the winning level's code is written onto every image. Identities
    carrying hard values only are left untouched. Ties break to the earliest
    schema level.

    The averaging is one grouped reduction: the images of identities with
    scores are sorted stably by identity code and their score rows summed
    with ``np.add.reduceat``. Where an identity's two leading sums lie within
    the rounding bound of its sum, the winner is taken from each level's
    ``math.fsum`` divided by the identity's image count instead, so the result
    is the argmax of the exactly rounded averages: idempotent, and
    independent of the image order within an identity.
    """
    frame = as_image_frame(images, schema)
    attrs = [a for a in schema.attributes if a.is_categorical and a.scope is Scope.IDENTITY]
    n_identities = len(frame.identities)
    work = []
    missing = []
    for attr in attrs:
        col = frame.codes(attr)
        scores = frame.scores.get(attr.name)
        has = np.zeros(len(frame), dtype=bool) if scores is None else ~np.isnan(scores[:, 0])
        soft_identity = np.zeros(n_identities, dtype=bool)
        soft_identity[frame.identity[has]] = True
        lacking = np.flatnonzero((col.codes < 0) & ~has)
        if lacking.size:
            missing.append((attr, lacking, soft_identity))
        work.append((attr, col, scores, has, soft_identity))
    if missing:
        _consolidation_error(frame, missing)

    categorical = dict(frame.categorical)
    for attr, col, scores, has, soft_identity in work:
        if not soft_identity.any():
            continue
        rows = np.flatnonzero(soft_identity[frame.identity])
        rows = rows[np.argsort(frame.identity[rows], kind="stable")]
        k = len(attr.levels)
        vectors = one_hot(col.codes[rows], range(k))
        scored = has[rows]
        vectors[scored] = scores[rows[scored]]
        group = frame.identity[rows]
        starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
        sizes = np.diff(np.r_[starts, len(rows)])
        sums = np.add.reduceat(vectors, starts, axis=0)
        winner = np.argmax(sums, axis=1)
        if k > 1:
            top_two = np.partition(sums, k - 2, axis=1)[:, k - 2 :]
            bound = _sum_bound(sizes, np.add.reduceat(np.abs(vectors), starts, axis=0).sum(axis=1))
            for g in np.flatnonzero(top_two[:, 1] - top_two[:, 0] <= bound):
                size = int(sizes[g])
                members = vectors[starts[g] : starts[g] + size].T.tolist()
                winner[g] = _argmax_first([math.fsum(level) / size for level in members])
        codes = col.codes.copy()
        codes[rows] = np.repeat(winner, sizes)
        categorical[attr.name] = LevelCodes(codes, col.levels)
    return replace(frame, categorical=categorical)


def covariates_for_pairs(
    pairs: PairFrame | Sequence[PairRecord],
    images: ImageFrame | ImageTable,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> CovariateFrame:
    """Collapse the two sides of every pair into one covariate per attribute.

    Each attribute's image column is looked up for both sides of every
    pair. Categorical attributes keep the shared level, or the ``Cross``
    sentinel when the sides differ. Continuous attributes aggregate with the
    mean of the two values (``aggregate="mean"``) or their absolute
    difference (``aggregate="absdiff"``). Symmetric in the two images. The
    first pair, in order, with an unknown image or an attribute missing on a
    side raises ``UnresolvedImage`` or ``MissingAttribute`` for it.
    """
    if aggregate not in ("mean", "absdiff"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    frame = as_pair_frame(pairs)
    table = as_image_frame(images, schema)
    n_images = len(table)
    if frame.image_ids is table.ids or frame.image_ids == table.ids:
        rows_a, rows_b = frame.image_a, frame.image_b
    else:
        # images the table lacks point at the slot past its end, which holds
        # no attribute values
        table_rows = np.fromiter(
            (table.index.get(i, n_images) for i in frame.image_ids),
            np.intp,
            len(frame.image_ids),
        )
        rows_a, rows_b = table_rows[frame.image_a], table_rows[frame.image_b]

    failed = np.zeros(len(frame), dtype=bool)
    held_by: dict[str, np.ndarray] = {}
    categorical: dict[str, LevelCodes] = {}
    continuous: dict[str, np.ndarray] = {}
    for attr in schema.attributes:
        held = held_by[attr.name] = np.append(table.held(attr), False)
        failed |= ~held[rows_a] | ~held[rows_b]
        if attr.is_categorical:
            col = table.codes(attr)
            levels = {level: i for i, level in enumerate(attr.levels)}
            cross = levels.setdefault(CROSS_LEVEL, len(levels))
            recode = np.array([levels.setdefault(level, len(levels)) for level in col.levels] + [-1])
            codes = np.append(recode[col.codes], -1)
            code_a, code_b = codes[rows_a], codes[rows_b]
            categorical[attr.name] = LevelCodes(
                np.where(code_a == code_b, code_a, cross), tuple(levels)
            )
        else:
            values = np.append(table.floats(attr.name), math.nan)
            va, vb = values[rows_a], values[rows_b]
            continuous[attr.name] = (va + vb) / 2 if aggregate == "mean" else np.abs(va - vb)

    if failed.any():
        i = int(np.argmax(failed))
        sides = [table.row(frame.image_ids[side[i]]) for side in (frame.image_a, frame.image_b)]
        for attr in schema.attributes:
            for side in sides:
                if not held_by[attr.name][side]:
                    raise MissingAttribute(table.ids[side], attr.name)
    return CovariateFrame(frame.pair_id, categorical, continuous)


def derive_pair_covariates(
    pair: PairRecord,
    images: ImageFrame | ImageTable,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> PairCovariates:
    """The covariates of one pair, as :func:`covariates_for_pairs` derives them."""
    return covariates_for_pairs((pair,), images, schema, aggregate)[pair.pair_id]


def _identity_holders(frame: ImageFrame) -> np.ndarray:
    """Row of each identity's lexicographically first image id, identities
    in order of first appearance."""
    order = np.array(sorted(range(len(frame)), key=frame.ids.__getitem__), dtype=np.intp)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = np.full(len(frame.identities), len(order), dtype=np.intp)
    np.minimum.at(first, frame.identity, rank)
    return order[first]


def attribute_frequencies(
    images: ImageFrame | ImageTable, schema: AttributeSchema, name: str
) -> list[float]:
    """Observed frequency table for one attribute, aligned with its levels
    (categorical) or bins (continuous).

    Image-scoped attributes count every image; identity-scoped ones count
    each identity once, via its lexicographically first image. The counts
    are one ``np.bincount`` over the holders' level codes or bin indices.
    The first holder without a value, or with one outside the bins, raises.
    """
    attr = schema[name]
    frame = as_image_frame(images, schema)
    holders = _identity_holders(frame) if attr.scope is Scope.IDENTITY else np.arange(len(frame))
    if attr.is_categorical:
        size = len(attr.levels)
        codes = frame.codes(attr).codes[holders]
        ok = (codes >= 0) & (codes < size)
    else:
        size = attr.n_bins
        codes = bin_codes(attr, frame.floats(name)[holders])
        ok = codes >= 0
    if not ok.all():
        row = int(holders[np.argmin(ok)])
        value = frame.value(row, name)
        if attr.is_categorical:
            attr.level_index(str(value))
        else:
            attr.bin_index(float(value))
    return np.bincount(codes, minlength=size).astype(float).tolist()
