"""Image and pair tables: CSV ingestion, identity consolidation, pair covariates.

Tables are immutable after construction; operations that "update" them return
new tables. CSV files are UTF-8 with a header row, comma delimiter and ``.``
decimal point. Soft-score columns are named ``attr:level``.

Images and pairs are held as columns, and every stage reads and returns
those columns. An :class:`ImageFrame` has an identity code per image, level
codes per categorical attribute, a score matrix per soft-scored attribute
and a float array per continuous one; a :class:`PairFrame` has numpy arrays
per pair field, its image columns rows of the image frame it was loaded
against; a :class:`CovariateFrame` has the pairs' covariates as level codes
and float arrays. Level codes follow the schema's level order, with the
``Cross`` sentinel of pair covariates last.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import closing
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Container, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import MissingAttribute, ParseError, SchemaInvalid, UnresolvedImage
from .schema import AttributeDef, AttributeSchema, Scope

#: Sentinel level assigned to a pair whose two sides disagree on an attribute;
#: a schema may not declare a level of this name.
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

_T = TypeVar("_T")


class Label(str, Enum):
    SAME = "same"
    DIFFERENT = "different"


class Subset(str, Enum):
    POSITIVES = "positives"
    NEGATIVES = "negatives"

    @property
    def ground_truth(self) -> Label:
        return Label.SAME if self is Subset.POSITIVES else Label.DIFFERENT


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
    ids to rows.
    """

    ids: tuple[str, ...]
    identity: np.ndarray
    identities: tuple[str, ...]
    categorical: dict[str, LevelCodes]
    scores: dict[str, np.ndarray]
    continuous: dict[str, np.ndarray]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, image_id: str) -> int:
        try:
            return self.index[image_id]
        except KeyError:
            raise _unknown_image(image_id) from None

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


@dataclass(frozen=True, eq=False)
class PairFrame:
    """Verification pairs as columns, one entry per pair in input order.

    ``image_a`` and ``image_b`` are rows of the :class:`ImageFrame` the
    pairs were loaded against. ``predicted`` holds 1 (same), 0 (different)
    or ``NO_PREDICTION``. Pair ids are checked on load but not kept.
    """

    image_a: np.ndarray
    image_b: np.ndarray
    is_pos: np.ndarray
    distance: np.ndarray
    predicted: np.ndarray

    def __len__(self) -> int:
        return len(self.distance)


@dataclass(frozen=True, eq=False)
class CovariateFrame:
    """Pair covariates as columns, entry ``i`` belonging to pair ``i`` of its
    :class:`PairFrame`: a :class:`LevelCodes` column per categorical
    attribute and a float64 array per continuous one."""

    categorical: dict[str, LevelCodes]
    continuous: dict[str, np.ndarray]


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


def segment_codes(
    n: int, columns: Sequence[LevelCodes]
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The mixed-radix code of each of ``n`` rows over the level codes of
    ``columns``, -1 where a column has none, and the level tuple each code
    stands for (the first column's levels vary slowest)."""
    codes = np.zeros(n, dtype=np.intp)
    held = np.ones(n, dtype=bool)
    labels: list[tuple[str, ...]] = [()]
    for col in columns:
        codes = codes * len(col.levels) + col.codes
        held &= col.codes >= 0
        labels = [label + (level,) for label in labels for level in col.levels]
    return np.where(held, codes, -1), labels


def _unknown_image(image_id: str) -> UnresolvedImage:
    return UnresolvedImage(f"unknown image_id {image_id!r}")


def _parse_finite(raw: str, context: str) -> ParseError:
    """The error of ``raw``, a cell that does not parse as a finite float,
    named by ``context``."""
    try:
        float(raw)
    except ValueError:
        return ParseError(f"{context}: not a number: {raw!r}")
    return ParseError(f"{context}: value must be finite, got {raw!r}")


#: A check of one cell over a block of rows: the mask of the rows that fail
#: it, and the error of a failing row from its index in the block.
_Check = tuple[np.ndarray, Callable[[int], Exception]]

#: What is done with the checks of a block, all of them at once.
_Settle = Callable[[Sequence[_Check]], None]


def raise_first(checks: Sequence[_Check]) -> None:
    """Raise the error a row-by-row reader meets first.

    ``checks`` come in the order a row's cells are read. The first row any
    mask flags raises the error of the first check that flags it, so a mask
    needs to be exact only on the rows that no earlier check flags.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise next(fail(i) for mask, fail in checks if mask[i])


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


#: One column of a block: its stripped cells, or, as numpy's C parser read
#: it, an object array of its cells as Python strings or a float64 array.
_Column = list[str] | np.ndarray


def _texts(column: _Column) -> list[str]:
    """The stripped cells of a column of strings."""
    if isinstance(column, np.ndarray):
        return list(map(str.strip, column.tolist()))
    return column


def _floats(column: _Column) -> np.ndarray:
    """The values of a column of floats, NaN for cells that are empty or
    not a number (see :func:`parse_floats`)."""
    return column if isinstance(column, np.ndarray) else parse_floats(column)


def _filled(column: _Column) -> np.ndarray:
    """Mask of the non-empty cells of a column of cells or floats; a float64
    array has none empty."""
    if isinstance(column, np.ndarray) or "" not in column:
        return np.ones(len(column), dtype=bool)
    return np.fromiter(map(bool, column), bool, len(column))


def _codes(
    column: _Column, codes: Mapping[str, int], default: int, dtype: type, fold: bool = False
) -> np.ndarray:
    """The code of each cell of a column of strings, ``default`` for a cell
    that is not a key of ``codes``; with ``fold``, a cell in any case.

    An array of cells is compared whole, so a cell with whitespace around it,
    or, with ``fold``, in another case, takes ``default``: a check flags it,
    and the block reader reads it.
    """
    if isinstance(column, np.ndarray):
        out = np.full(len(column), default, dtype=dtype)
        for cell, code in codes.items():
            out[column == cell] = code
        return out
    cells = map(str.lower, column) if fold else column
    return np.fromiter(map(codes.get, cells, repeat(default)), dtype, len(column))


def _cells(rows: list[list[str]], col: int) -> list[str]:
    """Column ``col`` of a block of rows, each cell stripped."""
    return list(map(str.strip, map(itemgetter(col), rows)))


def _repeats(ids: list[str], earlier: Container[str] = frozenset()) -> np.ndarray:
    """Mask of the ids that appear in ``earlier`` or before them in ``ids``."""
    seen: set[str] = set()
    mask = np.zeros(len(ids), dtype=bool)
    for i, name in enumerate(ids):
        mask[i] = name in earlier or name in seen
        seen.add(name)
    return mask


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
    name means its last occurrence, and a UTF-8 byte-order mark before it is
    skipped. Then come blocks of up to ``_BLOCK_ROWS`` data rows: blank
    lines are skipped, cells missing from a short row read as empty and
    cells beyond the header are ignored. A file that is not UTF-8 or that
    the csv module cannot read raises ``ParseError``.
    """
    reader = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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


class _Fallback(Exception):
    """numpy's C parser might read a block otherwise than the block reader,
    or a check flags a row of it."""


def _parsed_blocks(
    path: str | Path, texts: Sequence[int], floats: Sequence[int]
) -> Iterator[dict[int, _Column]]:
    """The data rows of a CSV file as numpy's C parser reads them, in blocks
    of up to ``_BLOCK_ROWS`` lines: an object array of the cells of each of
    the columns ``texts``, as Python strings, and a float64 array of each of
    the columns ``floats``.

    Raises ``_Fallback`` wherever that read might differ from the block
    reader's (:func:`_csv_blocks`): a column is wanted as both; a line holds
    a quote (a quoted cell may hold a comma or a line break), a NUL (Python
    3.10's csv module raises on it, where 3.11 reads the cell) or more
    characters than the csv module's field limit; the parser raises or warns
    (a cell that is not a number as ``float()`` reads it, ``1_0`` and
    non-ASCII digits included; a row short of a column read; a line of
    whitespace; a block of blank lines); or the file is not UTF-8.
    """
    if set(texts) & set(floats):
        raise _Fallback
    usecols = sorted({*texts, *floats})
    dtype = np.dtype([(str(c), "O" if c in texts else "f8") for c in usecols])
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            next(csv.reader(fh), None)  # the header, which _csv_blocks has read
            while lines := list(islice(fh, _BLOCK_ROWS)):
                text = "".join(lines)
                if '"' in text or "\0" in text or max(map(len, lines)) > limit:
                    raise _Fallback
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                           quotechar=None, usecols=usecols, ndmin=1)
                    except (ValueError, Warning):
                        raise _Fallback from None
                # floats copied, so that the columns kept do not hold the table
                yield {c: table[str(c)] if c in texts else table[str(c)].copy() for c in usecols}
    except UnicodeDecodeError:
        raise _Fallback from None


def _passed(checks: Sequence[_Check]) -> None:
    """Fall back to the block reader where any check flags a row: the error
    is the block reader's to raise."""
    if any(mask.any() for mask, _ in checks):
        raise _Fallback


def _read(
    blocks: Iterator[list[list[str]]],
    path: str | Path,
    texts: Sequence[int],
    floats: Sequence[int],
    build: Callable[[Iterator[dict[int, _Column]], _Settle], _T],
) -> _T:
    """``build(blocks, settle)`` over the data rows of the CSV file whose
    header the block reader ``blocks`` has read: ``build`` hands the checks
    of each block of columns to ``settle``.

    It runs first over the blocks numpy's C parser reads, every check
    required to pass. Where that parse might differ from the block reader's,
    or a check flags a row, all of it is thrown away and ``build`` runs again
    over the stripped cells of the block reader's rows, the first flagged
    row raising its error (:func:`raise_first`).
    """
    with closing(blocks):
        try:
            return build(_parsed_blocks(path, texts, floats), _passed)
        except _Fallback:
            pass  # out of the handler, so what was built is freed first
        cols = [*texts, *floats]
        return build(({c: _cells(rows, c) for c in cols} for rows in blocks), raise_first)


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


def _sum_off_one(scores: Sequence[float]) -> bool:
    """Whether the exactly rounded sum of the non-negative ``scores`` is
    more than 1e-6 away from 1; a sum beyond the float range is."""
    try:
        return abs(math.fsum(scores) - 1.0) > 1e-6
    except OverflowError:
        return True


def _pose_norm(*components: float) -> float:
    """The Euclidean norm of the rotation components, or inf when their
    squares or the squares' sum overflow.

    Python's ``x ** 2`` (``pow(x, 2)``) calls libm pow, which differs from
    ``x * x`` in the last bit for some inputs: 8.4569 ** 2 != 8.4569 * 8.4569.
    The squares are Python's, their sum exactly rounded (fsum), so the norm
    stays a computation per row: numpy has no array form of either. Over 2M
    values in [0, 60) rounded to 4 decimals, ``np.power`` with an array
    exponent differs from ``pow`` in 5.4 % of them and ``x * x`` (numpy's
    ``x ** 2``) in 0.07 %, and over 667k such triples a plain three-term sum
    of the squares moves 9.6 % of the norms. Pose values, and every bundle
    byte that depends on them, would move with either.
    """
    try:
        return math.sqrt(math.fsum(map(pow, components, repeat(2))))
    except OverflowError:
        return math.inf


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


def _soft_block(
    cells: list[_Column], attr: AttributeDef, image_ids: list[str]
) -> tuple[np.ndarray, np.ndarray, list[_Check]]:
    """Score matrix of one attribute from its soft-score columns over a
    block (NaN rows where the cells are empty), the mask of rows that carry
    scores, and the checks of the scores: incomplete, not finite, negative,
    not summing to 1."""
    filled = np.count_nonzero([_filled(c) for c in cells], axis=0)
    has = filled == len(cells)
    matrix = np.column_stack([_floats(c) for c in cells])
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(matrix)
        ok = has & finite.all(axis=1)
        # |fsum - 1| > 1e-6, with fsum only where the plain sum cannot tell
        deviation = np.abs(matrix.sum(axis=1) - 1.0)
        bound = _sum_bound(len(cells), np.abs(matrix).sum(axis=1))
        off = ok & (deviation > 1e-6 + bound)
    for i in np.flatnonzero(ok & (np.abs(deviation - 1e-6) <= bound)):
        off[i] = _sum_off_one(matrix[i].tolist())

    def not_finite(i: int) -> ParseError:
        raw = cells[int(np.argmin(finite[i]))][i]
        return _parse_finite(raw, f"image {image_ids[i]!r} soft score {attr.name!r}")

    checks = [
        ((filled > 0) & ~has, lambda i: ParseError(
            f"image {image_ids[i]!r}: incomplete soft scores for {attr.name!r}")),
        (has & ~ok, not_finite),
        ((matrix < 0).any(axis=1), lambda i: ParseError(
            f"image {image_ids[i]!r}: negative soft score for {attr.name!r}")),
        (off, lambda i: ParseError(
            f"image {image_ids[i]!r}: soft scores for {attr.name!r} must sum to 1")),
    ]
    matrix[~has] = math.nan
    return matrix, has, checks


def _pose_values(
    comps: list[_Column], values: np.ndarray, image_ids: list[str]
) -> tuple[np.ndarray, list[_Check]]:
    """``values`` with the rows that have no pose value but all three
    rotation components ``comps`` filled in set to the components' norm, and
    the checks of those rows: a component that is not finite, and components
    too large to combine."""
    wanted = np.isnan(values) & np.logical_and.reduce([_filled(c) for c in comps])
    if not wanted.any():
        return values, []
    parsed = [_floats(c) for c in comps]
    finite = np.isfinite(parsed)
    rows = wanted & finite.all(axis=0)
    components = [p[rows].tolist() for p in parsed]
    count = np.count_nonzero(rows)
    values = values.copy()
    try:  # _pose_norm's squares and sums, without a call per row
        sums = map(math.fsum, zip(*(map(pow, c, repeat(2)) for c in components)))
        values[rows] = np.sqrt(np.fromiter(sums, float, count))
    except OverflowError:  # a square or a sum is beyond the float range
        values[rows] = np.fromiter(map(_pose_norm, *components), float, count)

    def not_finite(i: int) -> ParseError:
        raw = comps[int(np.argmin(finite[:, i]))][i]
        return _parse_finite(raw, f"image {image_ids[i]!r} pose")

    return values, [
        (wanted & ~rows, not_finite),
        (rows & np.isinf(values), lambda i: ParseError(
            f"image {image_ids[i]!r}: pose components too large to combine")),
    ]


def _attribute_block(
    spec: _ImageColumn,
    block: Mapping[int, _Column],
    image_ids: list[str],
    pose_cols: list[int] | None,
    checks: list[_Check],
) -> tuple[np.ndarray, np.ndarray | None]:
    """One attribute's column over a block of columns: level codes
    (categorical) or floats (continuous), and the score matrix (None without
    soft-score columns). The checks of its cells are appended to ``checks``
    in the order the cells are read."""
    attr = spec.attr
    m = len(image_ids)
    raw = block[spec.col] if spec.col is not None else None
    matrix = None
    if attr.is_categorical:
        if raw is None:
            values = np.full(m, -1, dtype=np.intp)
        else:
            lookup = {level: i for i, level in enumerate(attr.levels)}
            lookup[""] = -1
            values = _codes(raw, lookup, -2, np.intp)
            checks.append((values == -2, lambda i: ParseError(
                f"image {image_ids[i]!r}: unknown level {raw[i]!r} for attribute {attr.name!r}")))
        held = values >= 0
        if spec.soft_cols is not None:
            matrix, has, soft_checks = _soft_block(
                [block[c] for c in spec.soft_cols], attr, image_ids
            )
            checks += soft_checks
            held |= has
            if attr.scope is Scope.IMAGE:
                # no identity averaging step to defer to
                scored = has & (values < 0)
                values[scored] = np.argmax(matrix[scored], axis=1)
    else:
        if raw is None:
            values = np.full(m, math.nan)
        else:
            values = _floats(raw)
            checks.append((_filled(raw) & ~np.isfinite(values), lambda i: _parse_finite(
                raw[i], f"image {image_ids[i]!r} {attr.name!r}")))
        if attr.name == "pose" and pose_cols is not None:
            values, pose_checks = _pose_values([block[c] for c in pose_cols], values, image_ids)
            checks += pose_checks
        held = ~np.isnan(values)
    if attr.scope is Scope.IMAGE:
        checks.append((~held, lambda i: MissingAttribute(image_ids[i], attr.name)))
    return values, matrix


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

    The file is read in blocks of columns, by numpy's C parser where it reads
    the file as the csv module does and by the csv module otherwise (see
    :func:`_read`). Each check of a cell is one mask over a block, stated
    once, in the order a row's cells are read: empty ids; then per attribute
    an unknown level, the soft scores (incomplete, not finite, negative, not
    summing to 1), a value that is not finite, the pose components (not
    finite, too large to combine) and a missing image-scoped value. The
    first flagged row raises the error of its first flagging check, the one a
    row-by-row reader meets first. Image ids must be unique, which is
    checked once every row has been read.
    """
    blocks = _csv_blocks(path, ("image_id", "identity_id"))
    columns = next(blocks)
    id_col, identity_col = columns["image_id"], columns["identity_id"]
    plan = [
        _ImageColumn(
            attr,
            columns.get(attr.name),
            _soft_columns(attr, columns) if attr.is_categorical else None,
        )
        for attr in schema.attributes
    ]
    pose_cols = (
        [columns[c] for c in POSE_COMPONENT_COLUMNS]
        if all(c in columns for c in POSE_COMPONENT_COLUMNS)
        and any(spec.attr.name == "pose" and not spec.attr.is_categorical for spec in plan)
        else None
    )
    texts = [id_col, identity_col]
    texts += [spec.col for spec in plan if spec.attr.is_categorical and spec.col is not None]
    floats = [c for spec in plan for c in spec.soft_cols or ()] + (pose_cols or [])
    floats += [spec.col for spec in plan if not spec.attr.is_categorical and spec.col is not None]

    def build(blocks: Iterator[dict[int, _Column]], settle: _Settle) -> ImageFrame:
        ids: list[str] = []
        identity_codes: dict[str, int] = {}
        identity: list[np.ndarray] = []
        parts: dict[str, list[np.ndarray]] = {spec.attr.name: [] for spec in plan}
        soft_parts: dict[str, list[np.ndarray]] = {
            spec.attr.name: [] for spec in plan if spec.soft_cols is not None
        }
        for block in blocks:
            block_ids = _texts(block[id_col])
            block_identities = _texts(block[identity_col])
            m = len(block_ids)
            checks: list[_Check] = [(
                ~(_filled(block_ids) & _filled(block_identities)),
                lambda i: ParseError(f"{path}: row with empty image_id or identity_id"),
            )]
            for name in dict.fromkeys(block_identities):
                identity_codes.setdefault(name, len(identity_codes))
            identity.append(np.fromiter(map(identity_codes.get, block_identities), np.intp, m))
            ids += block_ids
            for spec in plan:
                values, matrix = _attribute_block(spec, block, block_ids, pose_cols, checks)
                parts[spec.attr.name].append(values)
                if matrix is not None:
                    soft_parts[spec.attr.name].append(matrix)
            settle(checks)
            del checks  # free the cells its errors would quote before the next block is read

        n = len(ids)
        index = dict(zip(ids, range(n)))
        if len(index) != n:
            settle([(_repeats(ids), lambda i: ParseError(f"duplicate image_id {ids[i]!r}"))])

        categorical: dict[str, LevelCodes] = {}
        continuous: dict[str, np.ndarray] = {}
        scores: dict[str, np.ndarray] = {}
        for spec in plan:
            attr = spec.attr
            if attr.is_categorical:
                codes = _joined(parts[attr.name], np.empty(0, dtype=np.intp))
                categorical[attr.name] = LevelCodes(codes, attr.levels)
                if spec.soft_cols is not None:
                    scores[attr.name] = _joined(
                        soft_parts[attr.name], np.empty((0, len(attr.levels)))
                    )
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

    return _read(blocks, path, texts, floats, build)


#: Pair label cells, as the codes ``PairFrame.predicted`` holds.
_LABEL_CODES = {"same": 1, "different": 0}


def load_pairs(path: str | Path, images: ImageFrame) -> PairFrame:
    """Load the verification-pair CSV into a :class:`PairFrame`.

    Image references are resolved against ``images`` and stored as rows of
    it. Pair ids must be unique, ``ground_truth`` and the optional
    ``predicted`` column read ``same`` or ``different`` (an empty
    ``predicted`` cell means no prediction), and distances must be finite and
    non-negative.

    The file is read in blocks of columns as :func:`load_images` reads
    its file. ``distance`` is parsed as one column and both image columns
    are resolved with one lookup each per block. Each check of a cell is one
    mask over the block, stated once, in the order a row's cells are read:
    empty id, repeated id, unknown ``image_a``, unknown ``image_b``, bad
    ``ground_truth``, distance not finite, bad ``predicted``, negative
    distance. The first flagged row raises the error of its first flagging
    check, the one a row-by-row reader meets first.
    """
    index = images.index
    predicted_codes = {"": NO_PREDICTION, **_LABEL_CODES}
    bad_label = "pair {!r}: {} must be 'same' or 'different'"
    blocks = _csv_blocks(path, ("pair_id", "image_a", "image_b", "ground_truth", "distance"))
    columns = next(blocks)
    id_col, a_col, b_col, truth_col, dist_col = (
        columns[c] for c in ("pair_id", "image_a", "image_b", "ground_truth", "distance")
    )
    pred_col = columns.get("predicted")
    texts = [id_col, a_col, b_col, truth_col] + ([] if pred_col is None else [pred_col])

    def build(blocks: Iterator[dict[int, _Column]], settle: _Settle) -> PairFrame:
        seen: set[str] = set()
        parts: dict[str, list[np.ndarray]] = {
            k: [] for k in ("image_a", "image_b", "is_pos", "distance", "predicted")
        }
        for block in blocks:
            pair_ids, cells_a, cells_b = map(_texts, (block[id_col], block[a_col], block[b_col]))
            m = len(pair_ids)
            before = len(seen)
            if seen.isdisjoint(pair_ids):
                seen.update(pair_ids)
                repeated = _repeats(pair_ids) if len(seen) - before != m else np.zeros(m, bool)
            else:  # the repeat raises below, so ``seen`` need not take the block
                repeated = _repeats(pair_ids, seen)
            image_a = np.fromiter(map(index.get, cells_a, repeat(-1)), np.intp, m)
            image_b = np.fromiter(map(index.get, cells_b, repeat(-1)), np.intp, m)
            truth = _codes(block[truth_col], _LABEL_CODES, -1, np.int8, fold=True)
            distance = _floats(block[dist_col])
            if pred_col is None:
                predicted = np.full(m, NO_PREDICTION, dtype=np.int8)
            else:
                predicted = _codes(block[pred_col], predicted_codes, -2, np.int8, fold=True)
            settle([
                (~_filled(pair_ids), lambda i: ParseError(f"{path}: row with empty pair_id")),
                (repeated, lambda i: ParseError(f"duplicate pair_id {pair_ids[i]!r}")),
                (image_a < 0, lambda i: _unknown_image(cells_a[i])),
                (image_b < 0, lambda i: _unknown_image(cells_b[i])),
                (truth < 0, lambda i: ParseError(bad_label.format(pair_ids[i], "ground_truth"))),
                (~np.isfinite(distance), lambda i: _parse_finite(
                    block[dist_col][i], f"pair {pair_ids[i]!r} distance")),
                (predicted == -2, lambda i: ParseError(bad_label.format(pair_ids[i], "predicted"))),
                (distance < 0, lambda i: ParseError(
                    f"pair {pair_ids[i]!r}: distance must be finite and >= 0, "
                    f"got {float(distance[i])}"
                )),
            ])
            for name, values in (
                ("image_a", image_a), ("image_b", image_b), ("is_pos", truth == 1),
                ("distance", distance), ("predicted", predicted),
            ):
                parts[name].append(values)

        return PairFrame(
            image_a=_joined(parts["image_a"], np.empty(0, dtype=np.intp)),
            image_b=_joined(parts["image_b"], np.empty(0, dtype=np.intp)),
            is_pos=_joined(parts["is_pos"], np.empty(0, dtype=bool)),
            distance=_joined(parts["distance"], np.empty(0)),
            predicted=_joined(parts["predicted"], np.empty(0, dtype=np.int8)),
        )

    return _read(blocks, path, texts, [dist_col], build)


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


def consolidate_identity_attributes(frame: ImageFrame, schema: AttributeSchema) -> ImageFrame:
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
    pairs: PairFrame,
    images: ImageFrame,
    schema: AttributeSchema,
    aggregate: str = "mean",
) -> CovariateFrame:
    """Collapse the two sides of every pair into one covariate per attribute.

    Each attribute's image column is looked up for both sides of every
    pair. Categorical attributes keep the shared level, or the ``Cross``
    sentinel when the sides differ. Continuous attributes aggregate with the
    mean of the two values (``aggregate="mean"``) or their absolute
    difference (``aggregate="absdiff"``). Symmetric in the two images. A
    categorical attribute with a level named ``Cross`` raises
    ``SchemaInvalid``; otherwise the first pair, in order, with an attribute
    missing on a side raises ``MissingAttribute`` for it.
    """
    if aggregate not in ("mean", "absdiff"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    rows_a, rows_b = pairs.image_a, pairs.image_b
    checks: list[_Check] = []
    categorical: dict[str, LevelCodes] = {}
    continuous: dict[str, np.ndarray] = {}
    for attr in schema.attributes:
        held = images.held(attr)
        if not held.all():
            checks += [
                (~held[rows], lambda i, rows=rows, name=attr.name: MissingAttribute(
                    images.ids[rows[i]], name))
                for rows in (rows_a, rows_b)
            ]
        if attr.is_categorical:
            if CROSS_LEVEL in attr.levels:
                raise SchemaInvalid(
                    f"attribute {attr.name!r}: level {CROSS_LEVEL!r} is reserved for pairs "
                    "whose sides differ"
                )
            levels = attr.levels + (CROSS_LEVEL,)
            codes = images.codes(attr).codes
            code_a, code_b = codes[rows_a], codes[rows_b]
            categorical[attr.name] = LevelCodes(
                np.where(code_a == code_b, code_a, levels.index(CROSS_LEVEL)), levels
            )
        else:
            values = images.floats(attr.name)
            va, vb = values[rows_a], values[rows_b]
            with np.errstate(over="ignore"):  # an infinite covariate fails its model
                continuous[attr.name] = (va + vb) / 2 if aggregate == "mean" else np.abs(va - vb)

    raise_first(checks)
    return CovariateFrame(categorical, continuous)


def _identity_holders(frame: ImageFrame) -> np.ndarray:
    """Row of each identity's lexicographically first image id, identities
    in order of first appearance."""
    order = np.array(sorted(range(len(frame)), key=frame.ids.__getitem__), dtype=np.intp)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = np.full(len(frame.identities), len(order), dtype=np.intp)
    np.minimum.at(first, frame.identity, rank)
    return order[first]


def key_checks(
    frame: ImageFrame, attr: AttributeDef, rows: np.ndarray
) -> tuple[np.ndarray, list[_Check]]:
    """The counting key of the images ``rows`` for ``attr`` (its level code
    or bin index, -1 where there is none) and the checks of those images, in
    order: no value, then a value no bin holds. The masks, like the key,
    run over ``rows``."""
    def missing(i: int) -> MissingAttribute:
        return MissingAttribute(frame.ids[rows[i]], attr.name)

    if attr.is_categorical:
        key = frame.codes(attr).codes[rows]
        return key, [(key < 0, missing)]
    values = frame.floats(attr.name)[rows]
    key = bin_codes(attr, values)
    lacking = np.isnan(values)
    return key, [
        (lacking, missing),
        (~lacking & (key < 0), lambda i: attr.bin_error(float(values[i]))),
    ]


def attribute_frequencies(frame: ImageFrame, schema: AttributeSchema, name: str) -> list[float]:
    """Observed frequency table for one attribute, aligned with its levels
    (categorical) or bins (continuous).

    Image-scoped attributes count every image; identity-scoped ones count
    each identity once, via its lexicographically first image. The counts
    are one ``np.bincount`` over the holders' level codes or bin indices,
    and the holders are judged by the masks of :func:`key_checks`: the
    first holder without a value, or with one no bin holds, raises.
    """
    attr = schema[name]
    size = len(attr.levels) if attr.is_categorical else attr.n_bins
    holders = _identity_holders(frame) if attr.scope is Scope.IDENTITY else np.arange(len(frame))
    codes, checks = key_checks(frame, attr, holders)
    raise_first(checks)
    return np.bincount(codes, minlength=size).astype(float).tolist()
