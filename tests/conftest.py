"""Shared fixtures, and the builders that turn rows written out in a test into
the frames every stage takes, and frames back into rows for comparisons.

Image and pair rows become frames the way the CLI reads them:
:func:`load_tables` writes them as CSV text and reads it back with
``load_images`` and ``load_pairs``. Pairs whose covariates a test writes out
directly, without images behind them, become a PairFrame and a
CovariateFrame through :func:`frames`, built from columns.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from favfa.data import (
    CROSS_LEVEL,
    NO_PREDICTION,
    CovariateFrame,
    ImageFrame,
    Label,
    LevelCodes,
    PairFrame,
    load_images,
    load_pairs,
)
from favfa.schema import (
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    DEFAULT_AGE_BINS,
    DEFAULT_POSE_BINS,
    Scope,
)

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")


@pytest.fixture
def schema() -> AttributeSchema:
    return AttributeSchema(
        (
            AttributeDef("gender", Categorical(GENDERS, "Male"), Scope.IDENTITY),
            AttributeDef("ethnicity", Categorical(ETHNICITIES, "Caucasian"), Scope.IDENTITY),
            AttributeDef("age", Continuous("years"), Scope.IMAGE, DEFAULT_AGE_BINS),
            AttributeDef("pose", Continuous("degrees"), Scope.IMAGE, DEFAULT_POSE_BINS),
        )
    )


class ImageRow(NamedTuple):
    """One image: its attribute values (a level or a float each) and its
    per-level soft scores."""

    image_id: str
    identity_id: str
    values: dict
    soft_scores: dict


class PairRow(NamedTuple):
    pair_id: str
    image_a: str
    image_b: str
    ground_truth: Label
    distance: float
    predicted: Label | None = None


class Covariates(NamedTuple):
    categorical: dict
    continuous: dict


def image(image_id, identity_id, gender="Male", ethnicity="Caucasian", age=30.0,
          pose=10.0, soft_scores=None):
    return ImageRow(
        image_id,
        identity_id,
        {"gender": gender, "ethnicity": ethnicity, "age": age, "pose": pose},
        soft_scores or {},
    )


def pair(pair_id, image_a, image_b, same, distance, predicted=None):
    return PairRow(
        pair_id,
        image_a,
        image_b,
        Label.SAME if same else Label.DIFFERENT,
        distance,
        None if predicted is None else (Label.SAME if predicted else Label.DIFFERENT),
    )


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def outcome(func, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", func(*args)
    except Exception as exc:  # every route must fail alike, whatever the error
        return "raised", type(exc).__name__, str(exc)


def csv_text(header, rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def images_csv(images, schema) -> str:
    """Images CSV text of image rows: a column per attribute any row holds a
    value for, and a column per level of each soft-scored attribute; floats
    written as ``repr`` so they read back exactly."""
    names = list(dict.fromkeys(name for row in images for name in row.values))
    soft = [(name, len(schema[name].levels)) for name in dict.fromkeys(
        name for row in images for name in row.soft_scores
    )]
    header = ["image_id", "identity_id", *names]
    header += [f"{name}:{level}" for name, _ in soft for level in schema[name].levels]
    return csv_text(header, [
        [row.image_id, row.identity_id, *(_cell(row.values.get(name)) for name in names)]
        + [_cell(s) for name, k in soft for s in row.soft_scores.get(name, (None,) * k)]
        for row in images
    ])


def pairs_csv(pairs) -> str:
    return csv_text(
        ["pair_id", "image_a", "image_b", "ground_truth", "distance", "predicted"],
        [
            [p.pair_id, p.image_a, p.image_b, p.ground_truth.value, repr(float(p.distance)),
             "" if p.predicted is None else p.predicted.value]
            for p in pairs
        ],
    )


def load_tables(schema, images, pairs=()) -> tuple[ImageFrame, PairFrame]:
    """The image and pair frames of rows, written as CSV and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        images_path, pairs_path = Path(tmp) / "images.csv", Path(tmp) / "pairs.csv"
        images_path.write_text(images_csv(images, schema), encoding="utf-8")
        pairs_path.write_text(pairs_csv(pairs), encoding="utf-8")
        frame = load_images(images_path, schema)
        return frame, load_pairs(pairs_path, frame)


def pair_frame(pairs) -> PairFrame:
    """A PairFrame of pair rows; image ids are numbered in order of first
    appearance."""
    image_rows: dict[str, int] = {}
    return PairFrame(
        pair_id=tuple(p.pair_id for p in pairs),
        image_a=np.array([image_rows.setdefault(p.image_a, len(image_rows)) for p in pairs],
                         dtype=np.intp),
        image_b=np.array([image_rows.setdefault(p.image_b, len(image_rows)) for p in pairs],
                         dtype=np.intp),
        is_pos=np.array([p.ground_truth is Label.SAME for p in pairs], dtype=bool),
        distance=np.array([p.distance for p in pairs], dtype=float),
        predicted=np.array(
            [NO_PREDICTION if p.predicted is None else int(p.predicted is Label.SAME)
             for p in pairs],
            dtype=np.int8,
        ),
    )


def frames(pairs, covariates, schema=None) -> tuple[PairFrame, CovariateFrame]:
    """The PairFrame of pair rows and the CovariateFrame of their
    covariates, ``covariates[pair_id]`` a :class:`Covariates`, built from
    columns. The attributes are those of the first pair. Level codes follow
    the schema's levels with ``Cross`` last; an attribute the schema does
    not declare takes its levels in sorted order."""
    rows = [covariates[p.pair_id] for p in pairs]
    first = rows[0] if rows else Covariates({}, {})
    categorical = {}
    for name in first.categorical:
        values = [r.categorical[name] for r in rows]
        if schema is not None and name in schema:
            levels = schema[name].levels + (CROSS_LEVEL,)
        else:
            levels = tuple(sorted(set(values)))
        codes = np.array([levels.index(v) for v in values], dtype=np.intp)
        categorical[name] = LevelCodes(codes, levels)
    continuous = {
        name: np.array([r.continuous[name] for r in rows], dtype=float)
        for name in first.continuous
    }
    return pair_frame(pairs), CovariateFrame(categorical, continuous)


def image_rows(frame: ImageFrame) -> list[ImageRow]:
    """The images of a frame as rows: the values each image holds and the
    soft scores it carries."""
    rows = []
    for i, image_id in enumerate(frame.ids):
        values = {
            name: col.levels[col.codes[i]]
            for name, col in frame.categorical.items()
            if col.codes[i] >= 0
        }
        values.update(
            (name, float(column[i]))
            for name, column in frame.continuous.items()
            if not math.isnan(column[i])
        )
        soft = {
            name: tuple(matrix[i].tolist())
            for name, matrix in frame.scores.items()
            if not math.isnan(matrix[i, 0])
        }
        rows.append(ImageRow(image_id, frame.identities[frame.identity[i]], values, soft))
    return rows


def pair_rows(frame: PairFrame, images: ImageFrame) -> list[PairRow]:
    """The pairs of a frame as rows, image ids read from ``images``."""
    labels = {1: Label.SAME, 0: Label.DIFFERENT, NO_PREDICTION: None}
    return [
        PairRow(pair_id, images.ids[a], images.ids[b], labels[int(pos)], distance,
                labels[predicted])
        for pair_id, a, b, pos, distance, predicted in zip(
            frame.pair_id, frame.image_a.tolist(), frame.image_b.tolist(),
            frame.is_pos.tolist(), frame.distance.tolist(), frame.predicted.tolist(),
        )
    ]


def covariate_rows(covs: CovariateFrame) -> list[Covariates]:
    """The covariates of each pair as a row."""
    columns = [col.codes for col in covs.categorical.values()] + list(covs.continuous.values())
    n = len(columns[0]) if columns else 0
    return [
        Covariates(
            {name: col.levels[col.codes[i]] for name, col in covs.categorical.items()},
            {name: float(values[i]) for name, values in covs.continuous.items()},
        )
        for i in range(n)
    ]


@pytest.fixture
def tiny_tables(schema):
    """Two identities, two images each, plus four pairs."""
    return load_tables(
        schema,
        [
            image("a1", "A", "Male", "African", 30.0, 12.0),
            image("a2", "A", "Male", "African", 40.0, 4.0),
            image("b1", "B", "Female", "Asian", 22.0, 8.0),
            image("b2", "B", "Female", "Asian", 26.0, 30.0),
        ],
        [
            pair("p1", "a1", "a2", True, 0.2),
            pair("p2", "b1", "b2", True, 0.3),
            pair("p3", "a1", "b1", False, 0.7),
            pair("p4", "a2", "b2", False, 0.9),
        ],
    )
