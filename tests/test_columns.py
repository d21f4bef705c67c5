"""The columnar pair core against its record adapters, and CSV ingestion
against csv.DictReader.

Every statistic runs on a PairFrame and a CovariateFrame. Handed PairRecords
and a plain ``pair_id -> PairCovariates`` mapping instead, the same functions
convert them into columns first; the level codes then come in order of first
appearance rather than schema order. Both routes must give equal results and
equal errors.
"""

from __future__ import annotations

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favfa.anova import anova_distances
from favfa.data import (
    CROSS_LEVEL,
    CovariateFrame,
    Label,
    PairFrame,
    Subset,
    consolidate_identity_attributes,
    covariates_for_pairs,
    load_images,
    load_pairs,
)
from favfa.errors import DegeneratePairs, MissingAttribute
from favfa.logit import build_design
from favfa.metrics import group_confusion, optimize_threshold
from favfa.schema import (
    DEFAULT_AGE_BINS,
    DEFAULT_POSE_BINS,
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
)

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")
SCHEMA = AttributeSchema(
    (
        AttributeDef("gender", Categorical(GENDERS, "Male"), Scope.IDENTITY),
        AttributeDef("ethnicity", Categorical(ETHNICITIES, "Caucasian"), Scope.IDENTITY),
        AttributeDef("age", Continuous("years"), Scope.IMAGE, DEFAULT_AGE_BINS),
        AttributeDef("pose", Continuous("degrees"), Scope.IMAGE, DEFAULT_POSE_BINS),
    )
)
#: SCHEMA without ethnicity: small tables fill its design columns more often.
GENDER_SCHEMA = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name != "ethnicity"))
#: SCHEMA plus an identity-scoped continuous attribute, which nothing
#: consolidates, so an image may lack it until pair covariates are derived.
HEIGHT_SCHEMA = AttributeSchema(
    SCHEMA.attributes + (AttributeDef("height", Continuous("cm"), Scope.IDENTITY),)
)

IMAGE_HEADER = (
    ["image_id", "identity_id", "gender", "ethnicity"]
    + [f"gender:{l}" for l in GENDERS]
    + [f"ethnicity:{l}" for l in ETHNICITIES]
    + ["age", "pose", "height"]
)
PAIR_HEADER = ["pair_id", "image_a", "image_b", "ground_truth", "distance", "predicted"]


def soft_cells(levels, draw) -> list[str]:
    weights = draw(st.lists(st.integers(1, 9), min_size=len(levels), max_size=len(levels)))
    return [repr(w / sum(weights)) for w in weights]


@st.composite
def tables(draw):
    """CSV rows of an image table (hard labels, soft scores, or both kinds
    within one identity) and of a pair table with a partly filled
    ``predicted`` column and heavily tied distances."""
    image_rows = []
    for i in range(draw(st.integers(2, 8))):
        gender = draw(st.sampled_from(GENDERS))
        ethnicity = draw(st.sampled_from(ETHNICITIES))
        height = repr(draw(st.floats(150.0, 200.0)))
        for j in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                labels = [gender, ethnicity] + [""] * (len(GENDERS) + len(ETHNICITIES))
            else:
                labels = ["", ""] + soft_cells(GENDERS, draw) + soft_cells(ETHNICITIES, draw)
            image_rows.append(
                [f"im{i}_{j}", f"id{i}"]
                + labels
                + [repr(draw(st.floats(0.0, 80.0))), repr(draw(st.floats(0.0, 50.0))), height]
            )
    ids = [row[0] for row in image_rows]
    pair_rows = []
    for k in range(draw(st.integers(2, 60))):
        pair_rows.append(
            [
                f"p{k}",
                draw(st.sampled_from(ids)),
                draw(st.sampled_from(ids)),
                draw(st.sampled_from(["same", "different"])),
                repr(draw(st.integers(0, 12)) / 8),
                draw(st.sampled_from(["", "", "same", "different"])),
            ]
        )
    return image_rows, pair_rows


def csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def load(directory: Path, images_text: str, pairs_text: str, schema=SCHEMA):
    (directory / "images.csv").write_text(images_text, encoding="utf-8")
    (directory / "pairs.csv").write_text(pairs_text, encoding="utf-8")
    images = consolidate_identity_attributes(load_images(directory / "images.csv", schema), schema)
    return images, load_pairs(directory / "pairs.csv", images)


def outcome(func, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", func(*args)
    except Exception as exc:  # both routes must fail alike, whatever the error
        return "raised", type(exc).__name__, str(exc)


def same_design(a, b) -> bool:
    return (
        np.array_equal(a.X, b.X)
        and np.array_equal(a.y, b.y)
        and a.X.dtype == b.X.dtype
        and (a.columns, a.categorical_columns, a.continuous_columns, a.standardization, a.subset)
        == (b.columns, b.categorical_columns, b.continuous_columns, b.standardization, b.subset)
    )


def scalar_covariates(pair, images, aggregate):
    """Covariates of one pair, attribute by attribute from its two records."""
    rec_a, rec_b = images.by_id[pair.image_a], images.by_id[pair.image_b]
    categorical, continuous = {}, {}
    for attr in SCHEMA.attributes:
        va, vb = rec_a.values[attr.name], rec_b.values[attr.name]
        if attr.is_categorical:
            categorical[attr.name] = va if va == vb else CROSS_LEVEL
        else:
            fa, fb = float(va), float(vb)
            continuous[attr.name] = (fa + fb) / 2 if aggregate == "mean" else abs(fa - fb)
    return categorical, continuous


@given(tables(), st.sampled_from(["mean", "absdiff"]))
@settings(max_examples=40, deadline=None)
def test_frame_and_record_adapters_agree(tables, aggregate):
    image_rows, pair_rows = tables
    with tempfile.TemporaryDirectory() as tmp:
        images, frame = load(
            Path(tmp), csv_text(IMAGE_HEADER, image_rows), csv_text(PAIR_HEADER, pair_rows)
        )
    covs = covariates_for_pairs(frame, images, SCHEMA, aggregate)
    records = tuple(frame)
    mapping = dict(covs)
    assert isinstance(covs, CovariateFrame) and len(covs) == len(frame) == len(pair_rows)
    assert [r.predicted for r in records] == [
        None if row[5] == "" else Label(row[5]) for row in pair_rows
    ]

    # covariates: the record route and a per-pair recomputation
    assert dict(covariates_for_pairs(records, images, SCHEMA, aggregate)) == mapping
    for record in records:
        cov = mapping[record.pair_id]
        assert (cov.categorical, cov.continuous) == scalar_covariates(record, images, aggregate)

    thr = outcome(optimize_threshold, frame)
    assert thr == outcome(optimize_threshold, records)
    threshold = thr[1] if thr[0] == "ok" else 0.5

    for grouping in (("gender", "ethnicity"), ("ethnicity",), ()):
        assert outcome(group_confusion, frame, covs, threshold, grouping) == outcome(
            group_confusion, records, mapping, threshold, grouping
        )

    for subset in Subset:
        for schema in (SCHEMA, GENDER_SCHEMA):
            by_frame = outcome(build_design, frame, covs, schema, subset, threshold)
            by_records = outcome(build_design, records, mapping, schema, subset, threshold)
            assert by_frame[0] == by_records[0]
            if by_frame[0] == "ok":
                assert same_design(by_frame[1], by_records[1])
            else:
                assert by_frame == by_records
        for order in (None, ("pose", "ethnicity", "age", "gender")):
            for interactions in (False, True):
                args = (SCHEMA, subset, order, interactions)
                assert outcome(anova_distances, frame, covs, *args) == outcome(
                    anova_distances, records, mapping, *args
                )


@given(tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_missing_identity_attribute_names_the_same_image(tables, data):
    image_rows, pair_rows = tables
    ids = [row[0] for row in image_rows]
    lacking = set(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2)))
    for row in image_rows:
        if row[0] in lacking:
            row[-1] = ""
    with tempfile.TemporaryDirectory() as tmp:
        images, frame = load(
            Path(tmp),
            csv_text(IMAGE_HEADER, image_rows),
            csv_text(PAIR_HEADER, pair_rows),
            HEIGHT_SCHEMA,
        )
    # the first pair, in file order, with a side lacking it; side a first
    sides = [side for p in frame for side in (p.image_a, p.image_b) if side in lacking]
    for pairs in (frame, tuple(frame)):
        if not sides:
            covariates_for_pairs(pairs, images, HEIGHT_SCHEMA)
            continue
        with pytest.raises(MissingAttribute) as err:
            covariates_for_pairs(pairs, images, HEIGHT_SCHEMA)
        assert (err.value.image_id, err.value.attribute) == (sides[0], "height")


def dictreader_text(text: str) -> str:
    """The table csv.DictReader reads from ``text``, written back out whole:
    blank lines dropped, short rows padded with empty cells, cells beyond
    the header dropped."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames
    return csv_text(header, [[row.get(name) or "" for name in header] for row in reader])


@st.composite
def ragged(draw, header, rows):
    """The rows as CSV text with some rows cut short or run long, and blank
    lines in between."""
    lines = [",".join(header)]
    for row in rows:
        cut = draw(st.sampled_from(["keep", "keep", "short", "long"]))
        if cut == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif cut == "long":
            row = row + ["extra"] * draw(st.integers(1, 3))
        lines.append(",".join(row))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


def same_tables(a, b) -> bool:
    images_a, frame_a = a
    images_b, frame_b = b
    return images_a.records == images_b.records and list(frame_a) == list(frame_b)


@given(tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_ragged_rows_and_blank_lines_read_as_dictreader_reads_them(tables, data):
    image_rows, pair_rows = tables
    images_text = data.draw(ragged(IMAGE_HEADER, image_rows))
    pairs_text = data.draw(ragged(PAIR_HEADER, pair_rows))
    with tempfile.TemporaryDirectory() as tmp:
        left, right = Path(tmp) / "as_written", Path(tmp) / "as_dictreader"
        left.mkdir()
        right.mkdir()
        got = outcome(load, left, images_text, pairs_text)
        want = outcome(load, right, dictreader_text(images_text), dictreader_text(pairs_text))
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert same_tables(got[1], want[1])
    else:
        assert want[1] in ("ParseError", "MissingAttribute", "UnresolvedImage"), want
        assert got[:2] == want[:2]
        assert got[2].replace(str(left), "<dir>") == want[2].replace(str(right), "<dir>")


def test_frame_indexing_gives_records(tmp_path):
    images, frame = load(
        tmp_path,
        csv_text(IMAGE_HEADER, [
            ["a1", "A", "Male", "Asian", "", "", "", "", "", "", "30", "5", "170"],
            ["b1", "B", "Female", "Asian", "", "", "", "", "", "", "40", "7", "160"],
        ]),
        csv_text(PAIR_HEADER, [["p1", "a1", "b1", "different", "0.75", "same"],
                               ["p2", "b1", "a1", "same", "0.25", ""]]),
    )
    assert isinstance(frame, PairFrame) and len(frame) == 2
    assert frame[0].predicted is Label.SAME and frame[1].predicted is None
    assert (frame[1].image_a, frame[1].ground_truth, frame[1].distance) == ("b1", Label.SAME, 0.25)
    assert frame.image_ids is images.ids
    assert list(frame.predicted) == [1, -1]
    covs = covariates_for_pairs(frame, images, SCHEMA)
    assert covs["p2"].categorical == {"gender": CROSS_LEVEL, "ethnicity": "Asian"}
    assert covs["p2"].continuous == {"age": 35.0, "pose": 6.0}
    with pytest.raises(DegeneratePairs):
        optimize_threshold(PairFrame.from_records([frame[0]]))
