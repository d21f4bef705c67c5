"""The columnar pair core against a per-pair recomputation and the oracles,
and CSV ingestion against csv.DictReader.

Every statistic runs on a PairFrame and a CovariateFrame loaded from CSV
text. The covariates must equal those recomputed pair by pair from the two
images' values, and the threshold and group confusion must equal the
brute-force oracles over those covariates.
"""

from __future__ import annotations

import csv
import io
import tempfile
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import csv_text, covariate_rows, image_rows, pair, pair_frame, pair_rows
from favfa.anova import anova_distances
from favfa.data import (
    CROSS_LEVEL,
    Label,
    Subset,
    consolidate_identity_attributes,
    covariates_for_pairs,
    load_images,
    load_pairs,
)
from favfa.errors import DegeneratePairs, FavfaError, MissingAttribute
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


def scalar_covariates(pair, images, aggregate):
    """Covariates of one pair, attribute by attribute from its two image
    rows."""
    rec_a, rec_b = images[pair.image_a], images[pair.image_b]
    categorical, continuous = {}, {}
    for attr in SCHEMA.attributes:
        va, vb = rec_a.values[attr.name], rec_b.values[attr.name]
        if attr.is_categorical:
            categorical[attr.name] = va if va == vb else CROSS_LEVEL
        else:
            fa, fb = float(va), float(vb)
            continuous[attr.name] = (fa + fb) / 2 if aggregate == "mean" else abs(fa - fb)
    return categorical, continuous


def check_design(design, pairs, covs, said):
    """The response and every column of ``design`` recomputed pair by pair
    from the covariates: level indicators, and continuous values
    standardized with the design's own constants."""
    keep = [
        i for i, p in enumerate(pairs)
        if (p.ground_truth is Label.SAME) == (design.subset is Subset.POSITIVES)
    ]
    assert design.y.tolist() == [float(said[i]) for i in keep]
    assert design.X[:, 0].tolist() == [1.0] * len(keep)
    for j, name in enumerate(design.columns[1:], start=1):
        attr, _, level = name.partition("=")
        if level:
            want = [float(covs[i].categorical[attr] == level) for i in keep]
        else:
            mean, std = design.standardization[attr]
            want = [(covs[i].continuous[attr] - mean) / std for i in keep]
        assert design.X[:, j].tolist() == want


@given(tables(), st.sampled_from(["mean", "absdiff"]))
@settings(max_examples=40, deadline=None)
def test_frame_stages_match_per_pair_recomputation(tables, aggregate):
    image_cells, pair_cells = tables
    with tempfile.TemporaryDirectory() as tmp:
        images, frame = load(
            Path(tmp), csv_text(IMAGE_HEADER, image_cells), csv_text(PAIR_HEADER, pair_cells)
        )
    covs = covariates_for_pairs(frame, images, SCHEMA, aggregate)
    pairs = pair_rows(frame, images)
    assert len(frame) == len(pair_cells)
    assert [p.predicted for p in pairs] == [
        None if row[5] == "" else Label(row[5]) for row in pair_cells
    ]

    # covariates: a per-pair recomputation
    by_id = {row.image_id: row for row in image_rows(images)}
    by_pair = covariate_rows(covs)
    assert by_pair == [scalar_covariates(p, by_id, aggregate) for p in pairs]
    assert all(len(col.codes) == len(frame) for col in covs.categorical.values())
    assert all(len(values) == len(frame) for values in covs.continuous.values())

    distances = [p.distance for p in pairs]
    labels = [p.ground_truth is Label.SAME for p in pairs]
    if all(labels) or not any(labels):
        with pytest.raises(DegeneratePairs):
            optimize_threshold(frame)
        threshold = 0.5
    else:
        threshold = optimize_threshold(frame)
        best, _ = oracles.best_threshold_accuracy(distances, labels)
        assert oracles.accuracy_at(distances, labels, threshold) == best
    said = [
        p.distance < threshold if p.predicted is None else p.predicted is Label.SAME
        for p in pairs
    ]

    for grouping in (("gender", "ethnicity"), ("ethnicity",), ()):
        tallies = oracles.tally_groups(
            (tuple((a, cov.categorical[a]) for a in grouping), is_pos, s)
            for cov, is_pos, s in zip(by_pair, labels, said)
        )
        got = group_confusion(frame, covs, threshold, grouping)
        assert [(g.group.items, g.tp, g.fp, g.tn, g.fn) for g in got] == [
            (key, c["tp"], c["fp"], c["tn"], c["fn"]) for key, c in tallies.items()
        ]

    for subset in Subset:
        for schema in (SCHEMA, GENDER_SCHEMA):
            with suppress(FavfaError):
                check_design(build_design(frame, covs, schema, subset, threshold), pairs,
                             by_pair, said)
        for order in (None, ("pose", "ethnicity", "age", "gender")):
            for interactions in (False, True):
                with suppress(FavfaError):
                    table = anova_distances(frame, covs, SCHEMA, subset, order, interactions)
                    assert table.n == sum(
                        (is_pos == (subset is Subset.POSITIVES)) for is_pos in labels
                    )


@given(tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_missing_identity_attribute_names_the_same_image(tables, data):
    image_cells, pair_cells = tables
    ids = [row[0] for row in image_cells]
    lacking = set(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2)))
    for row in image_cells:
        if row[0] in lacking:
            row[-1] = ""
    with tempfile.TemporaryDirectory() as tmp:
        images, frame = load(
            Path(tmp),
            csv_text(IMAGE_HEADER, image_cells),
            csv_text(PAIR_HEADER, pair_cells),
            HEIGHT_SCHEMA,
        )
    # the first pair, in file order, with a side lacking it; side a first
    sides = [
        side for p in pair_rows(frame, images) for side in (p.image_a, p.image_b)
        if side in lacking
    ]
    if not sides:
        covariates_for_pairs(frame, images, HEIGHT_SCHEMA)
        return
    with pytest.raises(MissingAttribute) as err:
        covariates_for_pairs(frame, images, HEIGHT_SCHEMA)
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
    return image_rows(images_a) == image_rows(images_b) and pair_rows(
        frame_a, images_a
    ) == pair_rows(frame_b, images_b)


@given(tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_ragged_rows_and_blank_lines_read_as_dictreader_reads_them(tables, data):
    image_cells, pair_cells = tables
    images_text = data.draw(ragged(IMAGE_HEADER, image_cells))
    pairs_text = data.draw(ragged(PAIR_HEADER, pair_cells))
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


def test_pair_frame_columns_and_covariates(tmp_path):
    images, frame = load(
        tmp_path,
        csv_text(IMAGE_HEADER, [
            ["a1", "A", "Male", "Asian", "", "", "", "", "", "", "30", "5", "170"],
            ["b1", "B", "Female", "Asian", "", "", "", "", "", "", "40", "7", "160"],
        ]),
        csv_text(PAIR_HEADER, [["p1", "a1", "b1", "different", "0.75", "same"],
                               ["p2", "b1", "a1", "same", "0.25", ""]]),
    )
    assert len(frame) == 2
    # the image columns are rows of the image frame
    assert (frame.image_a.tolist(), frame.image_b.tolist()) == ([0, 1], [1, 0])
    assert (frame.is_pos.tolist(), frame.distance.tolist()) == ([False, True], [0.75, 0.25])
    assert list(frame.predicted) == [1, -1]
    covs = covariate_rows(covariates_for_pairs(frame, images, SCHEMA))
    assert covs[1].categorical == {"gender": CROSS_LEVEL, "ethnicity": "Asian"}
    assert covs[1].continuous == {"age": 35.0, "pose": 6.0}
    with pytest.raises(DegeneratePairs):
        optimize_threshold(pair_frame([pair("p1", "a1", "b1", False, 0.75, predicted=True)]))
