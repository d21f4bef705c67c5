"""The columnar image table against a row-by-row reference reader.

``load_images`` reads an images CSV into an ImageFrame column by column and
``consolidate_identity_attributes`` averages soft scores with one grouped
reduction. The reference below reads the same files row by row into rows of
its own and averages identity by identity with ``math.fsum``; it is the row
code these functions replace, kept as the oracle. The frame, read back as
rows, and the reference must give equal values and raise the same first
error.
"""

from __future__ import annotations

import csv
import math
import random
import tempfile
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import favfa.data
from conftest import (
    ImageRow,
    PairRow,
    block_reader_only,
    covariate_rows,
    csv_text,
    image_rows,
    load_tables,
    outcome,
    pair_rows,
    parser_only,
    route,
)
from favfa.data import (
    CROSS_LEVEL,
    ImageFrame,
    Label,
    attribute_frequencies,
    consolidate_identity_attributes,
    covariates_for_pairs,
    load_images,
    load_pairs,
    parse_floats,
)
from favfa.errors import MissingAttribute, ParseError, SchemaInvalid, UnresolvedImage
from favfa.planner import sampling_weights
from favfa.schema import (
    DEFAULT_AGE_BINS,
    DEFAULT_POSE_BINS,
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
)

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "data" / "demo"

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")
GLASSES = ("No", "Yes")
SCHEMA = AttributeSchema(
    (
        AttributeDef("gender", Categorical(GENDERS, "Male"), Scope.IDENTITY),
        AttributeDef("ethnicity", Categorical(ETHNICITIES, "Caucasian"), Scope.IDENTITY),
        AttributeDef("glasses", Categorical(GLASSES, "No"), Scope.IMAGE),
        AttributeDef("age", Continuous("years"), Scope.IMAGE, DEFAULT_AGE_BINS),
        AttributeDef("pose", Continuous("degrees"), Scope.IMAGE, DEFAULT_POSE_BINS),
        AttributeDef("height", Continuous("cm"), Scope.IDENTITY, ((100.0, 170.0), (170.0, 250.0))),
    )
)
HEADER = (
    ["image_id", "identity_id", "gender", "ethnicity", "glasses"]
    + [f"gender:{l}" for l in GENDERS]
    + [f"ethnicity:{l}" for l in ETHNICITIES]
    + [f"glasses:{l}" for l in GLASSES]
    + ["age", "pose", "pitch", "yaw", "roll", "height"]
)


# --- the row-by-row reference -------------------------------------------


class ReferenceTable:
    """The reference reader's image table: its rows, indexed by image id
    and grouped by identity."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.by_id = {}
        self.by_identity = {}
        for row in self.rows:
            if row.image_id in self.by_id:
                raise ParseError(f"duplicate image_id {row.image_id!r}")
            self.by_id[row.image_id] = row
            self.by_identity.setdefault(row.identity_id, []).append(row)

    def resolve(self, image_id):
        try:
            return self.by_id[image_id]
        except KeyError:
            raise UnresolvedImage(f"unknown image_id {image_id!r}") from None


def reference_rows(path, required):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        for col in required:
            if col not in header:
                raise ParseError(f"{path}: missing required column {col!r}")
        width = len(header)
        rows = [row + [""] * (width - len(row)) for row in reader if row]
    return {name: i for i, name in enumerate(header)}, rows


def reference_finite(raw, context):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"{context}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{context}: value must be finite, got {raw!r}")
    return value


def reference_soft(cells, attr, image_id):
    if not all(cells):
        if not any(cells):
            return None
        raise ParseError(f"image {image_id!r}: incomplete soft scores for {attr.name!r}")
    scores = tuple(
        reference_finite(c, f"image {image_id!r} soft score {attr.name!r}") for c in cells
    )
    if min(scores) < 0:
        raise ParseError(f"image {image_id!r}: negative soft score for {attr.name!r}")
    try:
        off = abs(math.fsum(scores) - 1.0) > 1e-6
    except OverflowError:  # the sum is beyond the float range
        off = True
    if off:
        raise ParseError(f"image {image_id!r}: soft scores for {attr.name!r} must sum to 1")
    return scores


def reference_load_images(path, schema) -> ReferenceTable:
    columns, rows = reference_rows(path, ("image_id", "identity_id"))
    pose_cols = [columns.get(c) for c in ("pitch", "yaw", "roll")]
    soft_cols = {}
    for attr in schema.categorical():
        present = [columns[f"{attr.name}:{l}"] for l in attr.levels if f"{attr.name}:{l}" in columns]
        if present and len(present) != len(attr.levels):
            raise ParseError(f"attribute {attr.name!r}: soft-score columns must cover every level")
        soft_cols[attr.name] = present or None
    records = []
    for row in rows:
        image_id, identity_id = row[columns["image_id"]].strip(), row[columns["identity_id"]].strip()
        if not image_id or not identity_id:
            raise ParseError(f"{path}: row with empty image_id or identity_id")
        values, softs = {}, {}
        for attr in schema.attributes:
            name = attr.name
            raw = row[columns[name]].strip() if name in columns else ""
            if attr.is_categorical:
                if raw:
                    if raw not in attr.levels:
                        raise ParseError(
                            f"image {image_id!r}: unknown level {raw!r} for attribute {name!r}"
                        )
                    values[name] = raw
                if soft_cols[name]:
                    scores = reference_soft([row[i].strip() for i in soft_cols[name]], attr, image_id)
                    if scores is not None:
                        softs[name] = scores
                        if name not in values and attr.scope is Scope.IMAGE:
                            values[name] = attr.levels[scores.index(max(scores))]
            elif raw:
                values[name] = reference_finite(raw, f"image {image_id!r} {name!r}")
            elif name == "pose" and None not in pose_cols:
                comps = [row[i].strip() for i in pose_cols]
                if all(comps):
                    comps = [reference_finite(c, f"image {image_id!r} pose") for c in comps]
                    try:
                        values[name] = math.sqrt(math.fsum(c ** 2 for c in comps))
                    except OverflowError:
                        raise ParseError(
                            f"image {image_id!r}: pose components too large to combine"
                        ) from None
            if attr.scope is Scope.IMAGE and name not in values and name not in softs:
                raise MissingAttribute(image_id, name)
        records.append(ImageRow(image_id, identity_id, values, softs))
    return ReferenceTable(records)


def reference_consolidate(table: ReferenceTable, schema) -> ReferenceTable:
    attrs = [a for a in schema.attributes if a.is_categorical and a.scope is Scope.IDENTITY]
    assigned = {}
    for recs in table.by_identity.values():
        for attr in attrs:
            name = attr.name
            if not any(name in r.soft_scores for r in recs):
                for r in recs:
                    if name not in r.values:
                        raise MissingAttribute(r.image_id, name)
                continue
            lacking = [r.image_id for r in recs if name not in r.soft_scores and name not in r.values]
            if lacking:
                raise MissingAttribute(min(lacking), name)
            vectors = [
                r.soft_scores.get(name)
                or tuple(float(level == r.values[name]) for level in attr.levels)
                for r in recs
            ]
            averaged = [math.fsum(level) / len(vectors) for level in zip(*vectors)]
            winner = attr.levels[averaged.index(max(averaged))]
            for r in recs:
                assigned.setdefault(r.image_id, {})[name] = winner
    return ReferenceTable(
        ImageRow(r.image_id, r.identity_id, {**r.values, **assigned.get(r.image_id, {})},
                 dict(r.soft_scores))
        for r in table.rows
    )


def reference_load_pairs(path, images: ReferenceTable) -> list[PairRow]:
    columns, rows = reference_rows(path, ("pair_id", "image_a", "image_b", "ground_truth", "distance"))
    labels = {"same": Label.SAME, "different": Label.DIFFERENT}
    pairs, seen = [], set()
    for row in rows:
        pair_id = row[columns["pair_id"]].strip()
        if not pair_id:
            raise ParseError(f"{path}: row with empty pair_id")
        if pair_id in seen:
            raise ParseError(f"duplicate pair_id {pair_id!r}")
        seen.add(pair_id)
        a, b = (images.resolve(row[columns[c]].strip()).image_id for c in ("image_a", "image_b"))
        truth = labels.get(row[columns["ground_truth"]].strip().lower())
        if truth is None:
            raise ParseError(f"pair {pair_id!r}: ground_truth must be 'same' or 'different'")
        dist = reference_finite(row[columns["distance"]].strip(), f"pair {pair_id!r} distance")
        raw = row[columns["predicted"]].strip().lower() if "predicted" in columns else ""
        predicted = labels.get(raw) if raw else None
        if raw and predicted is None:
            raise ParseError(f"pair {pair_id!r}: predicted must be 'same' or 'different'")
        if dist < 0:
            raise ParseError(f"pair {pair_id!r}: distance must be finite and >= 0, got {dist}")
        pairs.append(PairRow(pair_id, a, b, truth, dist, predicted))
    return pairs


def reference_required(rec, name):
    if name not in rec.values:
        raise MissingAttribute(rec.image_id, name)
    return rec.values[name]


def reference_frequencies(table: ReferenceTable, schema, name) -> list[float]:
    attr = schema[name]
    holders = (
        [min(recs, key=lambda r: r.image_id) for recs in table.by_identity.values()]
        if attr.scope is Scope.IDENTITY
        else table.rows
    )
    if attr.is_categorical:
        counts = [0] * len(attr.levels)
        for rec in holders:
            counts[attr.levels.index(str(reference_required(rec, name)))] += 1
    else:
        counts = [0] * attr.n_bins
        for rec in holders:
            counts[attr.bin_index(float(reference_required(rec, name)))] += 1
    return [float(c) for c in counts]


def reference_weights(table: ReferenceTable, schema, attrs) -> list[tuple[str, float, float]]:
    if len(set(attrs)) != len(attrs):
        raise SchemaInvalid("attrs repeats an attribute")

    def key(rec, name):
        value = reference_required(rec, name)
        attr = schema[name]
        return value if attr.is_categorical else attr.bin_index(float(value))

    keys = {rec.image_id: tuple(key(rec, a) for a in attrs) for rec in table.rows}
    counts = [Counter(k[i] for k in keys.values()) for i in range(len(attrs))]
    weights = {}
    for image_id, k in keys.items():
        w = 1.0
        for i, value in enumerate(k):
            w *= 1.0 / counts[i][value]
        weights[image_id] = w
    total = math.fsum(weights.values())
    return [(i, w, w / total) for i, w in weights.items()]


# --- generated tables ------------------------------------------------------


def soft_cells(draw, k):
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    return [repr(w / sum(weights)) for w in weights]


def num(draw, lo, hi):
    return repr(draw(st.floats(lo, hi)))


@st.composite
def image_tables(draw):
    """Images CSV rows: identities with hard labels, soft scores, or both
    (within an identity and within one row), some hard-only identities,
    glasses as an image-scoped label or scores, pose given directly or as
    components, and an identity-scoped height missing on some images."""
    rows = []
    for i in range(draw(st.integers(1, 7))):
        gender, ethnicity = draw(st.sampled_from(GENDERS)), draw(st.sampled_from(ETHNICITIES))
        height = num(draw, 120.0, 210.0)
        hard_only = draw(st.booleans())
        for j in range(draw(st.integers(1, 4))):
            mode = "hard" if hard_only else draw(st.sampled_from(["hard", "soft", "both"]))
            labels = [gender if mode != "soft" else "", ethnicity if mode != "soft" else ""]
            scores = (
                soft_cells(draw, 2) + soft_cells(draw, 4) if mode != "hard" else [""] * 6
            )
            glasses = draw(st.sampled_from(["hard", "soft", "both"]))
            glasses_cells = (
                [draw(st.sampled_from(GLASSES)) if glasses != "soft" else ""]
                + (soft_cells(draw, 2) if glasses != "hard" else ["", ""])
            )
            if draw(st.booleans()):
                pose = [num(draw, 0.0, 70.0), "", "", ""]
            else:
                pose = ["", num(draw, -40.0, 40.0), num(draw, -40.0, 40.0), num(draw, -40.0, 40.0)]
            rows.append(
                [f"im{i}_{j}", f"id{i}"] + labels + glasses_cells[:1] + scores[:2] + scores[2:]
                + glasses_cells[1:] + [num(draw, 0.0, 90.0)] + pose
                + [height if draw(st.integers(0, 5)) else ""]
            )
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    return rows


def routes(path):
    """The consolidated table two ways: columns all along, and the row-by-row
    reference."""
    by_frame = outcome(lambda: consolidate_identity_attributes(load_images(path, SCHEMA), SCHEMA))
    by_reference = outcome(lambda: reference_consolidate(reference_load_images(path, SCHEMA), SCHEMA))
    return by_frame, by_reference


@given(image_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_frame_and_reference_routes_agree(rows, data):
    ids = [row[0] for row in rows]
    pairs = [
        [f"p{k}", data.draw(st.sampled_from(ids + ["ghost"])), data.draw(st.sampled_from(ids)),
         "different", "0.5"]
        for k in range(data.draw(st.integers(1, 12)))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path, pairs_path = Path(tmp) / "images.csv", Path(tmp) / "pairs.csv"
        path.write_text(csv_text(HEADER, rows), encoding="utf-8")
        pairs_path.write_text(
            csv_text(["pair_id", "image_a", "image_b", "ground_truth", "distance"], pairs),
            encoding="utf-8",
        )
        by_frame, by_reference = routes(path)
        assert by_reference[0] == "ok", by_reference
        frame, reference = by_frame[1], by_reference[1]
        # the first pair, in order, that cannot be resolved, then the first
        # that lacks a value
        for aggregate in ("mean", "absdiff"):
            want = outcome(
                lambda: reference_covariates(
                    reference_load_pairs(pairs_path, reference), reference, aggregate
                )
            )
            assert outcome(
                lambda: covariate_rows(
                    covariates_for_pairs(load_pairs(pairs_path, frame), frame, SCHEMA, aggregate)
                )
            ) == want
    assert isinstance(frame, ImageFrame)
    assert image_rows(frame) == reference.rows

    for name in SCHEMA.names:
        want = outcome(reference_frequencies, reference, SCHEMA, name)
        assert outcome(attribute_frequencies, frame, SCHEMA, name) == want

    attrs = data.draw(st.lists(st.sampled_from(SCHEMA.names), min_size=1, max_size=4))
    want = outcome(reference_weights, reference, SCHEMA, attrs)
    got = outcome(sampling_weights, frame, SCHEMA, attrs)
    if want[0] == "ok":
        assert got[0] == "ok", got
        weights = got[1]
        assert list(zip(weights.ids, weights.weight.tolist(), weights.probability.tolist())) == want[1]
    else:
        assert got == want


def reference_covariates(pairs, table, aggregate, schema=SCHEMA):
    """Covariates of every pair, pair by pair from its two reference rows;
    the first pair lacking a value raises for it."""
    for pair in pairs:
        for attr in schema.attributes:
            for image_id in (pair.image_a, pair.image_b):
                reference_required(table.by_id[image_id], attr.name)
    return [scalar_covariates(p, table, aggregate, schema) for p in pairs]


def scalar_covariates(pair, table, aggregate, schema):
    a, b = table.by_id[pair.image_a].values, table.by_id[pair.image_b].values
    categorical = {
        attr.name: a[attr.name] if a[attr.name] == b[attr.name] else CROSS_LEVEL
        for attr in schema.categorical()
    }
    continuous = {
        attr.name: (a[attr.name] + b[attr.name]) / 2 if aggregate == "mean"
        else abs(a[attr.name] - b[attr.name])
        for attr in schema.continuous()
    }
    return categorical, continuous


# --- near ties -------------------------------------------------------------

FOUR = ("gender", "ethnicity", "age", "pose")

#: Gender scores of one identity's four images, each row summing to 1 within
#: 1e-6, with the winner of the exactly rounded averages. Summed left to
#: right, the first table makes Female lead by one ulp although the exact
#: averages tie (so Male wins the tie-break); the second ties although the
#: exact Female average is larger.
NEAR_TIES = [
    (
        [("0.5000000000000002", "0.5"), ("0.4999999999999998", "0.5000000000000004"),
         ("0.4999999999999999", "0.4999999999999999"), ("0.5", "0.4999999999999999")],
        "Male",
    ),
    (
        [("0.4999999999999998", "0.5"), ("0.4999999999999999", "0.5000000000000001"),
         ("0.5000000000000001", "0.4999999999999998"), ("0.4999999999999999", "0.4999999999999999")],
        "Female",
    ),
]


@pytest.mark.parametrize(("scores", "winner"), NEAR_TIES)
def test_near_tie_winner_is_the_exactly_rounded_average(tmp_path, scores, winner):
    columns = [[float(s) for s in level] for level in zip(*scores)]
    naive = [sum(c) for c in columns]
    exact = [math.fsum(c) / len(c) for c in columns]
    naive_winner = GENDERS[naive.index(max(naive))]
    assert naive_winner != winner == GENDERS[exact.index(max(exact))]

    header = ["image_id", "identity_id", "gender:Male", "gender:Female", "ethnicity", "age", "pose"]
    rows = [[f"a{i}", "A", *s, "Asian", "30", "5"] for i, s in enumerate(scores)]
    rows.append(["b0", "B", "0.25", "0.75", "Asian", "30", "5"])  # a second identity
    path = tmp_path / "images.csv"
    path.write_text(csv_text(header, rows), encoding="utf-8")
    schema = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name in FOUR))
    out = consolidate_identity_attributes(load_images(path, schema), schema)
    assert [r.values["gender"] for r in image_rows(out)] == [winner] * 4 + ["Female"]


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_near_ties_match_the_reference(offsets):
    # scores within a few ulps of a three-way tie, one identity
    ulp = 2.0**-54
    records = [
        ImageRow(f"i{k}", "A", {"ethnicity": "Asian", "age": 30.0, "pose": 5.0},
                 {"gender": (0.5 + a * ulp, 0.5 + b * ulp)} if k % 3 else
                 {"gender": (0.5 + c * ulp, 0.5 + a * ulp)})
        for k, (a, b, c) in enumerate(offsets)
    ]
    schema = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name in FOUR))
    got = consolidate_identity_attributes(load_tables(schema, records)[0], schema)
    assert image_rows(got) == reference_consolidate(ReferenceTable(records), schema).rows


# --- cell checks -----------------------------------------------------------


@pytest.mark.parametrize(
    "scores",
    [
        # fsum says the row misses 1 by more than 1e-6, a plain sum does not
        ("1.000001", "8.326672684688674e-17", "8.326672684688674e-17", "0"),
        # and the other way round
        ("1.6653345369377348e-16", "1.0000009999999997", "1.3877787807814457e-16", "0"),
        ("-0.25", "1.25", "0", "0"),
        ("-0.0", "1", "0", "0"),
        ("0.5", "0.5000011", "0", "0"),
        ("0.5", "0.5000009", "0", "0"),
        ("0.5", "0.5", "0", "nan"),
        ("0.5", "0.5", "1e400", "0"),
        ("0.5", "0.5", "", "0"),
        ("0.5", "0.5", "x", "-1"),
        (" 0.5", "5_0e-2", "0.45 ", "0"),
        # finite scores whose sum overflows
        ("1e308", "1e308", "0", "0"),
        ("1e308", "1e308", "1e308", "-1"),
    ],
)
def test_soft_score_checks_match_the_reference(tmp_path, scores):
    header = ["image_id", "identity_id", "gender"] + [f"ethnicity:{l}" for l in ETHNICITIES] + ["age", "pose"]
    rows = [["a1", "A", "Male", "0.25", "0.25", "0.25", "0.25", "30", "5"],
            ["a2", "A", "Male", *scores, "31", "6"]]
    path = tmp_path / "images.csv"
    path.write_text(csv_text(header, rows))
    schema = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name in FOUR))
    got = consolidated(path, schema)
    want = outcome(lambda: reference_consolidate(reference_load_images(path, schema), schema))
    assert got[0] == want[0]
    assert got[1:] == want[1:] if got[0] == "raised" else image_rows(got[1]) == want[1].rows


def test_pose_norm_squares_with_python_pow(tmp_path):
    # for these components the norm of the libm squares differs in the last
    # bit from the norm of x * x, which is what numpy's ** 2 computes
    comps = (31.1209, 6.6991, 2.4156)
    assert math.sqrt(math.fsum(c ** 2 for c in comps)) != math.sqrt(math.fsum(c * c for c in comps))
    path = tmp_path / "images.csv"
    path.write_text(csv_text(
        ["image_id", "identity_id", "gender", "ethnicity", "age", "pitch", "yaw", "roll"],
        [["a1", "A", "Male", "Asian", "30", *map(repr, comps)]],
    ))
    schema = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name in FOUR))
    assert load_images(path, schema).continuous["pose"].tolist() == [
        math.sqrt(math.fsum(c ** 2 for c in comps))
    ]


@pytest.mark.parametrize(
    "second, third",
    [
        # components whose squares, or the squares' sum, overflow
        (("1e200", "1", "1", "30"), ("1", "1", "1", "30")),
        (("1.3e154", "1.3e154", "1", "30"), ("1", "1", "1", "30")),
        # the largest components that still combine
        (("1.3e154", "1", "1", "30"), ("-1.3e154", "1e-300", "0", "30")),
        # a bad cell read before the pose in the same row, or in a later row
        (("1e200", "1", "1", "old"), ("1", "1", "1", "30")),
        (("1e200", "1", "1", "30"), ("1", "1", "1", "old")),
        (("1", "1", "1", "old"), ("1e200", "1", "1", "30")),
    ],
)
def test_pose_checks_match_the_reference(tmp_path, monkeypatch, second, third):
    header = ["image_id", "identity_id", "gender", "ethnicity", "pitch", "yaw", "roll", "age"]
    rows = [["a1", "A", "Male", "Asian", "1", "2", "3", "30"],
            ["a2", "A", "Male", "Asian", *second],
            ["a3", "A", "Male", "Asian", *third]]
    path = tmp_path / "images.csv"
    path.write_text(csv_text(header, rows))
    schema = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name in FOUR))
    want = outcome(lambda: reference_consolidate(reference_load_images(path, schema), schema))
    for block_rows in (1, 2048):
        monkeypatch.setattr(favfa.data, "_BLOCK_ROWS", block_rows)
        got = consolidated(path, schema)
        assert got[0] == want[0]
        assert got[1:] == want[1:] if got[0] == "raised" else image_rows(got[1]) == want[1].rows


# --- the order of the checks ------------------------------------------------

#: The images CSV of the order tests: its schema reads the cells of a row in
#: the order of ``IMAGE_DEFECTS``.
ORDER_SCHEMA = AttributeSchema(
    tuple(SCHEMA[n] for n in ("gender", "ethnicity", "age", "pose", "glasses"))
)
ORDER_HEADER = (["image_id", "identity_id", "gender"] + [f"ethnicity:{l}" for l in ETHNICITIES]
                + ["age", "pose", "pitch", "yaw", "roll", "glasses"])
ORDER_IMAGES = [[f"im{i}", f"id{i // 2}", "Male", "0.25", "0.25", "0.25", "0.25", "30", "",
                 "1", "2", "3", "No"] for i in range(6)]

#: One defect per check of ``load_images``, in the order a row's cells are
#: read: the cells to set.
IMAGE_DEFECTS = {
    "empty id": {"identity_id": ""},
    "unknown level": {"gender": "Martian"},
    "incomplete scores": {"ethnicity:Indian": ""},
    "score not finite": {"ethnicity:Asian": "x"},
    "negative score": {"ethnicity:Caucasian": "-0.25", "ethnicity:African": "0.75"},
    "scores off 1": {"ethnicity:African": "0.5"},
    "value not finite": {"age": "old"},
    "component not finite": {"yaw": "inf"},
    "components too large": {"pitch": "1e200"},
    "missing value": {"glasses": ""},
}

ORDER_PAIRS_HEADER = ["pair_id", "image_a", "image_b", "ground_truth", "distance", "predicted"]
ORDER_PAIRS = [[f"p{j}", f"im{j % 6}", f"im{(j + 1) % 6}", ("same", "different")[j % 2], "0.5",
                ("same", "")[j % 2]] for j in range(6)]

#: One defect per check of ``load_pairs``, in the order a row's cells are read.
PAIR_DEFECTS = {
    "empty id": {"pair_id": ""},
    "repeated id": {"pair_id": "p0"},
    "unknown image_a": {"image_a": "ghost"},
    "unknown image_b": {"image_b": "phantom"},
    "bad ground_truth": {"ground_truth": "maybe"},
    "distance not finite": {"distance": "nan"},
    "bad predicted": {"predicted": "perhaps"},
    "negative distance": {"distance": "-0.5"},
}


def check_order(tmp_path, monkeypatch, header, rows, defects, load, reference):
    """Every ordered pair of defects, in one row and in two consecutive rows
    (row 0 stays clean), must raise what the reference reader raises, at any
    block size."""
    path = tmp_path / "table.csv"
    for n, (first, second) in enumerate(permutations(defects, 2)):
        k = 1 + n % 2  # with blocks of two rows, consecutive rows share a block or not
        for placed in ({k: (first, second)}, {k: (first,), k + 1: (second,)}):
            damaged = [list(row) for row in rows]
            for i, names in placed.items():
                for name in names:
                    for column, cell in defects[name].items():
                        damaged[i][header.index(column)] = cell
            path.write_text(csv_text(header, damaged), encoding="utf-8")
            want = outcome(reference, path)
            assert want[0] == "raised", (placed, want)
            for block_rows in (1, 2, 2048):
                monkeypatch.setattr(favfa.data, "_BLOCK_ROWS", block_rows)
                assert outcome(load, path) == want, (placed, block_rows)


def test_image_checks_are_met_in_cell_order(tmp_path, monkeypatch):
    check_order(
        tmp_path, monkeypatch, ORDER_HEADER, ORDER_IMAGES, IMAGE_DEFECTS,
        lambda path: image_rows(load_images(path, ORDER_SCHEMA)),
        lambda path: reference_load_images(path, ORDER_SCHEMA).rows,
    )


def test_pair_checks_are_met_in_cell_order(tmp_path, monkeypatch):
    images_path = tmp_path / "images.csv"
    images_path.write_text(csv_text(ORDER_HEADER, ORDER_IMAGES), encoding="utf-8")
    frame = load_images(images_path, ORDER_SCHEMA)
    reference = reference_load_images(images_path, ORDER_SCHEMA)
    check_order(
        tmp_path, monkeypatch, ORDER_PAIRS_HEADER, ORDER_PAIRS, PAIR_DEFECTS,
        lambda path: pair_rows(load_pairs(path, frame), frame),
        lambda path: reference_load_pairs(path, reference),
    )


# --- the float parse -------------------------------------------------------


def test_parse_floats_is_float():
    cells = [
        "1.5", " 2.5 ", "\t3\n", "1_000", "1_0.5", "1__0", "_1", "inf", "-Infinity", "+inf",
        "nan", "-NaN", "NAN", "1e3", "1E-3", "-2.5e+10", ".5", "5.", "1e400", "-1e-400",
        "0x10", "", " ", "abc", "1,5", "٣", "１２", "1 000", "--1", "+-1", "0.1", "-0.0",
    ]
    got = parse_floats(cells)
    for cell, value in zip(cells, got.tolist()):
        try:
            want = float(cell)
        except ValueError:
            want = math.nan
        assert value == want or (math.isnan(value) and math.isnan(want)), cell
        assert math.copysign(1.0, value) == math.copysign(1.0, want) or math.isnan(want), cell
    # one bad cell must not change how the others read
    assert parse_floats(["0.1", "x", "0.2"]).tolist()[::2] == [0.1, 0.2]


# --- corrupted copies of data/demo -----------------------------------------

BAD_CELLS = [
    "", " ", "abc", "nan", "inf", "-1", "-0.0", "1e400", "1_0", "Martian", "same",
    "SAME", "maybe", "0.5", " 0.25 ", "é", "Male", "Asian", "0", "1", "1.0000001",
    "0.9999999", "id00000_img0", "zz",
]


def corrupted(text: str, rng: random.Random) -> str:
    """``text`` with one corruption: a bad cell (in one row or two), a row
    cut short or run long, a blank or repeated line, a renamed header
    column or two cells swapped."""
    header, *rows = text.splitlines()
    i = rng.randrange(len(rows))
    cells = rows[i].split(",")
    op = rng.choice(["cell", "cell", "cell", "short", "long", "blank", "dup", "header", "swap", "two"])
    if op == "cell":
        cells[rng.randrange(len(cells))] = rng.choice(BAD_CELLS)
    elif op == "two":
        for j in (i, rng.randrange(len(rows))):
            other = rows[j].split(",")
            other[rng.randrange(len(other))] = rng.choice(BAD_CELLS)
            rows[j] = ",".join(other)
        cells = rows[i].split(",")
    elif op == "short":
        cells = cells[: rng.randrange(len(cells))]
    elif op == "long":
        cells += ["extra"] * rng.randint(1, 3)
    elif op == "blank":
        rows.insert(i, "")
    elif op == "dup":
        rows.insert(rng.randrange(len(rows)), rows[i])
    elif op == "header":
        names = header.split(",")
        names[rng.randrange(len(names))] = rng.choice(["x", "distance", "image_id", "gender", "age"])
        header = ",".join(names)
    else:
        a, b = rng.sample(range(len(cells)), 2)
        cells[a], cells[b] = cells[b], cells[a]
    if op not in ("blank", "dup", "header", "two"):
        rows[i] = ",".join(cells)
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("case", range(80))
def test_corrupted_demo_gives_the_reference_error(tmp_path, monkeypatch, case):
    rng = random.Random(case)
    # blocks of a few rows put block boundaries anywhere in the files
    monkeypatch.setattr(favfa.data, "_BLOCK_ROWS", rng.choice([3, 50, 2048]))
    schema_path = DEMO / "schema.json"
    from favfa.schema import load_schema

    schema = load_schema(schema_path)
    images_path, pairs_path = tmp_path / "images.csv", tmp_path / "pairs.csv"
    images_text, pairs_text = (DEMO / "images.csv").read_text(), (DEMO / "pairs.csv").read_text()
    if case % 2:
        images_text = corrupted(images_text, rng)
    else:
        pairs_text = corrupted(pairs_text, rng)
    images_path.write_text(images_text, encoding="utf-8")
    pairs_path.write_text(pairs_text, encoding="utf-8")

    def columnar():
        images = consolidate_identity_attributes(load_images(images_path, schema), schema)
        pairs = load_pairs(pairs_path, images)
        covs = covariates_for_pairs(pairs, images, schema)
        return image_rows(images), pair_rows(pairs, images), covariate_rows(covs)

    def reference():
        images = reference_consolidate(reference_load_images(images_path, schema), schema)
        pairs = reference_load_pairs(pairs_path, images)
        return (
            images.rows,
            [p._replace(pair_id=None) for p in pairs],  # a frame keeps no pair ids
            reference_covariates(pairs, images, "mean", schema),
        )

    assert outcome(columnar) == outcome(reference)


def test_first_error_is_the_first_bad_row_and_attribute(tmp_path):
    from favfa.schema import load_schema

    schema = load_schema(DEMO / "schema.json")
    lines = (DEMO / "images.csv").read_text().splitlines()
    # row 40: a bad age after a bad soft score; row 41: a bad gender score
    row40, row41 = lines[40].split(","), lines[41].split(",")
    row40[8], row40[4] = "old", "x"
    row41[2] = "-0.5"
    lines[40], lines[41] = ",".join(row40), ",".join(row41)
    path = tmp_path / "images.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_images(path, schema)
    assert str(err.value) == f"image {row40[0]!r} soft score 'ethnicity': not a number: 'x'"
    assert outcome(load_images, path, schema) == outcome(reference_load_images, path, schema)


def consolidated(path, schema):
    return outcome(lambda: consolidate_identity_attributes(load_images(path, schema), schema))


def test_missing_identity_label_names_the_reference_image(tmp_path):
    header = ["image_id", "identity_id", "gender", "gender:Male", "gender:Female", "ethnicity",
              "age", "pose"]
    schema = AttributeSchema(tuple(a for a in SCHEMA.attributes if a.name in header))
    path = tmp_path / "images.csv"

    def check(rows, image_id, attribute):
        path.write_text(csv_text(header, rows))
        assert consolidated(path, schema) == (
            "raised", "MissingAttribute",
            f"image {image_id!r} has no value for attribute {attribute!r}",
        )
        want = outcome(lambda: reference_consolidate(reference_load_images(path, schema), schema))
        assert consolidated(path, schema) == want

    rows = [
        ["b9", "B", "", "0.5", "0.5", "Asian", "30", "5"],
        ["c1", "C", "Male", "", "", "", "30", "5"],
        ["b5", "B", "", "", "", "Asian", "30", "5"],
        ["b3", "B", "", "", "", "Asian", "30", "5"],
        ["c2", "C", "", "", "", "Asian", "30", "5"],
    ]
    # identity B comes first and has scores: its lexicographically first
    # image without gender is named, not its first in file order
    check(rows, "b3", "gender")
    rows[2][2] = rows[3][2] = "Male"
    # then identity C, hard labels only: its first image in file order
    # without gender, which comes before its first without ethnicity
    check(rows, "c2", "gender")
    rows[4][2] = "Female"
    check(rows, "c1", "ethnicity")
    rows[1][5] = "Asian"
    path.write_text(csv_text(header, rows))
    assert consolidated(path, schema)[0] == "ok"


def test_blocks_give_the_same_frame(tmp_path, monkeypatch):
    text = (DEMO / "images.csv").read_text()
    path = tmp_path / "images.csv"
    path.write_text(text.replace("\n", "\n\n", 7))  # blank lines inside the first blocks
    from favfa.schema import load_schema

    schema = load_schema(DEMO / "schema.json")
    pairs = (DEMO / "pairs.csv").read_text().splitlines()
    (tmp_path / "pairs.csv").write_text("\n".join(pairs + [pairs[20]]) + "\n")
    # blank lines are the C parser's to skip: it must not fall back on them
    for only in (parser_only, block_reader_only):
        with only():
            monkeypatch.setattr(favfa.data, "_BLOCK_ROWS", 2048)
            whole = consolidate_identity_attributes(load_images(path, schema), schema)
            monkeypatch.setattr(favfa.data, "_BLOCK_ROWS", 7)
            blocked = consolidate_identity_attributes(load_images(path, schema), schema)
        assert image_rows(blocked) == image_rows(whole)
        with route("cells" if only is block_reader_only else "parsed"):
            with pytest.raises(ParseError, match="duplicate pair_id"):
                load_pairs(tmp_path / "pairs.csv", blocked)
