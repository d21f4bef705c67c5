from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import image, pair
from favfa.data import (
    CROSS_LEVEL,
    ImageRecord,
    ImageTable,
    consolidate_identity_attributes,
    covariates_for_pairs,
    derive_pair_covariates,
    load_images,
    load_pairs,
)
from favfa.errors import MissingAttribute, ParseError, UnresolvedImage

IMAGES_CSV = """image_id,identity_id,gender,ethnicity,age,pose
x1,I1,Male,African,30,12
x2,I1,Male,African,40,4
x3,I2,Female,Asian,22,8
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_images_happy_path(tmp_path, schema):
    table = load_images(write(tmp_path, "images.csv", IMAGES_CSV), schema)
    assert len(table) == 3
    assert table.by_id["x1"].values["age"] == 30.0
    assert table.by_identity["I1"][1].image_id == "x2"


def test_load_images_missing_value(tmp_path, schema):
    text = IMAGES_CSV.replace("x3,I2,Female,Asian,22,8", "x3,I2,Female,Asian,,8")
    with pytest.raises(MissingAttribute) as err:
        load_images(write(tmp_path, "images.csv", text), schema)
    assert err.value.image_id == "x3"
    assert err.value.attribute == "age"


def test_load_images_soft_scores(tmp_path, schema):
    text = (
        "image_id,identity_id,gender:Male,gender:Female,ethnicity,age,pose\n"
        "x1,I1,0.7,0.3,African,30,12\n"
    )
    table = load_images(write(tmp_path, "images.csv", text), schema)
    assert table.by_id["x1"].soft_scores["gender"] == (0.7, 0.3)
    assert "gender" not in table.by_id["x1"].values  # identity scope defers


def test_load_images_bad_soft_sum(tmp_path, schema):
    text = (
        "image_id,identity_id,gender:Male,gender:Female,ethnicity,age,pose\n"
        "x1,I1,0.7,0.4,African,30,12\n"
    )
    with pytest.raises(ParseError):
        load_images(write(tmp_path, "images.csv", text), schema)


def test_load_images_unknown_level(tmp_path, schema):
    text = IMAGES_CSV.replace("Female,Asian", "Female,Martian")
    with pytest.raises(ParseError):
        load_images(write(tmp_path, "images.csv", text), schema)


def test_pose_from_components(tmp_path, schema):
    text = (
        "image_id,identity_id,gender,ethnicity,age,pitch,yaw,roll\n"
        "x1,I1,Male,African,30,3,4,12\n"
    )
    table = load_images(write(tmp_path, "images.csv", text), schema)
    assert table.by_id["x1"].values["pose"] == pytest.approx(13.0)


def test_load_pairs_and_errors(tmp_path, schema):
    images = load_images(write(tmp_path, "images.csv", IMAGES_CSV), schema)
    pairs = load_pairs(
        write(
            tmp_path,
            "pairs.csv",
            "pair_id,image_a,image_b,ground_truth,distance,predicted\n"
            "p1,x1,x2,same,0.25,\n"
            "p2,x1,x3,different,0.8,same\n",
        ),
        images,
    )
    assert len(pairs) == 2
    assert pairs[0].predicted is None
    assert pairs[1].predicted is not None

    with pytest.raises(UnresolvedImage):
        load_pairs(
            write(tmp_path, "bad.csv",
                  "pair_id,image_a,image_b,ground_truth,distance\np,x1,zz,same,0.2\n"),
            images,
        )
    with pytest.raises(ParseError):
        load_pairs(
            write(tmp_path, "neg.csv",
                  "pair_id,image_a,image_b,ground_truth,distance\np,x1,x2,same,-0.2\n"),
            images,
        )
    with pytest.raises(ParseError, match="predicted must be 'same' or 'different'"):
        load_pairs(
            write(tmp_path, "pred.csv",
                  "pair_id,image_a,image_b,ground_truth,distance,predicted\n"
                  "p,x1,x2,same,0.2,maybe\n"),
            images,
        )


# --- consolidation ---


def test_consolidation_tie_breaks_to_first_level(schema):
    # hand-average: (0.6+0.4)/2 = 0.5 for both levels, tie -> Male
    table = ImageTable(
        [
            image("a1", "A", soft_scores={"gender": (0.6, 0.4)}),
            image("a2", "A", soft_scores={"gender": (0.4, 0.6)}),
        ]
    )
    out = consolidate_identity_attributes(table, schema)
    assert all(r.values["gender"] == "Male" for r in out)


def test_consolidation_single_image_argmax(schema):
    table = ImageTable(
        [image("a1", "A", soft_scores={"ethnicity": (0.1, 0.7, 0.1, 0.1)})]
    )
    out = consolidate_identity_attributes(table, schema)
    assert out.by_id["a1"].values["ethnicity"] == "African"


def test_consolidation_hard_values_unchanged(schema):
    table = ImageTable([image("a1", "A", "Female", "Indian"), image("a2", "A", "Female", "Indian")])
    out = consolidate_identity_attributes(table, schema)
    assert [r.values for r in out] == [r.values for r in table]


def test_consolidation_missing_everywhere(schema):
    rec = ImageRecord("a1", "A", {"ethnicity": "Asian", "age": 3.0, "pose": 1.0})
    with pytest.raises(MissingAttribute):
        consolidate_identity_attributes(ImageTable([rec]), schema)


@st.composite
def identity_soft_tables(draw):
    n_images = draw(st.integers(min_value=1, max_value=6))
    records = []
    for i in range(n_images):
        raw = draw(
            st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=2, max_size=2)
        )
        total = sum(raw)
        scores = (raw[0] / total, 1.0 - raw[0] / total)
        records.append(image(f"img{i}", "A", soft_scores={"gender": scores}))
    return records


@given(identity_soft_tables(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_consolidation_idempotent_and_order_free(records, rnd):
    schema = _build_schema()
    once = consolidate_identity_attributes(ImageTable(records), schema)
    twice = consolidate_identity_attributes(once, schema)
    assert [r.values for r in once] == [r.values for r in twice]

    shuffled = list(records)
    rnd.shuffle(shuffled)
    other = consolidate_identity_attributes(ImageTable(shuffled), schema)
    by_id = {r.image_id: r.values for r in other}
    for rec in once:
        assert by_id[rec.image_id] == rec.values


def _build_schema():
    from favfa.schema import (
        AttributeDef,
        AttributeSchema,
        Categorical,
        Continuous,
        DEFAULT_AGE_BINS,
        DEFAULT_POSE_BINS,
        Scope,
    )

    return AttributeSchema(
        (
            AttributeDef("gender", Categorical(("Male", "Female"), "Male"), Scope.IDENTITY),
            AttributeDef(
                "ethnicity",
                Categorical(("Caucasian", "African", "Asian", "Indian"), "Caucasian"),
                Scope.IDENTITY,
            ),
            AttributeDef("age", Continuous("years"), Scope.IMAGE, DEFAULT_AGE_BINS),
            AttributeDef("pose", Continuous("degrees"), Scope.IMAGE, DEFAULT_POSE_BINS),
        )
    )


# --- pair covariates ---


def test_covariates_shared_and_mean(schema, tiny_tables):
    images, pairs = tiny_tables
    cov = derive_pair_covariates(pairs[0], images, schema)
    assert cov.categorical == {"gender": "Male", "ethnicity": "African"}
    assert cov.continuous["age"] == pytest.approx(35.0)
    assert cov.continuous["pose"] == pytest.approx(8.0)  # (12 + 4) / 2


def test_covariates_cross_sentinel(schema, tiny_tables):
    images, pairs = tiny_tables
    cov = derive_pair_covariates(pairs[2], images, schema)
    assert cov.categorical["gender"] == CROSS_LEVEL
    assert cov.categorical["ethnicity"] == CROSS_LEVEL


def test_covariates_absdiff_switch(schema, tiny_tables):
    images, pairs = tiny_tables
    cov = derive_pair_covariates(pairs[0], images, schema, aggregate="absdiff")
    assert cov.continuous["age"] == pytest.approx(10.0)
    assert cov.continuous["pose"] == pytest.approx(8.0)


@given(
    st.sampled_from(["Male", "Female"]),
    st.sampled_from(["Male", "Female"]),
    st.floats(0.0, 80.0, allow_nan=False),
    st.floats(0.0, 80.0, allow_nan=False),
    st.sampled_from(["mean", "absdiff"]),
)
@settings(max_examples=60)
def test_covariates_symmetric(ga, gb, aa, ab, aggregate):
    schema = _build_schema()
    images = ImageTable(
        [
            image("a", "A", ga, "Asian", aa, 5.0),
            image("b", "B", gb, "Asian", ab, 7.0),
        ]
    )
    fwd = derive_pair_covariates(pair("p", "a", "b", False, 0.5), images, schema, aggregate)
    rev = derive_pair_covariates(pair("p", "b", "a", False, 0.5), images, schema, aggregate)
    assert fwd.categorical == rev.categorical
    assert fwd.continuous == rev.continuous


def test_every_attribute_covered(schema, tiny_tables):
    images, pairs = tiny_tables
    covs = covariates_for_pairs(pairs, images, schema)
    for cov in covs.values():
        assert set(cov.categorical) | set(cov.continuous) == set(schema.names)
