from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ImageRow, image, image_rows, load_tables, outcome
from favfa.data import LevelCodes
from favfa.errors import (
    InsufficientCandidates,
    InsufficientStyles,
    MissingAttribute,
    NotDivisible,
    SchemaInvalid,
    UnresolvedImage,
    ValueOutOfRange,
)
from favfa.metrics import diversity
from favfa.planner import (
    GenerationPlan,
    StyleAssignment,
    _greedy_fill,
    assign_styles,
    loss_weights,
    plan_diversity_report,
    plan_to_jsonl,
    resample_epoch,
    sampling_weights,
    select_id_pool,
)
from favfa.schema import AttributeDef, AttributeSchema, Continuous, Scope
from favfa.synth import default_schema, make_planner_pools
from oracles import greedy_fill_stepwise, plan_rows, reference_jsonl, select_id_pool_reference

# --- weights ---


def table(rows, schema=None):
    """The image frame of image rows, read as the CLI reads them."""
    return load_tables(schema or default_schema(), rows)[0]


def aab_rows():
    return [
        image("i1", "I1", ethnicity="African"),
        image("i2", "I2", ethnicity="African"),
        image("i3", "I3", ethnicity="Asian"),
    ]


def aab_table():
    return table(aab_rows())


def test_weights_two_distinct_values(schema):
    images = table([image("i1", "I1", gender="Male"), image("i2", "I2", gender="Female")])
    weights = sampling_weights(images, schema, ["gender"])
    assert weights.probability.tolist() == [0.5, 0.5]


def test_weights_aab_exact(schema):
    weights = sampling_weights(aab_table(), schema, ["ethnicity"])
    assert weights.weight.tolist() == [0.5, 0.5, 1.0]
    assert weights.probability.tolist() == [0.25, 0.25, 0.5]


def test_weights_product_of_single_attribute_weights(schema):
    images = table(
        [
            image("i1", "I1", gender="Male", ethnicity="African"),
            image("i2", "I2", gender="Male", ethnicity="Asian"),
            image("i3", "I3", gender="Female", ethnicity="Asian"),
        ]
    )
    both = sampling_weights(images, schema, ["gender", "ethnicity"])
    gender_only = sampling_weights(images, schema, ["gender"])
    ethnicity_only = sampling_weights(images, schema, ["ethnicity"])
    for b, g, e in zip(both.weight, gender_only.weight, ethnicity_only.weight):
        assert b == pytest.approx(g * e, rel=1e-12)


def test_weights_row_order_invariant(schema):
    images = aab_table()
    reordered = table(list(reversed(aab_rows())))
    a = sampling_weights(images, schema, ["ethnicity"])
    b = sampling_weights(reordered, schema, ["ethnicity"])
    a, b = (dict(zip(w.ids, w.probability.tolist())) for w in (a, b))
    assert a == b


def test_weights_probabilities_sum_to_one(schema):
    rng = np.random.default_rng(3)
    images = table(
        [
            image(f"i{k}", f"I{k}", gender="MF"[rng.integers(2)] == "M" and "Male" or "Female",
                  ethnicity=("Caucasian", "African", "Asian", "Indian")[rng.integers(4)],
                  age=float(rng.uniform(1, 80)), pose=float(rng.uniform(0, 70)))
            for k in range(57)
        ]
    )
    weights = sampling_weights(images, schema, ["gender", "ethnicity", "age", "pose"])
    assert math.fsum(weights.probability.tolist()) == pytest.approx(1.0, abs=1e-9)


def test_weights_missing_attribute(schema):
    # an identity-scoped pose may be missing from an image that loads
    schema = AttributeSchema(tuple(
        replace(a, scope=Scope.IDENTITY) if a.name == "pose" else a for a in schema.attributes
    ))
    row = ImageRow("i1", "I1", {"gender": "Male", "ethnicity": "Asian", "age": 30.0}, {})
    images = table([row], schema)
    with pytest.raises(MissingAttribute):
        sampling_weights(images, schema, ["pose"])


def test_loss_weights_cases(schema):
    images = aab_table()
    assert loss_weights(images, schema, ["ethnicity"], ["i1", "i2", "i3"]) == pytest.approx(
        [0.25, 0.25, 0.5]
    )
    uniform = table([image(f"i{k}", f"I{k}") for k in range(4)])
    assert loss_weights(uniform, schema, ["gender"], [f"i{k}" for k in range(4)]) == pytest.approx(
        [0.25] * 4
    )
    assert loss_weights(images, schema, ["ethnicity"], ["i3"]) == [1.0]
    with pytest.raises(ValueError):
        loss_weights(images, schema, ["ethnicity"], [])


def test_resample_single_image(schema):
    weights = sampling_weights(table([image("only", "I")]), schema, ["gender"])
    assert resample_epoch(weights, 5, seed=1) == ["only"] * 5


def test_resample_deterministic(schema):
    weights = sampling_weights(aab_table(), schema, ["ethnicity"])
    assert resample_epoch(weights, 1000, seed=42) == resample_epoch(weights, 1000, seed=42)
    assert resample_epoch(weights, 1000, seed=42) != resample_epoch(weights, 1000, seed=43)


def test_resample_law_of_large_numbers(schema):
    weights = sampling_weights(aab_table(), schema, ["ethnicity"])
    draws = resample_epoch(weights, 100_000, seed=7)
    counts = Counter(draws)
    assert counts["i1"] / 100_000 == pytest.approx(0.25, abs=0.01)
    assert counts["i2"] / 100_000 == pytest.approx(0.25, abs=0.01)
    assert counts["i3"] / 100_000 == pytest.approx(0.5, abs=0.01)


# --- id pool ---

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")


def test_select_id_pool_minimal(schema):
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    assert len(pool) == 8
    by_id = {r.image_id: r for r in image_rows(ids)}
    segments = [(by_id[i].values["gender"], by_id[i].values["ethnicity"]) for i in pool]
    assert len(set(segments)) == 8


def test_select_id_pool_not_divisible(schema):
    _, ids, _ = make_planner_pools(ids_per_cell=2)
    with pytest.raises(NotDivisible):
        select_id_pool(ids, make_planner_pools()[0], 10, seed=0)


def test_select_id_pool_insufficient_cell():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=2)
    depleted = table(
        [
            r
            for r in image_rows(ids)
            if not (r.values["gender"] == "Male" and r.values["ethnicity"] == "Asian")
        ]
    )
    with pytest.raises(InsufficientCandidates) as err:
        select_id_pool(depleted, schema_p, 16, seed=0)
    assert err.value.cell == ("Male", "Asian")
    assert (err.value.have, err.value.need) == (0, 2)


def test_select_id_pool_segment_diversity_exactly_one():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=5)
    pool = select_id_pool(ids, schema_p, 24, seed=3)
    by_id = {r.image_id: r for r in image_rows(ids)}
    genders = Counter(by_id[i].values["gender"] for i in pool)
    eths = Counter(by_id[i].values["ethnicity"] for i in pool)
    assert diversity(list(genders.values()), 2) == 1.0
    assert diversity(list(eths.values()), 4) == 1.0


def test_select_id_pool_deterministic_and_canonical():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=6)
    a = select_id_pool(ids, schema_p, 16, seed=9)
    b = select_id_pool(ids, schema_p, 16, seed=9)
    assert a == b
    # canonical: cell-major, sorted ids inside each 2-id cell block
    for i in range(0, 16, 2):
        assert a[i] < a[i + 1]


#: Id characters: a small alphabet, so ids share prefixes, with non-ASCII
#: characters among them.
ID_ALPHABET = "aAbé_0Ωü€"


@st.composite
def uneven_id_tables(draw):
    """An id table whose (gender, ethnicity) cells hold uneven numbers of
    ids, listed in a shuffled order, with a pool size and a seed; a cell may
    hold fewer ids than the pool needs."""
    per_cell = draw(st.integers(1, 4))
    cells = [(g, e) for g in GENDERS for e in ETHNICITIES]
    sizes = draw(st.lists(st.integers(per_cell - 1, per_cell + 6),
                          min_size=len(cells), max_size=len(cells)))
    members = [cell for cell, size in zip(cells, sizes) for _ in range(size)]
    names = draw(st.lists(st.text(ID_ALPHABET, min_size=1, max_size=6),
                          min_size=len(members), max_size=len(members), unique=True))
    order = draw(st.permutations(range(len(members))))
    rows = [image(names[i], names[i], *members[i]) for i in order]
    return table(rows), per_cell * len(cells), draw(st.integers(0, 2**32 - 1))


@given(uneven_id_tables())
@settings(max_examples=60, deadline=None)
def test_select_id_pool_equals_reference(case):
    ids, n_identities, seed = case
    schema = default_schema()
    assert outcome(select_id_pool, ids, schema, n_identities, seed) == outcome(
        select_id_pool_reference, ids, schema, n_identities, seed
    )


# --- style assignment ---


def style_grid(schema, cells, per_cell):
    """Style table with exactly per_cell donors in each given (age, pose) bin
    cell, replicated for every demographic segment."""
    records = []
    for gender in GENDERS:
        for ethnicity in ETHNICITIES:
            for ai, pi in cells:
                age_lo = schema["age"].bins[ai][0]
                pose_lo = schema["pose"].bins[pi][0]
                for k in range(per_cell):
                    image_id = f"sty_{gender}_{ethnicity}_{ai}_{pi}_{k:03d}"
                    records.append(
                        image(image_id, image_id, gender, ethnicity,
                              age=age_lo + 0.5, pose=pose_lo + 0.5)
                    )
    return table(records, schema)


def test_assign_styles_balanced_fill():
    # 4 style cells, 8 samples: each cell used exactly twice per identity
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    styles = style_grid(schema_p, [(0, 0), (0, 1), (1, 0), (1, 1)], per_cell=3)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    plan = assign_styles(pool, ids, styles, schema_p, 8)
    for _, _, entry_styles in plan_rows(plan):
        cells = Counter((s.age_bin, s.pose_bin) for s in entry_styles)
        assert set(cells.values()) == {2}
        assert len(cells) == 4


def test_assign_styles_single_cell_forced():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    styles = style_grid(schema_p, [(0, 0)], per_cell=8)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    plan = assign_styles(pool, ids, styles, schema_p, 8)
    for _, _, entry_styles in plan_rows(plan):
        assert len({s.style_image for s in entry_styles}) == 8
        assert {(s.age_bin, s.pose_bin) for s in entry_styles} == {(0, 0)}


def test_assign_styles_missing_segment():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=1, styles_per_segment=10)
    no_female_asian = table(
        [
            r
            for r in image_rows(styles)
            if not (r.values["gender"] == "Female" and r.values["ethnicity"] == "Asian")
        ]
    )
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    with pytest.raises(InsufficientStyles) as err:
        assign_styles(pool, ids, no_female_asian, schema_p, 4)
    assert err.value.segment == ("Female", "Asian")


def test_assign_styles_guarantees():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=60, seed=5)
    pool = select_id_pool(ids, schema_p, 24, seed=2)
    plan = assign_styles(pool, ids, styles, schema_p, 12)
    id_rows = {r.image_id: r for r in image_rows(ids)}
    style_rows = {r.image_id: r for r in image_rows(styles)}
    by_segment_cells: dict = {}
    for rec in image_rows(styles):
        seg = (str(rec.values["gender"]), str(rec.values["ethnicity"]))
        cell = (
            schema_p["age"].bin_index(float(rec.values["age"])),
            schema_p["pose"].bin_index(float(rec.values["pose"])),
        )
        by_segment_cells.setdefault(seg, Counter())[cell] += 1
    for id_image, segment, entry_styles in plan_rows(plan):
        id_rec = id_rows[id_image]
        assert segment == (id_rec.values["gender"], id_rec.values["ethnicity"])
        for s in entry_styles:
            donor = style_rows[s.style_image]
            assert (donor.values["gender"], donor.values["ethnicity"]) == segment
        assert len({s.style_image for s in entry_styles}) == len(entry_styles)
        used = Counter((s.age_bin, s.pose_bin) for s in entry_styles)
        capacity = by_segment_cells[segment]
        open_counts = [used.get(c, 0) for c in capacity if used.get(c, 0) < capacity[c]]
        if open_counts:
            assert max(open_counts) - min(open_counts) <= 1


def test_plan_outputs_deterministic():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=2, styles_per_segment=30)
    a = assign_styles(select_id_pool(ids, schema_p, 16, seed=4), ids, styles, schema_p, 6)
    b = assign_styles(select_id_pool(ids, schema_p, 16, seed=4), ids, styles, schema_p, 6)
    assert plan_to_jsonl(a) == plan_to_jsonl(b)
    first = json.loads(plan_to_jsonl(a).splitlines()[0])
    assert set(first) == {"id_image", "segment", "styles"}


def recount_diversity(plan, schema):
    """plan_diversity_report's figures, counted identity by identity and
    style by style."""
    out = {}
    for i, name in enumerate(("gender", "ethnicity")):
        counts = Counter(segment[i] for _, segment, _ in plan_rows(plan))
        levels = schema[name].levels
        out[name] = diversity([counts.get(l, 0) for l in levels], len(levels))
    for name, field in (("age", "age_bin"), ("pose", "pose_bin")):
        counts = Counter(getattr(s, field) for _, _, styles in plan_rows(plan) for s in styles)
        n_bins = schema[name].n_bins
        out[name] = diversity([counts.get(i, 0) for i in range(n_bins)], n_bins)
    return out


def hand_built_plan():
    """Two groups of one segment with equal but distinct styles tuples, a
    third of that segment with other styles, a fourth of another segment
    holding the first group's very tuple, and a fifth no identity is in."""
    shared = (StyleAssignment("s1", 0, 0), StyleAssignment("s2", 3, 1))
    equal = tuple(list(shared))
    assert equal == shared and equal is not shared
    other = (StyleAssignment("s3", 5, 4), StyleAssignment("s\u00e9", 5, 4))
    male_asian, female_african = ("Male", "Asian"), ("Female", "African")
    return GenerationPlan(
        ("id1", "id2", "id3", 'id"4', "s\u00e9", "id6"),
        np.array([0, 1, 2, 3, 3, 0]),
        (
            (male_asian, shared),
            (male_asian, equal),
            (male_asian, other),
            (female_african, shared),
            (("Female", "Indian"), other),
        ),
    )


def test_assign_styles_entries_of_a_segment_share_one_styles_tuple():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=30)
    plan = assign_styles(select_id_pool(ids, schema_p, 24, seed=1), ids, styles, schema_p, 6)
    segments = [segment for segment, _ in plan.groups]
    assert segments == [(g, e) for g in GENDERS for e in ETHNICITIES]
    assert np.bincount(plan.group).tolist() == [3] * 8
    id_rows = {r.image_id: r for r in image_rows(ids)}
    for id_image, segment, _ in plan_rows(plan):
        assert segment == (id_rows[id_image].values["gender"], id_rows[id_image].values["ethnicity"])


def test_plan_to_jsonl_equals_per_entry_encoding():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=30)
    plan = assign_styles(select_id_pool(ids, schema_p, 24, seed=1), ids, styles, schema_p, 6)
    assert plan_to_jsonl(plan) == reference_jsonl(plan)
    hand = hand_built_plan()
    assert plan_to_jsonl(hand) == reference_jsonl(hand)


def test_plan_diversity_equals_per_style_recount():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=30)
    plan = assign_styles(select_id_pool(ids, schema_p, 24, seed=1), ids, styles, schema_p, 7)
    assert plan_diversity_report(plan, schema_p) == recount_diversity(plan, schema_p)
    hand = hand_built_plan()
    assert plan_diversity_report(hand, schema_p) == recount_diversity(hand, schema_p)


def test_plan_diversity_cases():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=2, styles_per_segment=60)
    pool = select_id_pool(ids, schema_p, 16, seed=0)
    plan = assign_styles(pool, ids, styles, schema_p, 10)
    report = plan_diversity_report(plan, schema_p)
    assert report["gender"] == 1.0
    assert report["ethnicity"] == 1.0
    assert 0.0 < report["age"] <= 1.0
    assert 0.0 < report["pose"] <= 1.0

    one_cell = style_grid(schema_p, [(0, 0)], per_cell=4)
    forced = assign_styles(pool, ids, one_cell, schema_p, 4)
    report = plan_diversity_report(forced, schema_p)
    assert report["age"] == 0.0
    assert report["pose"] == 0.0


def test_greedy_beats_random_baseline():
    # full-coverage regime (samples >= cells): the greedy fill covers the full
    # symmetric grid, so its marginal bin distributions dominate random picks
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    full_grid = [
        (a, p)
        for a in range(schema_p["age"].n_bins)
        for p in range(schema_p["pose"].n_bins)
    ]
    styles = style_grid(schema_p, full_grid, per_cell=2)
    pool = select_id_pool(ids, schema_p, 8, seed=1)
    n_cells = len(full_grid)
    plan = assign_styles(pool, ids, styles, schema_p, n_cells)
    greedy_report = plan_diversity_report(plan, schema_p)

    rng = np.random.default_rng(99)
    age_counts: Counter = Counter()
    pose_counts: Counter = Counter()
    for _, segment, _ in plan_rows(plan):
        segment_styles = [
            r
            for r in image_rows(styles)
            if (r.values["gender"], r.values["ethnicity"]) == segment
        ]
        picks = rng.choice(len(segment_styles), size=n_cells, replace=False)
        for k in picks:
            rec = segment_styles[k]
            age_counts[schema_p["age"].bin_index(float(rec.values["age"]))] += 1
            pose_counts[schema_p["pose"].bin_index(float(rec.values["pose"]))] += 1
    random_age = diversity(
        [age_counts.get(i, 0) for i in range(schema_p["age"].n_bins)], schema_p["age"].n_bins
    )
    random_pose = diversity(
        [pose_counts.get(i, 0) for i in range(schema_p["pose"].n_bins)], schema_p["pose"].n_bins
    )
    assert greedy_report["age"] >= random_age
    assert greedy_report["pose"] >= random_pose


@st.composite
def cell_maps(draw):
    """Style cells of uneven sizes, each a sorted list of distinct ids, and
    a k from 1 up to the number of candidates."""
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                         min_size=1, max_size=8, unique=True))
    sizes = draw(st.lists(st.integers(1, 6), min_size=len(keys), max_size=len(keys)))
    cells = {key: sorted(f"s{key[0]}{key[1]}_{j}" for j in range(size))
             for key, size in zip(keys, sizes)}
    return cells, draw(st.integers(1, sum(sizes)))


@given(cell_maps())
@settings(max_examples=200, deadline=None)
def test_greedy_fill_equals_stepwise_oracle(case):
    cells, k = case
    assert _greedy_fill(cells, k) == greedy_fill_stepwise(cells, k)


# --- unknown planned ids ---


@pytest.mark.parametrize("damaged_styles", [False, True])
@pytest.mark.parametrize("places", [(0,), (4,), (8,), (2, 6)])
def test_assign_styles_unknown_id_raises_first(places, damaged_styles):
    # places index the 9- or 10-id list the unknown ids are put into
    schema_p, ids, styles = make_planner_pools(ids_per_cell=1, styles_per_segment=6)
    plan_ids = select_id_pool(ids, schema_p, 8, seed=0)
    unknown = ["ghost", "phantom"]
    for place, name in zip(places, unknown):
        plan_ids.insert(place, name)
    if damaged_styles:
        styles = with_defects(styles, [(0, ("gender", None)), (3, ("age", -5.0))])
    with pytest.raises(UnresolvedImage, match="^unknown image_id 'ghost'$"):
        assign_styles(plan_ids, ids, styles, schema_p, 4)


# --- errors read off masks against an image-by-image reference ---

#: Defects of one style image: a missing value, or one no bin holds.
STYLE_DEFECTS = (
    ("gender", None), ("ethnicity", None), ("age", None), ("pose", None),
    ("age", -5.0), ("pose", -1.0),
)


def with_defects(frame, defects):
    """``frame`` with each ``(row, (name, value))`` applied: a categorical
    value removed, or a continuous one set (NaN for None)."""
    categorical = {k: c.codes.copy() for k, c in frame.categorical.items()}
    continuous = {k: v.copy() for k, v in frame.continuous.items()}
    for row, (name, value) in defects:
        if name in categorical:
            categorical[name][row] = -1
        else:
            continuous[name][row] = math.nan if value is None else value
    return replace(
        frame,
        categorical={k: LevelCodes(c, frame.categorical[k].levels) for k, c in categorical.items()},
        continuous=continuous,
    )


def reference_first_error(frame, schema, names, binned=()):
    """The error an image-by-image reader meets first: per image, its first
    missing attribute of ``names``, then the first of ``binned`` no bin
    holds."""
    for row, image_id in enumerate(frame.ids):
        for name in names:
            attr = schema[name]
            held = frame.codes(attr).codes[row] >= 0 if attr.is_categorical else (
                not math.isnan(frame.floats(name)[row]))
            if not held:
                return "raised", "MissingAttribute", str(MissingAttribute(image_id, name))
        for name in binned:
            try:
                schema[name].bin_index(float(frame.floats(name)[row]))
            except ValueOutOfRange as exc:
                return "raised", type(exc).__name__, str(exc)
    return None


def test_assign_styles_first_error_equals_per_image_reference():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=1, styles_per_segment=6)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    n = len(styles)
    for first, second in permutations(STYLE_DEFECTS, 2):
        for row in (0, 5, n - 2):
            for placed in ([(row, first), (row, second)], [(row, first), (row + 1, second)]):
                damaged = with_defects(styles, placed)
                want = reference_first_error(
                    damaged, schema_p, ("gender", "ethnicity", "age", "pose"), ("age", "pose")
                )
                assert want is not None
                assert outcome(assign_styles, pool, ids, damaged, schema_p, 4) == want, placed


def test_select_id_pool_first_error_equals_per_image_reference():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=3)
    n = len(ids)
    for first, second in permutations(STYLE_DEFECTS[:2], 2):
        for row in (0, 7, n - 2):
            for placed in ([(row, first), (row, second)], [(row, first), (row + 1, second)]):
                damaged = with_defects(ids, placed)
                want = reference_first_error(damaged, schema_p, ("gender", "ethnicity"))
                assert want is not None
                assert outcome(select_id_pool, damaged, schema_p, 8, 0) == want, placed


@pytest.mark.parametrize(
    "segment_attrs",
    # (segment attribute to replace, its new kind; None drops it)
    [("gender", Continuous("score")), ("ethnicity", None), ("ethnicity", Continuous("score"))],
)
def test_segment_attributes_must_be_categorical(segment_attrs):
    name, kind = segment_attrs
    schema_p, ids, styles = make_planner_pools(ids_per_cell=1, styles_per_segment=6)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    attributes = [
        a if a.name != name else AttributeDef(name, kind, a.scope)
        for a in schema_p.attributes
        if a.name != name or kind is not None
    ]
    schema = AttributeSchema(tuple(attributes))
    message = f"segment attribute {name!r} must be categorical"
    with pytest.raises(SchemaInvalid, match=message):
        assign_styles(pool, ids, styles, schema, 4)
    with pytest.raises(SchemaInvalid, match=message):
        select_id_pool(ids, schema, 8, 0)


@pytest.mark.parametrize("attrs", [["gender", "gender"], ["age", "gender", "age"]])
def test_weights_repeated_attribute(schema, attrs):
    images = aab_table()
    with pytest.raises(SchemaInvalid, match="attrs repeats an attribute"):
        sampling_weights(images, schema, attrs)
    with pytest.raises(SchemaInvalid, match="attrs repeats an attribute"):
        loss_weights(images, schema, attrs, ["i1"])
