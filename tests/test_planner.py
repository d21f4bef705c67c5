from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import image
from favfa.data import ImageTable
from favfa.errors import (
    InsufficientCandidates,
    InsufficientStyles,
    MissingAttribute,
    NotDivisible,
)
from favfa.metrics import diversity
from favfa.planner import (
    GenerationPlan,
    PlanEntry,
    StyleAssignment,
    assign_styles,
    loss_weights,
    plan_diversity_report,
    plan_to_jsonl,
    resample_epoch,
    sampling_weights,
    select_id_pool,
)
from favfa.synth import make_planner_pools

# --- weights ---


def aab_table():
    return ImageTable(
        [
            image("i1", "I1", ethnicity="African"),
            image("i2", "I2", ethnicity="African"),
            image("i3", "I3", ethnicity="Asian"),
        ]
    )


def test_weights_two_distinct_values(schema):
    table = ImageTable([image("i1", "I1", gender="Male"), image("i2", "I2", gender="Female")])
    weights = sampling_weights(table, schema, ["gender"])
    assert [e.probability for e in weights.entries] == [0.5, 0.5]


def test_weights_aab_exact(schema):
    weights = sampling_weights(aab_table(), schema, ["ethnicity"])
    assert [e.weight for e in weights.entries] == [0.5, 0.5, 1.0]
    assert [e.probability for e in weights.entries] == [0.25, 0.25, 0.5]


def test_weights_product_of_single_attribute_weights(schema):
    table = ImageTable(
        [
            image("i1", "I1", gender="Male", ethnicity="African"),
            image("i2", "I2", gender="Male", ethnicity="Asian"),
            image("i3", "I3", gender="Female", ethnicity="Asian"),
        ]
    )
    both = sampling_weights(table, schema, ["gender", "ethnicity"])
    gender_only = sampling_weights(table, schema, ["gender"])
    ethnicity_only = sampling_weights(table, schema, ["ethnicity"])
    for b, g, e in zip(both.entries, gender_only.entries, ethnicity_only.entries):
        assert b.weight == pytest.approx(g.weight * e.weight, rel=1e-12)


def test_weights_row_order_invariant(schema):
    table = aab_table()
    reordered = ImageTable(list(reversed(table.records)))
    a = {e.image_id: e.probability for e in sampling_weights(table, schema, ["ethnicity"]).entries}
    b = {e.image_id: e.probability for e in sampling_weights(reordered, schema, ["ethnicity"]).entries}
    assert a == b


def test_weights_probabilities_sum_to_one(schema):
    rng = np.random.default_rng(3)
    table = ImageTable(
        [
            image(f"i{k}", f"I{k}", gender="MF"[rng.integers(2)] == "M" and "Male" or "Female",
                  ethnicity=("Caucasian", "African", "Asian", "Indian")[rng.integers(4)],
                  age=float(rng.uniform(1, 80)), pose=float(rng.uniform(0, 70)))
            for k in range(57)
        ]
    )
    weights = sampling_weights(table, schema, ["gender", "ethnicity", "age", "pose"])
    assert math.fsum(e.probability for e in weights.entries) == pytest.approx(1.0, abs=1e-9)


def test_weights_missing_attribute(schema):
    table = ImageTable([image("i1", "I1")])
    record = table.records[0]
    del record.values["pose"]
    with pytest.raises(MissingAttribute):
        sampling_weights(table, schema, ["pose"])


def test_loss_weights_cases(schema):
    table = aab_table()
    assert loss_weights(table, schema, ["ethnicity"], ["i1", "i2", "i3"]) == pytest.approx(
        [0.25, 0.25, 0.5]
    )
    uniform = ImageTable([image(f"i{k}", f"I{k}") for k in range(4)])
    assert loss_weights(uniform, schema, ["gender"], [f"i{k}" for k in range(4)]) == pytest.approx(
        [0.25] * 4
    )
    assert loss_weights(table, schema, ["ethnicity"], ["i3"]) == [1.0]
    with pytest.raises(ValueError):
        loss_weights(table, schema, ["ethnicity"], [])


def test_resample_single_image(schema):
    table = ImageTable([image("only", "I")])
    weights = sampling_weights(table, schema, ["gender"])
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


def test_select_id_pool_minimal(schema):
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    assert len(pool) == 8
    segments = [
        (ids.by_id[i].values["gender"], ids.by_id[i].values["ethnicity"]) for i in pool
    ]
    assert len(set(segments)) == 8


def test_select_id_pool_not_divisible(schema):
    _, ids, _ = make_planner_pools(ids_per_cell=2)
    with pytest.raises(NotDivisible):
        select_id_pool(ids, make_planner_pools()[0], 10, seed=0)


def test_select_id_pool_insufficient_cell():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=2)
    depleted = ImageTable(
        [r for r in ids if not (r.values["gender"] == "Male" and r.values["ethnicity"] == "Asian")]
    )
    with pytest.raises(InsufficientCandidates) as err:
        select_id_pool(depleted, schema_p, 16, seed=0)
    assert err.value.cell == ("Male", "Asian")
    assert (err.value.have, err.value.need) == (0, 2)


def test_select_id_pool_segment_diversity_exactly_one():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=5)
    pool = select_id_pool(ids, schema_p, 24, seed=3)
    genders = Counter(ids.by_id[i].values["gender"] for i in pool)
    eths = Counter(ids.by_id[i].values["ethnicity"] for i in pool)
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


# --- style assignment ---

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")


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
    return ImageTable(records)


def test_assign_styles_balanced_fill():
    # 4 style cells, 8 samples: each cell used exactly twice per identity
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    styles = style_grid(schema_p, [(0, 0), (0, 1), (1, 0), (1, 1)], per_cell=3)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    plan = assign_styles(pool, ids, styles, schema_p, 8)
    for entry in plan.entries:
        cells = Counter((s.age_bin, s.pose_bin) for s in entry.styles)
        assert set(cells.values()) == {2}
        assert len(cells) == 4


def test_assign_styles_single_cell_forced():
    schema_p, ids, _ = make_planner_pools(ids_per_cell=1)
    styles = style_grid(schema_p, [(0, 0)], per_cell=8)
    pool = select_id_pool(ids, schema_p, 8, seed=0)
    plan = assign_styles(pool, ids, styles, schema_p, 8)
    for entry in plan.entries:
        assert len({s.style_image for s in entry.styles}) == 8
        assert {(s.age_bin, s.pose_bin) for s in entry.styles} == {(0, 0)}


def test_assign_styles_missing_segment():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=1, styles_per_segment=10)
    no_female_asian = ImageTable(
        [
            r
            for r in styles
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
    by_segment_cells: dict = {}
    for rec in styles:
        seg = (str(rec.values["gender"]), str(rec.values["ethnicity"]))
        cell = (
            schema_p["age"].bin_index(float(rec.values["age"])),
            schema_p["pose"].bin_index(float(rec.values["pose"])),
        )
        by_segment_cells.setdefault(seg, Counter())[cell] += 1
    for entry in plan.entries:
        id_rec = ids.by_id[entry.id_image]
        assert entry.segment == (id_rec.values["gender"], id_rec.values["ethnicity"])
        for s in entry.styles:
            donor = styles.by_id[s.style_image]
            assert (donor.values["gender"], donor.values["ethnicity"]) == entry.segment
        assert len({s.style_image for s in entry.styles}) == len(entry.styles)
        used = Counter((s.age_bin, s.pose_bin) for s in entry.styles)
        capacity = by_segment_cells[entry.segment]
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


def reference_jsonl(plan):
    """Every entry encoded on its own, with sorted keys."""
    return "".join(
        json.dumps(
            {
                "id_image": entry.id_image,
                "segment": dict(zip(plan.segment_attrs, entry.segment)),
                "styles": [
                    {"style_image": s.style_image, "age_bin": s.age_bin, "pose_bin": s.pose_bin}
                    for s in entry.styles
                ],
            },
            sort_keys=True,
        )
        + "\n"
        for entry in plan.entries
    )


def recount_diversity(plan, schema):
    """plan_diversity_report's age and pose figures, counted style by style."""
    out = {}
    for name, field in (("age", "age_bin"), ("pose", "pose_bin")):
        counts = Counter(getattr(s, field) for e in plan.entries for s in e.styles)
        n_bins = schema[name].n_bins
        out[name] = diversity([counts.get(i, 0) for i in range(n_bins)], n_bins)
    return out


def hand_built_plan():
    """Two entries of one segment with equal but distinct styles tuples, a
    third of that segment with other styles, and a fourth of another segment
    holding the first entry's very tuple."""
    shared = (StyleAssignment("s1", 0, 0), StyleAssignment("s2", 3, 1))
    equal = tuple(list(shared))
    assert equal == shared and equal is not shared
    other = (StyleAssignment("s3", 5, 4), StyleAssignment("s\u00e9", 5, 4))
    male_asian, female_african = ("Male", "Asian"), ("Female", "African")
    return GenerationPlan(
        (
            PlanEntry("id1", male_asian, shared),
            PlanEntry("id2", male_asian, equal),
            PlanEntry("id3", male_asian, other),
            PlanEntry('id"4', female_african, shared),
        ),
        samples_per_identity=2,
    )


def test_assign_styles_entries_of_a_segment_share_one_styles_tuple():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=30)
    plan = assign_styles(select_id_pool(ids, schema_p, 24, seed=1), ids, styles, schema_p, 6)
    by_segment = {}
    for entry in plan.entries:
        assert entry.styles is by_segment.setdefault(entry.segment, entry.styles)
    assert len(by_segment) == 8


def test_plan_to_jsonl_equals_per_entry_encoding():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=30)
    plan = assign_styles(select_id_pool(ids, schema_p, 24, seed=1), ids, styles, schema_p, 6)
    assert plan_to_jsonl(plan) == reference_jsonl(plan)
    hand = hand_built_plan()
    assert plan_to_jsonl(hand) == reference_jsonl(hand)


def test_plan_diversity_equals_per_style_recount():
    schema_p, ids, styles = make_planner_pools(ids_per_cell=3, styles_per_segment=30)
    plan = assign_styles(select_id_pool(ids, schema_p, 24, seed=1), ids, styles, schema_p, 7)
    report = plan_diversity_report(plan, schema_p)
    assert {k: report[k] for k in ("age", "pose")} == recount_diversity(plan, schema_p)
    hand = hand_built_plan()
    report = plan_diversity_report(hand, schema_p)
    assert {k: report[k] for k in ("age", "pose")} == recount_diversity(hand, schema_p)


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
    for entry in plan.entries:
        segment_styles = [
            r
            for r in styles
            if (r.values["gender"], r.values["ethnicity"]) == entry.segment
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
