"""Synthetic verification datasets for demos, tests and experiments.

Test-support code beside ``oracles.py``, not part of the ``favfa`` package:
the tests import it from this directory, and ``scripts/`` put this
directory on ``sys.path``.

The generator controls match probabilities directly: every pair draws its
distance below or above a nominal decision point according to its target
rate, so the optimized threshold lands next to that point and group-level
rates land next to their targets. A per-level false-match handicap can be
injected to produce a known, recoverable bias.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from favfa.data import NO_PREDICTION, ImageFrame, LevelCodes, PairFrame
from favfa.schema import (
    DEFAULT_AGE_BINS,
    DEFAULT_POSE_BINS,
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
)
from favfa.util import canonical_json

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")


def default_schema() -> AttributeSchema:
    """The four-attribute schema used by the demos: identity-level gender and
    ethnicity, image-level age and pose, default bins."""
    return AttributeSchema(
        (
            AttributeDef("gender", Categorical(GENDERS, "Male"), Scope.IDENTITY),
            AttributeDef("ethnicity", Categorical(ETHNICITIES, "Caucasian"), Scope.IDENTITY),
            AttributeDef("age", Continuous("years"), Scope.IMAGE, DEFAULT_AGE_BINS),
            AttributeDef("pose", Continuous("degrees"), Scope.IMAGE, DEFAULT_POSE_BINS),
        )
    )


def schema_to_dict(schema: AttributeSchema) -> dict:
    """Inverse of :func:`favfa.schema.load_schema`, for writing schema files."""
    attrs = []
    for a in schema.attributes:
        entry: dict = {"name": a.name, "scope": a.scope.value}
        if a.is_categorical:
            entry["kind"] = "categorical"
            entry["levels"] = list(a.levels)
            entry["reference"] = a.reference
        else:
            entry["kind"] = "continuous"
            entry["unit"] = a.kind.unit
            if a.bins is not None:
                entry["bins"] = [
                    [lo, None if math.isinf(hi) else hi] for lo, hi in a.bins
                ]
        attrs.append(entry)
    return {"attributes": attrs}


def _image_frame(
    schema: AttributeSchema,
    ids: list[str],
    identity_ids: list[str],
    values: dict[str, list],
) -> ImageFrame:
    """The columns of images given as ids, identity ids and, per schema
    attribute, one level or float per image."""
    identities = {k: i for i, k in enumerate(dict.fromkeys(identity_ids))}
    return ImageFrame(
        tuple(ids),
        np.array([identities[k] for k in identity_ids], dtype=np.intp),
        tuple(identities),
        {
            a.name: LevelCodes(
                np.array([a.levels.index(v) for v in values[a.name]], dtype=np.intp), a.levels
            )
            for a in schema.categorical()
        },
        {},
        {a.name: np.array(values[a.name], dtype=float) for a in schema.continuous()},
        dict(zip(ids, range(len(ids)))),
    )


@dataclass
class SyntheticDataset:
    schema: AttributeSchema
    images: ImageFrame
    pairs: PairFrame


def make_verification_dataset(
    n_identities: int = 200,
    images_per_identity: int = 4,
    n_positive: int = 1000,
    n_negative: int = 1000,
    seed: int = 0,
    true_match_rate: float = 0.9,
    false_match_rate: float = 0.05,
    fmr_bias: dict[str, float] | None = None,
    within_segment_negatives: float = 0.75,
) -> SyntheticDataset:
    """Random identities, images and pairs with controlled match rates.

    ``fmr_bias`` adds a handicap to the false-match probability of negative
    pairs whose two sides share the given ethnicity level. A
    ``within_segment_negatives`` share of negative pairs is drawn inside one
    demographic segment (hard negatives, as verification protocols do), the
    rest across segments. Distances are uniform on (0, 0.5) for in-threshold
    draws and (0.5, 1) otherwise.
    """
    rng = np.random.default_rng(seed)
    fmr_bias = fmr_bias or {}
    tau = 0.5
    schema = default_schema()

    identity_attrs = {}
    by_segment: dict[tuple[str, str], list[str]] = {}
    ids: list[str] = []
    identity_ids: list[str] = []
    values: dict[str, list] = {name: [] for name in schema.names}
    for i in range(n_identities):
        identity = f"id{i:05d}"
        gender = GENDERS[rng.integers(len(GENDERS))]
        ethnicity = ETHNICITIES[rng.integers(len(ETHNICITIES))]
        identity_attrs[identity] = (gender, ethnicity)
        by_segment.setdefault((gender, ethnicity), []).append(identity)
        for j in range(images_per_identity):
            ids.append(f"{identity}_img{j}")
            identity_ids.append(identity)
            values["gender"].append(gender)
            values["ethnicity"].append(ethnicity)
            values["age"].append(float(rng.uniform(18.0, 69.0)))
            values["pose"].append(float(min(abs(rng.normal(18.0, 12.0)), 85.0)))
    images = _image_frame(schema, ids, identity_ids, values)
    identities = sorted(identity_attrs)

    def draw_distance(match_prob: float) -> float:
        if rng.random() < match_prob:
            return tau * (0.02 + 0.96 * rng.random())
        return tau + (1.0 - tau) * (0.02 + 0.96 * rng.random())

    rows_a: list[int] = []
    rows_b: list[int] = []
    distances: list[float] = []
    for _ in range(n_positive):
        identity = identities[rng.integers(n_identities)]
        a, b = rng.choice(images_per_identity, size=2, replace=False)
        rows_a.append(images.index[f"{identity}_img{a}"])
        rows_b.append(images.index[f"{identity}_img{b}"])
        distances.append(draw_distance(true_match_rate))
    for _ in range(n_negative):
        id_a = identities[rng.integers(n_identities)]
        segment_pool = by_segment[identity_attrs[id_a]]
        if len(segment_pool) > 1 and rng.random() < within_segment_negatives:
            id_b = id_a
            while id_b == id_a:
                id_b = segment_pool[rng.integers(len(segment_pool))]
        else:
            id_b = id_a
            while id_b == id_a:
                id_b = identities[rng.integers(n_identities)]
        rate = false_match_rate
        eth_a, eth_b = identity_attrs[id_a][1], identity_attrs[id_b][1]
        if eth_a == eth_b and eth_a in fmr_bias:
            rate += fmr_bias[eth_a]
        rows_a.append(images.index[f"{id_a}_img{rng.integers(images_per_identity)}"])
        rows_b.append(images.index[f"{id_b}_img{rng.integers(images_per_identity)}"])
        distances.append(draw_distance(rate))

    n_pairs = n_positive + n_negative
    pairs = PairFrame(
        image_a=np.array(rows_a, dtype=np.intp),
        image_b=np.array(rows_b, dtype=np.intp),
        is_pos=np.arange(n_pairs) < n_positive,
        distance=np.array(distances, dtype=float),
        predicted=np.full(n_pairs, NO_PREDICTION, dtype=np.int8),
    )
    return SyntheticDataset(schema=schema, images=images, pairs=pairs)


def make_planner_pools(
    ids_per_cell: int = 4,
    styles_per_segment: int = 40,
    seed: int = 0,
) -> tuple[AttributeSchema, ImageFrame, ImageFrame]:
    """Candidate id and style tables with every demographic cell populated
    and style cells spread over the age and pose bins. Every image is an
    identity of its own."""
    rng = np.random.default_rng(seed)
    schema = default_schema()
    age_bins = schema["age"].bins
    pose_bins = schema["pose"].bins

    def bin_sample(bins, index) -> float:
        lo, hi = bins[index % len(bins)]
        if math.isinf(hi):
            hi = lo + 10.0
        return float(lo + (hi - lo) * rng.random())

    id_ids: list[str] = []
    style_ids: list[str] = []
    id_values: dict[str, list] = {name: [] for name in schema.names}
    style_values: dict[str, list] = {name: [] for name in schema.names}

    def add(ids, values, image_id, gender, ethnicity, age_index, pose_index) -> None:
        ids.append(image_id)
        values["gender"].append(gender)
        values["ethnicity"].append(ethnicity)
        values["age"].append(bin_sample(age_bins, age_index))
        values["pose"].append(bin_sample(pose_bins, pose_index))

    serial = 0
    for gender in GENDERS:
        for ethnicity in ETHNICITIES:
            for _ in range(ids_per_cell):
                add(id_ids, id_values, f"seed{serial:05d}", gender, ethnicity, serial, serial)
                serial += 1
            for s in range(styles_per_segment):
                image_id = f"style_{gender}_{ethnicity}_{s:05d}"
                add(style_ids, style_values, image_id, gender, ethnicity, s, s // len(age_bins))
    return (
        schema,
        _image_frame(schema, id_ids, id_ids, id_values),
        _image_frame(schema, style_ids, style_ids, style_values),
    )


def write_dataset(dataset: SyntheticDataset, out_dir: str | Path) -> None:
    """Write schema.json, images.csv and pairs.csv for a synthetic dataset.

    The identity attributes are emitted as per-level score columns whose
    identity-average argmax reproduces the assigned level, exercising the
    consolidation path end to end.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schema.json").write_text(
        canonical_json(schema_to_dict(dataset.schema)), encoding="utf-8"
    )
    rng = np.random.default_rng(12345)

    def soft_vector(levels: tuple[str, ...], level: str) -> list[float]:
        noise = 0.05 + 0.2 * rng.random(len(levels))
        noise[levels.index(level)] += 1.0
        noise /= noise.sum()
        return [round(float(v), 6) for v in noise]

    with open(out / "images.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["image_id", "identity_id"]
        header += [f"gender:{l}" for l in GENDERS]
        header += [f"ethnicity:{l}" for l in ETHNICITIES]
        header += ["age", "pitch", "yaw", "roll"]
        writer.writerow(header)
        images = dataset.images
        columns = zip(
            images.ids,
            [images.identities[k] for k in images.identity.tolist()],
            *(
                [col.levels[c] for c in col.codes.tolist()]
                for col in (images.categorical["gender"], images.categorical["ethnicity"])
            ),
            images.continuous["age"].tolist(),
            images.continuous["pose"].tolist(),
        )
        for image_id, identity_id, gender, ethnicity, age, pose in columns:
            gv = soft_vector(GENDERS, gender)
            ev = soft_vector(ETHNICITIES, ethnicity)
            gv[GENDERS.index(gender)] = round(1.0 - sum(v for i, v in enumerate(gv) if i != GENDERS.index(gender)), 6)
            ev[ETHNICITIES.index(ethnicity)] = round(1.0 - sum(v for i, v in enumerate(ev) if i != ETHNICITIES.index(ethnicity)), 6)
            row: list[object] = [image_id, identity_id, *gv, *ev]
            # split the pose norm over the three rotation axes
            pitch = round(pose * 0.48, 4)
            yaw = round(pose * 0.64, 4)
            roll = round(math.sqrt(max(pose**2 - pitch**2 - yaw**2, 0.0)), 4)
            row += [round(age, 3), pitch, yaw, roll]
            writer.writerow(row)

    with open(out / "pairs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pair_id", "image_a", "image_b", "ground_truth", "distance"])
        pairs = dataset.pairs
        ids = dataset.images.ids
        # a pair's id is its label and its index among the pairs of that label
        within = np.where(pairs.is_pos, np.cumsum(pairs.is_pos), np.cumsum(~pairs.is_pos)) - 1
        for k, a, b, is_pos, distance in zip(
            within.tolist(),
            pairs.image_a.tolist(),
            pairs.image_b.tolist(),
            pairs.is_pos.tolist(),
            pairs.distance.tolist(),
        ):
            label, prefix = ("same", "pos") if is_pos else ("different", "neg")
            writer.writerow([f"{prefix}{k:06d}", ids[a], ids[b], label, round(distance, 6)])
