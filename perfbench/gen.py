"""Input generator for the favfa benchmark.

Writes the CSV and schema files one workload operates on, together with the
ground truth its checks need (``truth.npz``), using numpy only. It never
imports favfa, and it runs in a process of its own, so the program under test
receives nothing but files.

    python3 perfbench/gen.py <kind> <out_dir> <seed> [<n_pairs>]

``kind`` is ``pairs`` (an analyze input set of ``n_pairs`` pairs) or
``plan`` (candidate id and style tables for ``favfa plan``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

GENDERS = ("Male", "Female")
ETHNICITIES = ("Caucasian", "African", "Asian", "Indian")
AGE_EDGES = (0.0, 3.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0)
POSE_EDGES = (0.0, 10.0, 20.0, 35.0, 60.0)
#: Upper end used when drawing values inside the open-ended last bin.
AGE_TOP = 90.0
POSE_TOP = 85.0

IMAGES_PER_IDENTITY = 4
PAIRS_PER_IDENTITY = 10
TRUE_MATCH_RATE = 0.90
FALSE_MATCH_RATE = 0.05
#: Added to the false-match probability of negatives whose two sides are
#: both African; the FMR model must recover it.
AFRICAN_HANDICAP = 0.08
WITHIN_SEGMENT_NEGATIVES = 0.75

ID_CANDIDATES_PER_CELL = 2000
STYLES_PER_SEGMENT = 450

#: Index of the "sides differ" code in the per-pair level arrays.
GENDER_CROSS = len(GENDERS)
ETHNICITY_CROSS = len(ETHNICITIES)


def schema_dict() -> dict:
    """Schema with explicit bins, so the bins are the benchmark's own."""

    def bins(edges: tuple[float, ...]) -> list[list[float | None]]:
        return [[lo, hi] for lo, hi in zip(edges, edges[1:])] + [[edges[-1], None]]

    return {
        "attributes": [
            {"name": "gender", "kind": "categorical", "scope": "identity",
             "levels": list(GENDERS), "reference": "Male"},
            {"name": "ethnicity", "kind": "categorical", "scope": "identity",
             "levels": list(ETHNICITIES), "reference": "Caucasian"},
            {"name": "age", "kind": "continuous", "scope": "image", "unit": "years",
             "bins": bins(AGE_EDGES)},
            {"name": "pose", "kind": "continuous", "scope": "image", "unit": "degrees",
             "bins": bins(POSE_EDGES)},
        ]
    }


def _micro(values: np.ndarray) -> list[str]:
    """Decimal text of values given in millionths, all in [0, 1)."""
    return [f"0.{v:06d}" for v in values.tolist()]


def _soft_scores(rng: np.random.Generator, assigned: np.ndarray, n_levels: int) -> np.ndarray:
    """Per-row score vectors in millionths that sum to exactly 1 and peak at
    the assigned level (which gets more than 0.57, every other level less
    than 0.24), so the identity average's argmax is the assigned level."""
    raw = 0.05 + 0.2 * rng.random((len(assigned), n_levels))
    raw[np.arange(len(assigned)), assigned] += 1.0
    micro = np.rint(raw / raw.sum(axis=1, keepdims=True) * 1e6).astype(np.int64)
    micro[np.arange(len(assigned)), assigned] = 0
    micro[np.arange(len(assigned)), assigned] = 1_000_000 - micro.sum(axis=1)
    return micro


def _pose_components(norm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 0.48² + 0.64² + 0.6² = 1, so the components keep the drawn norm
    return (np.round(norm * 0.48, 4), np.round(norm * 0.64, 4), np.round(norm * 0.6, 4))


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    rows = [",".join(cells) for cells in zip(*columns)]
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _fmt(values: np.ndarray, digits: int) -> list[str]:
    return [f"{v:.{digits}f}" for v in values.tolist()]


def make_pairs(out: Path, seed: int, n_pairs: int) -> None:
    """Analyze inputs: identities with soft-score gender and ethnicity,
    images with age and pitch/yaw/roll pose, and ``n_pairs`` pairs, half of
    them positive. A pair is a match draw with its target probability; a
    match draw gets a distance in [0.01, 0.49], any other one in
    [0.51, 0.99]."""
    rng = np.random.default_rng([seed, n_pairs])
    n_ids = n_pairs // PAIRS_PER_IDENTITY
    gender = rng.integers(len(GENDERS), size=n_ids)
    ethnicity = rng.integers(len(ETHNICITIES), size=n_ids)

    n_images = n_ids * IMAGES_PER_IDENTITY
    owner = np.repeat(np.arange(n_ids), IMAGES_PER_IDENTITY)
    image_ids = [f"img{i:06d}" for i in range(n_images)]
    identity_ids = [f"id{i:05d}" for i in owner.tolist()]
    g_scores = _soft_scores(rng, gender[owner], len(GENDERS))
    e_scores = _soft_scores(rng, ethnicity[owner], len(ETHNICITIES))
    age = rng.uniform(18.0, 69.0, size=n_images)
    pose = np.minimum(np.abs(rng.normal(18.0, 12.0, size=n_images)), 80.0)
    pitch, yaw, roll = _pose_components(pose)
    _write_csv(
        out / "images.csv",
        ["image_id", "identity_id"]
        + [f"gender:{l}" for l in GENDERS]
        + [f"ethnicity:{l}" for l in ETHNICITIES]
        + ["age", "pitch", "yaw", "roll"],
        [image_ids, identity_ids]
        + [_micro(g_scores[:, j]) for j in range(len(GENDERS))]
        + [_micro(e_scores[:, j]) for j in range(len(ETHNICITIES))]
        + [_fmt(age, 3), _fmt(pitch, 4), _fmt(yaw, 4), _fmt(roll, 4)],
    )

    n_pos = n_pairs // 2
    n_neg = n_pairs - n_pos
    # positives: two distinct images of one identity
    pos_id = rng.integers(n_ids, size=n_pos)
    first = rng.integers(IMAGES_PER_IDENTITY, size=n_pos)
    second = (first + 1 + rng.integers(IMAGES_PER_IDENTITY - 1, size=n_pos)) % IMAGES_PER_IDENTITY
    # negatives: another identity, from the same segment for a share of them
    id_a = rng.integers(n_ids, size=n_neg)
    segment = gender * len(ETHNICITIES) + ethnicity
    by_segment = np.argsort(segment, kind="stable")
    seg_start = np.searchsorted(segment[by_segment], np.arange(len(GENDERS) * len(ETHNICITIES)))
    seg_size = np.bincount(segment, minlength=len(seg_start))
    rank = np.empty(n_ids, dtype=np.int64)
    rank[by_segment] = np.arange(n_ids) - seg_start[segment[by_segment]]
    seg_a = segment[id_a]
    within = (rng.random(n_neg) < WITHIN_SEGMENT_NEGATIVES) & (seg_size[seg_a] > 1)
    other = rng.integers(np.maximum(seg_size[seg_a] - 1, 1))
    other += other >= rank[id_a]
    id_b_within = by_segment[seg_start[seg_a] + np.minimum(other, seg_size[seg_a] - 1)]
    id_b_any = (id_a + 1 + rng.integers(n_ids - 1, size=n_neg)) % n_ids
    id_b = np.where(within, id_b_within, id_b_any)
    img_a = np.concatenate([pos_id * IMAGES_PER_IDENTITY + first,
                            id_a * IMAGES_PER_IDENTITY + rng.integers(IMAGES_PER_IDENTITY, size=n_neg)])
    img_b = np.concatenate([pos_id * IMAGES_PER_IDENTITY + second,
                            id_b * IMAGES_PER_IDENTITY + rng.integers(IMAGES_PER_IDENTITY, size=n_neg)])
    is_pos = np.arange(n_pairs) < n_pos

    side_a, side_b = owner[img_a], owner[img_b]
    gender_key = np.where(gender[side_a] == gender[side_b], gender[side_a], GENDER_CROSS)
    eth_key = np.where(ethnicity[side_a] == ethnicity[side_b], ethnicity[side_a], ETHNICITY_CROSS)
    african = ETHNICITIES.index("African")
    match_prob = np.where(is_pos, TRUE_MATCH_RATE,
                          FALSE_MATCH_RATE + AFRICAN_HANDICAP * (eth_key == african))
    match = rng.random(n_pairs) < match_prob
    # distances in millionths: 0.5 * (0.02 + 0.96 u), shifted by 0.5 for non-matches
    micro = np.rint((0.01 + 0.48 * rng.random(n_pairs) + 0.5 * ~match) * 1e6).astype(np.int64)
    distance_text = _micro(micro)
    _write_csv(
        out / "pairs.csv",
        ["pair_id", "image_a", "image_b", "ground_truth", "distance"],
        [
            [f"pr{k:06d}" for k in range(n_pairs)],
            [image_ids[i] for i in img_a.tolist()],
            [image_ids[i] for i in img_b.tolist()],
            ["same" if p else "different" for p in is_pos.tolist()],
            distance_text,
        ],
    )
    (out / "schema.json").write_text(json.dumps(schema_dict(), indent=2) + "\n", encoding="utf-8")
    np.savez(
        out / "truth.npz",
        distance=np.array([float(t) for t in distance_text]),
        is_pos=is_pos,
        gender_key=gender_key,
        eth_key=eth_key,
    )


def _in_bins(rng: np.random.Generator, edges: tuple[float, ...], top: float,
             index: np.ndarray) -> np.ndarray:
    """A value inside each given bin, kept 5 % of the bin width off its edges."""
    lo = np.asarray(edges)[index]
    hi = np.asarray(edges[1:] + (top,))[index]
    return lo + (hi - lo) * (0.05 + 0.9 * rng.random(len(index)))


def make_plan(out: Path, seed: int) -> None:
    """Plan inputs: ``ID_CANDIDATES_PER_CELL`` hard-labelled id candidates in
    every gender×ethnicity cell, and ``STYLES_PER_SEGMENT`` style images per
    segment whose (age bin, pose bin) cells are drawn uniformly, with pose
    given as pitch/yaw/roll."""
    rng = np.random.default_rng([seed, 7])
    n_cells = len(GENDERS) * len(ETHNICITIES)

    n_ids = n_cells * ID_CANDIDATES_PER_CELL
    id_cell = np.repeat(np.arange(n_cells), ID_CANDIDATES_PER_CELL)
    # ids are numbered in a shuffled order so sorted id order is not cell order
    id_names = [f"cand{i:06d}" for i in rng.permutation(n_ids).tolist()]
    id_age = rng.uniform(18.0, 69.0, size=n_ids)
    id_pose = rng.uniform(0.0, 50.0, size=n_ids)
    _write_csv(
        out / "ids.csv",
        ["image_id", "identity_id", "gender", "ethnicity", "age", "pose"],
        [id_names, id_names,
         [GENDERS[c // len(ETHNICITIES)] for c in id_cell.tolist()],
         [ETHNICITIES[c % len(ETHNICITIES)] for c in id_cell.tolist()],
         _fmt(id_age, 3), _fmt(id_pose, 3)],
    )

    n_styles = n_cells * STYLES_PER_SEGMENT
    style_cell = np.repeat(np.arange(n_cells), STYLES_PER_SEGMENT)
    style_names = [f"sty{i:06d}" for i in rng.permutation(n_styles).tolist()]
    age_bin = rng.integers(len(AGE_EDGES), size=n_styles)
    pose_bin = rng.integers(len(POSE_EDGES), size=n_styles)
    style_age = np.round(_in_bins(rng, AGE_EDGES, AGE_TOP, age_bin), 3)
    pitch, yaw, roll = _pose_components(_in_bins(rng, POSE_EDGES, POSE_TOP, pose_bin))
    _write_csv(
        out / "styles.csv",
        ["image_id", "identity_id", "gender", "ethnicity", "age", "pitch", "yaw", "roll"],
        [style_names, style_names,
         [GENDERS[c // len(ETHNICITIES)] for c in style_cell.tolist()],
         [ETHNICITIES[c % len(ETHNICITIES)] for c in style_cell.tolist()],
         _fmt(style_age, 3), _fmt(pitch, 4), _fmt(yaw, 4), _fmt(roll, 4)],
    )
    (out / "schema.json").write_text(json.dumps(schema_dict(), indent=2) + "\n", encoding="utf-8")
    np.savez(
        out / "truth.npz",
        id_names=np.array(id_names),
        id_cell=id_cell,
        style_names=np.array(style_names),
        style_cell=style_cell,
    )


def main(argv: list[str]) -> None:
    kind, out_dir, seed = argv[0], Path(argv[1]), int(argv[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "pairs":
        make_pairs(out_dir, seed, int(argv[3]))
    elif kind == "plan":
        make_plan(out_dir, seed)
    else:
        raise SystemExit(f"unknown input kind {kind!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
