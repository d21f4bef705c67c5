"""Output checks for the favfa benchmark, computed apart from the program.

Every oracle here works from the generator's ground truth (``truth.npz``)
and the raw input files with numpy and the standard library; nothing is
imported from favfa and nothing is compared with stored copies of earlier
output. Each ``check_*`` function returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from gen import (
    AFRICAN_HANDICAP,
    AGE_EDGES,
    ETHNICITIES,
    GENDER_CROSS,
    GENDERS,
    POSE_EDGES,
)

#: Passed to ``favfa analyze --min-support``; groups below it are excluded
#: from the aggregates.
MIN_SUPPORT = 30
CROSS = "Cross"
#: How many standard errors the recovered handicap may sit from the injected one.
HANDICAP_SES = 4.0
REL_TOL = 1e-9
AGGREGATE_TOL = 1e-12


# ------------------------------------------------------------------ oracles


def best_correct(distance: np.ndarray, is_pos: np.ndarray) -> int:
    """Most pairs any threshold classifies correctly under the rule
    "same iff distance < t", by a sweep over the sorted distances."""
    order = np.argsort(distance, kind="stable")
    d, pos = distance[order], is_pos[order].astype(bool)
    # the first k sorted pairs are predicted same; k is reachable only where
    # the distance changes between positions k-1 and k
    said_same_pos = np.concatenate([[0], np.cumsum(pos)])
    said_same_neg = np.concatenate([[0], np.cumsum(~pos)])
    correct = said_same_pos + (said_same_neg[-1] - said_same_neg)
    reachable = np.ones(len(d) + 1, dtype=bool)
    reachable[1:-1] = d[1:] > d[:-1]
    return int(correct[reachable].max())


def correct_at(distance: np.ndarray, is_pos: np.ndarray, threshold: float) -> int:
    same = distance < threshold
    is_pos = is_pos.astype(bool)
    return int(np.count_nonzero(same & is_pos) + np.count_nonzero(~same & ~is_pos))


def group_label(gender_code: int, eth_code: int) -> str:
    gender = GENDERS[gender_code] if gender_code < len(GENDERS) else CROSS
    eth = ETHNICITIES[eth_code] if eth_code < len(ETHNICITIES) else CROSS
    return f"{gender}×{eth}"


def tally(truth: dict, threshold: float) -> dict[str, tuple[int, int, int, int]]:
    """(tp, fp, tn, fn) per observed gender×ethnicity pair covariate."""
    is_pos = truth["is_pos"].astype(bool)
    same = truth["distance"] < threshold
    n_eth = len(ETHNICITIES) + 1
    code = truth["gender_key"] * n_eth + truth["eth_key"]
    size = (GENDER_CROSS + 1) * n_eth
    cells = [
        np.bincount(code[mask], minlength=size)
        for mask in (is_pos & same, ~is_pos & same, ~is_pos & ~same, is_pos & ~same)
    ]
    out = {}
    for c in np.flatnonzero(sum(cells)):
        out[group_label(c // n_eth, c % n_eth)] = tuple(int(cell[c]) for cell in cells)
    return out


def aggregates(counts: dict[str, tuple[int, int, int, int]], min_support: int) -> dict[str, float]:
    """The six fairness aggregates over the groups with at least
    ``min_support`` pairs, from their (tp, fp, tn, fn) counts."""
    acc, sel, tmr, fmr = [], [], [], []
    for tp, fp, tn, fn in counts.values():
        n = tp + fp + tn + fn
        if n < min_support:
            continue
        acc.append((tp + tn) / n)
        sel.append((tp + fp) / n)
        if tp + fn and fp + tn:
            tmr.append(tp / (tp + fn))
            fmr.append(fp / (fp + tn))

    def ratio(values: list[float]) -> float:
        return min(values) / max(values) if max(values) > 0 else 1.0

    mean = sum(acc) / len(acc)
    return {
        "dob": math.sqrt(sum((a - mean) ** 2 for a in acc) / len(acc)),
        "dpd": max(sel) - min(sel),
        "dpr": ratio(sel),
        "eod": max(max(tmr) - min(tmr), max(fmr) - min(fmr)),
        "eor": min(ratio(tmr), ratio(fmr)),
        "micro_accuracy": mean,
    }


def sum_squares(values: np.ndarray) -> float:
    return float(np.sum((values - values.mean()) ** 2))


def bin_of(edges: tuple[float, ...], value: float) -> int:
    """Index of the half-open bin [edges[i], edges[i+1]) holding ``value``;
    the last bin is open-ended."""
    if value < edges[0]:
        raise ValueError(f"{value} lies below the first bin")
    return bisect.bisect_right(edges, value) - 1


def style_bins(styles_csv: Path) -> dict[str, tuple[int, int]]:
    """(age bin, pose bin) of every style image, pose being the Euclidean
    norm of its pitch, yaw and roll."""
    out = {}
    with open(styles_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pose = math.sqrt(math.fsum(float(row[c]) ** 2 for c in ("pitch", "yaw", "roll")))
            out[row["image_id"]] = (bin_of(AGE_EDGES, float(row["age"])), bin_of(POSE_EDGES, pose))
    return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------- checks


def check_threshold_and_groups(bundle: Path, truth: dict) -> list[str]:
    """Threshold optimality, per-group counts and the six aggregates."""
    problems = []
    report = json.loads((bundle / "fairness_report.json").read_text(encoding="utf-8"))
    threshold = report["threshold"]
    distance, is_pos = truth["distance"], truth["is_pos"]
    best, got = best_correct(distance, is_pos), correct_at(distance, is_pos, threshold)
    if got != best:
        problems.append(f"threshold {threshold} classifies {got} pairs correctly, the best is {best}")

    expected = tally(truth, threshold)
    rows = {r["group"]: r for r in _read_csv(bundle / "per_group.csv")}
    if set(rows) != set(expected):
        problems.append(f"per_group.csv groups {sorted(rows)} != {sorted(expected)}")
    for label in sorted(set(rows) & set(expected)):
        tp, fp, tn, fn = expected[label]
        row = rows[label]
        want = {"n_pos": tp + fn, "n_neg": fp + tn, "tp": tp, "fp": fp, "tn": tn, "fn": fn}
        have = {k: int(row[k]) for k in want}
        if have != want:
            problems.append(f"per_group.csv {label}: {have} != {want}")
        included = "yes" if tp + fp + tn + fn >= MIN_SUPPORT else "no"
        if row["included"] != included:
            problems.append(f"per_group.csv {label}: included={row['included']}, expected {included}")

    for name, value in aggregates(expected, MIN_SUPPORT).items():
        if abs(report[name] - value) > AGGREGATE_TOL:
            problems.append(f"fairness_report.json {name} = {report[name]!r}, recomputed {value!r}")
    return problems


def check_models(bundle: Path, truth: dict) -> list[str]:
    """Handicap recovery, ANOVA identities and residual counts and range."""
    problems = []
    effects = json.loads((bundle / "marginal_effects.json").read_text(encoding="utf-8"))
    african = [e for e in effects["fmr"] if e["attribute"] == "ethnicity" and e["level"] == "African"]
    if len(african) != 1:
        problems.append("marginal_effects.json has no single fmr ethnicity=African effect")
    else:
        e = african[0]
        if not e["significant"]:
            problems.append(f"fmr ethnicity=African effect {e['estimate']} is not significant")
        if abs(e["estimate"] - AFRICAN_HANDICAP) > HANDICAP_SES * e["std_error"]:
            problems.append(
                f"fmr ethnicity=African effect {e['estimate']} ± {e['std_error']} is more than "
                f"{HANDICAP_SES} standard errors from the injected {AFRICAN_HANDICAP}"
            )

    is_pos = truth["is_pos"].astype(bool)
    subsets = {"pos": is_pos, "neg": ~is_pos}
    for name, mask in subsets.items():
        rows = _read_csv(bundle / f"anova_{name}.csv")
        by_name = {r["name"]: r for r in rows}
        factors = rows[: [r["name"] for r in rows].index("residual")]
        total = float(by_name["total"]["sum_squares"])
        residual = float(by_name["residual"]["sum_squares"])
        expected = sum_squares(truth["distance"][mask])
        if not _close(total, expected, REL_TOL):
            problems.append(f"anova_{name}.csv total SS {total!r} != sum of squares {expected!r}")
        explained = math.fsum(float(r["sum_squares"]) for r in factors) + residual
        if not _close(explained, total, REL_TOL):
            problems.append(f"anova_{name}.csv factor + residual SS {explained!r} != total {total!r}")

    diagnostics = json.loads((bundle / "diagnostics.json").read_text(encoding="utf-8"))
    for model, mask in (("tmr", is_pos), ("fmr", ~is_pos)):
        residuals = diagnostics[model]["scaled_residuals"]
        rows = int(np.count_nonzero(mask))
        if len(residuals) != rows or diagnostics[model]["n_observations"] != rows:
            problems.append(f"diagnostics.json {model}: {len(residuals)} residuals for {rows} rows")
        outside = [u for u in residuals if not 0.0 <= u <= 1.0]
        if outside:
            problems.append(f"diagnostics.json {model}: {len(outside)} residuals outside [0, 1]")
    return problems


def check_manifest(bundle: Path, inputs: dict[str, Path]) -> list[str]:
    manifest = json.loads((bundle / "run_manifest.json").read_text(encoding="utf-8"))
    problems = []
    for name, path in inputs.items():
        recorded = manifest["inputs"][name]["sha256"]
        if recorded != sha256_file(path):
            problems.append(f"run_manifest.json {name} sha256 {recorded} does not hash {path.name}")
    return problems


def check_bootstrap(bundle: Path) -> list[str]:
    """Bootstrap SEs finite, positive and within a factor of two of the
    delta-method SEs."""
    effects = json.loads((bundle / "marginal_effects.json").read_text(encoding="utf-8"))
    problems = []
    for model, rows in sorted(effects.items()):
        for e in rows:
            boot, delta = e["bootstrap_se"], e["std_error"]
            where = f"{model} {e['attribute']}={e['level']}"
            if not isinstance(boot, (int, float)) or not math.isfinite(boot) or boot <= 0:
                problems.append(f"{where}: bootstrap_se {boot!r} is not finite and positive")
            elif not (delta > 0 and 0.5 <= boot / delta <= 2.0):
                problems.append(f"{where}: bootstrap_se {boot} vs delta-method {delta}")
    return problems


def check_plan(plan_path: Path, truth: dict, styles_csv: Path, n_identities: int,
               samples: int) -> list[str]:
    """Exact segment quotas, ids from their own cell, distinct in-segment
    styles with the right bins, and even use of the (age, pose) cells: those
    with spare capacity differ by at most one and trail no cell by more."""
    problems: list[str] = []
    id_cell = dict(zip(truth["id_names"].tolist(), truth["id_cell"].tolist()))
    style_cell = dict(zip(truth["style_names"].tolist(), truth["style_cell"].tolist()))
    bins = style_bins(styles_csv)
    capacity: dict[int, Counter] = {}
    for sid, cell in style_cell.items():
        capacity.setdefault(cell, Counter())[bins[sid]] += 1

    lines = plan_path.read_text(encoding="utf-8").splitlines()
    if len(lines) != n_identities:
        problems.append(f"plan has {len(lines)} lines, expected {n_identities}")
    per_cell: Counter = Counter()
    seen: set[str] = set()
    for number, line in enumerate(lines, 1):
        entry = json.loads(line)
        segment = entry["segment"]
        cell = GENDERS.index(segment["gender"]) * len(ETHNICITIES) + ETHNICITIES.index(segment["ethnicity"])
        per_cell[cell] += 1
        image = entry["id_image"]
        if id_cell.get(image) != cell:
            problems.append(f"line {number}: id {image} is not a candidate of {segment}")
        if image in seen:
            problems.append(f"line {number}: id {image} repeats")
        seen.add(image)
        styles = entry["styles"]
        names = [s["style_image"] for s in styles]
        if len(styles) != samples or len(set(names)) != samples:
            problems.append(f"line {number}: {len(set(names))} distinct styles of {len(styles)}, expected {samples}")
        usage: Counter = Counter()
        for s in styles:
            sid = s["style_image"]
            if style_cell.get(sid) != cell:
                problems.append(f"line {number}: style {sid} is not from segment {segment}")
                continue
            if (s["age_bin"], s["pose_bin"]) != bins[sid]:
                problems.append(f"line {number}: style {sid} bins {(s['age_bin'], s['pose_bin'])} != {bins[sid]}")
            usage[bins[sid]] += 1
        # greedy filling always takes the least-used cell that has a style
        # left, so a cell with spare capacity trails no cell by more than one
        spare = [usage[b] for b, cap in capacity.get(cell, Counter()).items() if usage[b] < cap]
        if spare and usage and min(spare) < max(usage.values()) - 1:
            problems.append(f"line {number}: a cell with spare capacity has {min(spare)} styles, "
                            f"another {max(usage.values())}")
        if len(problems) > 20:
            break
    quota = n_identities // (len(GENDERS) * len(ETHNICITIES))
    uneven = {c: n for c, n in per_cell.items() if n != quota}
    if uneven or len(per_cell) != len(GENDERS) * len(ETHNICITIES):
        problems.append(f"identities per cell {dict(per_cell)}, expected {quota} each")
    return problems


def check_repeats(records: list[dict], kept: dict[str, Path]) -> list[str]:
    """Successful operations on the same input wrote byte-identical files,
    and the kept copy (a directory per input) hashes to what they recorded."""
    problems = []
    by_key: dict[str, list[dict]] = {}
    for r in records:
        if r["exit"] == 0:
            by_key.setdefault(r["key"], []).append(r["outputs"])
    for key, outputs in sorted(by_key.items()):
        if any(o != outputs[0] for o in outputs):
            problems.append(f"{key}: repeated operations wrote different bytes")
        on_disk = {p.name: sha256_file(p) for p in sorted(kept[key].iterdir())}
        recorded = {name: o["sha256"] for name, o in outputs[0].items()}
        if on_disk != recorded:
            problems.append(f"{key}: the kept output does not hash to the recorded one")
    return problems


def check_failure(record: dict) -> list[str]:
    """A failed operation is acceptable only as the documented IRLS stall:
    exit 1, one JSON error line naming NotConverged, no files left."""
    lines = [l for l in record["stderr"].splitlines() if l.strip()]
    where = f"operation {record['id']} ({record['key']})"
    if record["exit"] != 1 or len(lines) != 1:
        return [f"{where}: exit {record['exit']} with stderr {record['stderr'][-300:]!r}"]
    try:
        error = json.loads(lines[0]).get("error")
    except (json.JSONDecodeError, AttributeError):
        return [f"{where}: stderr is not one JSON line: {lines[0][:200]!r}"]
    problems = []
    if error != "NotConverged":
        problems.append(f"{where}: failed with {error}")
    if record["outputs"]:
        problems.append(f"{where}: left files {sorted(record['outputs'])}")
    return problems
