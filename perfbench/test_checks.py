"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench

Each oracle is held to an answer worked out by hand on a small case, and
each check must reject an output with one thing wrong in it.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import checks
import run
import spans


# A five-pair set. Sorted by distance: 0.05 neg, 0.1 pos, 0.4 pos, 0.7 neg,
# 0.9 neg; cutting after the third pair is best (4 correct), so t = 0.5 is
# optimal. Codes: gender 0 Male, 1 Female, 2 Cross; ethnicity 0 Caucasian,
# 1 African, 4 Cross.
TRUTH = {
    "distance": np.array([0.1, 0.7, 0.4, 0.05, 0.9]),
    "is_pos": np.array([True, False, True, False, False]),
    "gender_key": np.array([0, 0, 1, 1, 2]),
    "eth_key": np.array([0, 0, 1, 1, 4]),
}
# (tp, fp, tn, fn) at t = 0.5
COUNTS = {"Male×Caucasian": (1, 0, 1, 0), "Female×African": (1, 1, 0, 0), "Cross×Cross": (0, 0, 1, 0)}


def test_best_correct_respects_tied_distances():
    distance = np.array([0.1, 0.2, 0.2, 0.3, 0.4])
    is_pos = np.array([1, 1, 0, 0, 1], dtype=bool)
    # splitting the tie at 0.2 would give 4; no threshold can
    assert checks.best_correct(distance, is_pos) == 3
    assert checks.correct_at(distance, is_pos, 0.2) == 3
    assert checks.best_correct(TRUTH["distance"], TRUTH["is_pos"]) == 4
    assert checks.correct_at(TRUTH["distance"], TRUTH["is_pos"], 0.5) == 4


def test_tally_hand_case():
    assert checks.tally(TRUTH, 0.5) == COUNTS


def test_aggregates_hand_case():
    got = checks.aggregates(COUNTS, 1)
    # accuracies 1, 1/2, 1; selection rates 1/2, 1, 0; Cross×Cross has no
    # positives, so only the first two groups enter equalized odds
    assert got["micro_accuracy"] == pytest.approx(5 / 6, abs=1e-15)
    assert got["dob"] == pytest.approx(math.sqrt(1 / 18), abs=1e-15)
    assert (got["dpd"], got["dpr"], got["eod"], got["eor"]) == (1.0, 0.0, 1.0, 0.0)
    # a support of 2 leaves out Cross×Cross
    got = checks.aggregates(COUNTS, 2)
    assert got["micro_accuracy"] == 0.75 and got["dob"] == 0.25
    assert (got["dpd"], got["dpr"]) == (0.5, 0.5)


def test_bins():
    assert checks.bin_of(checks.AGE_EDGES, 0.0) == 0
    assert checks.bin_of(checks.AGE_EDGES, 2.999) == 0
    assert checks.bin_of(checks.AGE_EDGES, 3.0) == 1
    assert checks.bin_of(checks.AGE_EDGES, 120.0) == len(checks.AGE_EDGES) - 1
    with pytest.raises(ValueError):
        checks.bin_of(checks.AGE_EDGES, -1.0)


def test_sum_squares():
    assert checks.sum_squares(np.array([1.0, 2.0, 3.0, 6.0])) == 14.0


# ------------------------------------------------------------- analyze bundle


def _write_bundle(path, threshold=0.5):
    path.mkdir()
    agg = checks.aggregates(COUNTS, 1)
    (path / "fairness_report.json").write_text(json.dumps({"threshold": threshold, **agg}))
    lines = ["group,n_pos,n_neg,tp,fp,tn,fn,included"]
    for label, (tp, fp, tn, fn) in COUNTS.items():
        lines.append(f"{label},{tp + fn},{fp + tn},{tp},{fp},{tn},{fn},yes")
    (path / "per_group.csv").write_text("\n".join(lines) + "\n")
    effects = {"fmr": [{"attribute": "ethnicity", "level": "African", "estimate": 0.09,
                        "std_error": 0.01, "significant": True, "bootstrap_se": 0.012}],
               "tmr": [{"attribute": "age", "level": None, "estimate": 0.001,
                        "std_error": 0.002, "significant": False, "bootstrap_se": 0.0021}]}
    (path / "marginal_effects.json").write_text(json.dumps(effects))
    # positives 0.1, 0.4: SS 0.045; negatives 0.7, 0.05, 0.9: SS 0.395
    for name, factor, residual, total in (("pos", 0.02, 0.025, 0.045), ("neg", 0.1, 0.295, 0.395)):
        (path / f"anova_{name}.csv").write_text(
            "name,df,sum_squares,eta_squared\n"
            f"gender,1,{factor!r},0.1\nresidual,1,{residual!r},\ntotal,2,{total!r},\n")
    (path / "diagnostics.json").write_text(json.dumps({
        "tmr": {"scaled_residuals": [0.2, 0.9], "n_observations": 2},
        "fmr": {"scaled_residuals": [0.0, 0.5, 1.0], "n_observations": 3},
    }))
    return path


@pytest.fixture
def bundle(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "MIN_SUPPORT", 1)
    return _write_bundle(tmp_path / "bundle")


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_consistent_bundle_passes(bundle):
    assert checks.check_threshold_and_groups(bundle, TRUTH) == []
    assert checks.check_models(bundle, TRUTH) == []
    assert checks.check_bootstrap(bundle) == []


def test_rejects_group_count_off_by_one(bundle):
    text = (bundle / "per_group.csv").read_text()
    (bundle / "per_group.csv").write_text(text.replace("Female×African,1,1,1,1,0,0", "Female×African,1,1,1,0,1,0"))
    assert checks.check_threshold_and_groups(bundle, TRUTH)


def test_rejects_suboptimal_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "MIN_SUPPORT", 1)
    # at 0.2 only 3 pairs are right where 4 can be
    assert any("classifies" in p for p in
               checks.check_threshold_and_groups(_write_bundle(tmp_path / "b", 0.2), TRUTH))


def test_rejects_aggregate_off_in_last_place(bundle):
    _edit_json(bundle / "fairness_report.json", lambda d: d.update(dob=d["dob"] + 1e-11))
    assert checks.check_threshold_and_groups(bundle, TRUTH)


def test_rejects_residual_outside_unit_interval(bundle):
    _edit_json(bundle / "diagnostics.json", lambda d: d["fmr"]["scaled_residuals"].__setitem__(1, 1.2))
    assert any("outside" in p for p in checks.check_models(bundle, TRUTH))


def test_rejects_missing_residual(bundle):
    _edit_json(bundle / "diagnostics.json", lambda d: d["tmr"]["scaled_residuals"].pop())
    assert checks.check_models(bundle, TRUTH)


def test_rejects_anova_total_or_split(bundle):
    text = (bundle / "anova_neg.csv").read_text()
    (bundle / "anova_neg.csv").write_text(text.replace("residual,1,0.295", "residual,1,0.296"))
    assert any("factor + residual" in p for p in checks.check_models(bundle, TRUTH))
    truth = dict(TRUTH, distance=TRUTH["distance"] * 1.001)
    (bundle / "anova_neg.csv").write_text(text)
    assert any("total SS" in p for p in checks.check_models(bundle, truth))


@pytest.mark.parametrize("estimate,significant", [(0.13, True), (0.09, False)])
def test_rejects_unrecovered_handicap(bundle, estimate, significant):
    def edit(d):
        d["fmr"][0].update(estimate=estimate, significant=significant)

    _edit_json(bundle / "marginal_effects.json", edit)
    assert checks.check_models(bundle, TRUTH)


@pytest.mark.parametrize("boot", [None, float("nan"), 0.0, 0.021, 0.004])
def test_rejects_bad_bootstrap_se(bundle, boot):
    _edit_json(bundle / "marginal_effects.json", lambda d: d["fmr"][0].update(bootstrap_se=boot))
    assert checks.check_bootstrap(bundle)


def test_manifest_hashes(tmp_path):
    inputs = {"schema": tmp_path / "schema.json", "pairs": tmp_path / "pairs.csv"}
    inputs["schema"].write_text("{}")
    inputs["pairs"].write_text("pair_id\n")
    manifest = {"inputs": {k: {"sha256": checks.sha256_file(p)} for k, p in inputs.items()}}
    (tmp_path / "run_manifest.json").write_text(json.dumps(manifest))
    assert checks.check_manifest(tmp_path, inputs) == []
    inputs["pairs"].write_text("pair_id\nx\n")
    assert checks.check_manifest(tmp_path, inputs)


# ----------------------------------------------------------------- repeats


def _record(op_id, key, outputs, exit_code=0, stderr=""):
    return {"id": op_id, "key": key, "exit": exit_code, "stderr": stderr, "outputs": outputs}


def test_repeats_must_be_byte_identical(tmp_path):
    kept = tmp_path / "set0"
    kept.mkdir()
    (kept / "a.json").write_text("x")
    same = {"a.json": {"bytes": 1, "sha256": checks.sha256_file(kept / "a.json")}}
    other = {"a.json": {"bytes": 1, "sha256": "0" * 64}}
    assert checks.check_repeats([_record(0, "set0", same), _record(1, "set0", same)], {"set0": kept}) == []
    assert checks.check_repeats([_record(0, "set0", same), _record(1, "set0", other)], {"set0": kept})
    (kept / "a.json").write_text("y")
    assert checks.check_repeats([_record(0, "set0", same)], {"set0": kept})


def test_failure_form():
    stall = '{"error": "NotConverged", "message": "marginal effects need a converged fit"}\n'
    assert checks.check_failure(_record(0, "set0", {}, 1, stall)) == []
    assert checks.check_failure(_record(0, "set0", {"a.json": {}}, 1, stall))
    assert checks.check_failure(_record(0, "set0", {}, 1, '{"error": "ParseError", "message": ""}'))
    assert checks.check_failure(_record(0, "set0", {}, 1, "Traceback (most recent call last):\n  boom\n"))
    assert checks.check_failure(_record(0, "set0", {}, 2, stall))


# -------------------------------------------------------------------- plan


def _plan_case(tmp_path):
    """One identity per cell and two styles each; segment 0 has three
    style cells: (4, 0) twice, (4, 1) and (5, 1) once."""
    n_cells = len(checks.GENDERS) * len(checks.ETHNICITIES)
    truth = {
        "id_names": np.array([f"id{c}" for c in range(n_cells)]),
        "id_cell": np.arange(n_cells),
        "style_names": np.array([f"s{c}_{k}" for c in range(n_cells) for k in range(4)]),
        "style_cell": np.repeat(np.arange(n_cells), 4),
    }
    # (age, pitch, yaw, roll): pose norms 5 and 15 fall in pose bins 0 and 1
    places = [(35.0, 3.0, 4.0, 0.0), (36.0, 3.0, 4.0, 0.0), (35.0, 9.0, 12.0, 0.0), (45.0, 9.0, 12.0, 0.0)]
    lines = ["image_id,identity_id,gender,ethnicity,age,pitch,yaw,roll"]
    for name in truth["style_names"]:
        age, pitch, yaw, roll = places[int(name.split("_")[1])]
        lines.append(f"{name},{name},x,x,{age},{pitch},{yaw},{roll}")
    styles_csv = tmp_path / "styles.csv"
    styles_csv.write_text("\n".join(lines) + "\n")

    def plan(picks_for_cell0=(0, 2)):
        out = []
        for c in range(n_cells):
            picks = picks_for_cell0 if c == 0 else (0, 2)
            bins = {0: (4, 0), 1: (4, 0), 2: (4, 1), 3: (5, 1)}
            out.append({
                "id_image": f"id{c}",
                "segment": {"gender": checks.GENDERS[c // 4], "ethnicity": checks.ETHNICITIES[c % 4]},
                "styles": [{"style_image": f"s{c}_{k}", "age_bin": bins[k][0], "pose_bin": bins[k][1]}
                           for k in picks],
            })
        return out

    return truth, styles_csv, plan, n_cells


def _write_plan(path, entries):
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def test_plan_consistent_passes(tmp_path):
    truth, styles_csv, plan, n = _plan_case(tmp_path)
    path = _write_plan(tmp_path / "plan.jsonl", plan())
    assert checks.check_plan(path, truth, styles_csv, n, 2) == []


def test_plan_rejects_style_from_other_segment(tmp_path):
    truth, styles_csv, plan, n = _plan_case(tmp_path)
    entries = plan()
    entries[0]["styles"][1]["style_image"] = "s1_2"
    assert checks.check_plan(_write_plan(tmp_path / "p.jsonl", entries), truth, styles_csv, n, 2)


def test_plan_rejects_wrong_bin_and_repeated_id(tmp_path):
    truth, styles_csv, plan, n = _plan_case(tmp_path)
    entries = plan()
    entries[0]["styles"][0]["pose_bin"] = 3
    assert checks.check_plan(_write_plan(tmp_path / "p.jsonl", entries), truth, styles_csv, n, 2)
    entries = plan()
    entries[1]["id_image"] = "id0"
    assert checks.check_plan(_write_plan(tmp_path / "p.jsonl", entries), truth, styles_csv, n, 2)


def test_plan_rejects_uneven_cells(tmp_path):
    truth, styles_csv, plan, n = _plan_case(tmp_path)
    # both picks from cell (4, 0) while (4, 1) and (5, 1) stay empty
    path = _write_plan(tmp_path / "p.jsonl", plan(picks_for_cell0=(0, 1)))
    assert any("spare capacity" in p for p in checks.check_plan(path, truth, styles_csv, n, 2))


def test_plan_rejects_quota_and_sample_count(tmp_path):
    truth, styles_csv, plan, n = _plan_case(tmp_path)
    path = _write_plan(tmp_path / "p.jsonl", plan()[:-1])
    assert checks.check_plan(path, truth, styles_csv, n, 2)
    path = _write_plan(tmp_path / "p.jsonl", plan(picks_for_cell0=(0,)))
    assert checks.check_plan(path, truth, styles_csv, n, 2)


# ------------------------------------------------------------------ spans


def _span(name, span_id, parent, start, end, thread=1, op=0, **counts):
    return {"name": name, "op": op, "span_id": span_id, "parent": parent, "thread": thread,
            "start": start, "end": end, "counts": counts}


def test_self_time_counts_overlapping_children_once():
    parent = _span("report.run_analysis", 1, 0, 0.0, 10.0)
    children = [_span("a", 2, 1, 1.0, 4.0, thread=2), _span("b", 3, 1, 2.0, 5.0, thread=3),
                _span("c", 4, 1, 9.0, 12.0)]
    # covered: [1, 5] and [9, 10]
    assert spans.self_time(parent, children) == pytest.approx(5.0)


def test_overlap_time_needs_two_threads():
    pool = [_span("a", 1, 0, 0.0, 4.0, thread=2), _span("b", 2, 1, 1.0, 2.0, thread=2),
            _span("c", 3, 0, 3.0, 6.0, thread=3)]
    assert spans.overlap_time(pool) == pytest.approx(1.0)


def test_layer_metrics_on_hand_made_spans():
    ops = []
    for op, used in ((0, 90), (1, 80)):
        base = op * 100
        ops += [
            _span("cli", base, None, 0.0, 10.0, op=op),
            _span("report.run_analysis", base + 1, base, 1.0, 9.0, op=op),
            _span("logit.fit_logit", base + 2, base + 1, 2.0, 3.0, thread=2, op=op,
                  iterations=6, converged=True),
            _span("logit.fit_logit", base + 3, base + 1, 2.5, 4.0, thread=3, op=op,
                  iterations=50, converged=False),
            _span("logit.bootstrap", base + 4, base + 1, 5.0, 8.0, op=op, used=used, requested=100),
        ]
    timed = [{"id": op, "key": "set0", "exit": 0} for op in (0, 1)]
    got = spans.layer_metrics(ops, timed, [])
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["report.run_analysis_self_s"] == pytest.approx(3.0)
    assert got["logit.fit_logit_s"] == pytest.approx(2.5)
    assert got["report.pool_overlap_s"] == pytest.approx(0.5)
    assert got["logit.fit_logit_calls"] == 2 and got["logit.irls_iterations"] == 56
    assert got["logit.fits_not_converged"] == 1
    assert got["logit.bootstrap_used_ratio"] == pytest.approx(0.85)


def test_import_times_reads_favfa_lines_and_scipy_stats_subtree():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |       scipy.stats._a",
        "import time:       200 |        200 |         scipy.stats._b",
        "import time:       400 |        600 |       scipy.stats._c",
        "import time:        50 |        950 |     favfa.diagnostics",
        "import time:        10 |       1000 |   favfa",
        "import time:        20 |       1100 | favfa.cli",
    ])
    got = run.import_times(text)
    assert got["favfa.cli"] == pytest.approx(0.0011)
    assert got["favfa.diagnostics"] == pytest.approx(0.00095)
    assert got["scipy.stats"] == pytest.approx(0.0009)
    assert got["favfa.planner"] == 0.0


def test_traced_run_emits_exactly_the_per_layer_metrics_listed():
    imports = [dict.fromkeys(run.IMPORT_MODULES, 0.5)]
    got = run.per_layer([], {"spans": []}, imports)
    assert list(got) == list(run.declared("per_layer"))
    assert got["setup.import.scipy.stats_s"] == {"value": 0.5, "unit": "s"}
    assert got["logit.bootstrap_used_ratio"]["unit"] == "ratio"


def test_metrics_that_differ_from_the_listed_ones_fail_the_run():
    values = dict.fromkeys(run.declared("end_to_end"), 1.0)
    assert run.labelled(values, "end_to_end")["op_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(run.BenchError, match="not emitted"):
        run.labelled({k: v for k, v in values.items() if k != "op_s"}, "end_to_end")
    with pytest.raises(run.BenchError, match="not listed"):
        run.labelled({**values, "op_ms": 1.0}, "end_to_end")


def test_op_time_leaves_out_the_cold_first_operation_and_failures():
    def op(i, key, seconds, code=0):
        return {"id": i, "key": key, "exit": code, "seconds": seconds}

    records = [op(0, "a", 9.0), op(1, "b", 2.0), op(2, "c", 5.0, code=1),
               op(3, "a", 1.0), op(4, "b", 4.0), op(5, "a", 3.0)]
    # a: median(1, 3) = 2 without the cold 9; b: median(2, 4) = 3; c failed
    assert run.per_input_median(records, run._seconds) == pytest.approx(2.5)
    # an input whose only success is the first operation keeps it
    assert run.per_input_median([op(0, "a", 9.0)], run._seconds) == pytest.approx(9.0)
