from __future__ import annotations

import ast
import csv
import dataclasses
import errno
import hashlib
import importlib
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import image_rows
import favfa.cli
import favfa.report
import favfa.util
from favfa.cli import cmd_analyze, main
from favfa import logit
from favfa.data import consolidate_identity_attributes, load_images
from favfa.planner import assign_styles, plan_to_jsonl, select_id_pool
from oracles import reference_jsonl
from favfa.report import AnalysisConfig, run_analysis
from favfa.schema import load_schema
from favfa.util import canonical_json, named_seed
from synth import make_verification_dataset, write_dataset

BUNDLE = [
    "fairness_report.json", "per_group.csv", "logit_tmr.csv", "logit_fmr.csv",
    "marginal_effects.csv", "marginal_effects.json", "marginal_effects.svg",
    "anova_pos.csv", "anova_pos.svg", "anova_neg.csv", "anova_neg.svg",
    "diagnostics.json", "run_manifest.json", "diagnostics_qq.svg",
]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    dataset = make_verification_dataset(
        n_identities=120, images_per_identity=3, n_positive=900, n_negative=900,
        seed=5, fmr_bias={"African": 0.10},
    )
    write_dataset(dataset, out)
    return out


def config_for(demo_dir, out_dir, **overrides):
    values = dict(
        schema_path=demo_dir / "schema.json",
        images_path=demo_dir / "images.csv",
        pairs_path=demo_dir / "pairs.csv",
        out_dir=out_dir,
        min_support=20,
        seed=11,
    )
    values.update(overrides)
    return AnalysisConfig(**values)


def test_run_analysis_writes_bundle(demo_dir, tmp_path):
    result = run_analysis(config_for(demo_dir, tmp_path / "out"))
    assert sorted(result.outputs) == sorted(BUNDLE)
    for name in BUNDLE:
        path = tmp_path / "out" / name
        assert path.exists() and path.stat().st_size > 0
    report = json.loads((tmp_path / "out" / "fairness_report.json").read_text())
    assert 0.0 <= report["dpr"] <= 1.0
    assert report["per_group"]
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert set(manifest["inputs"]) == {"schema", "images", "pairs"}
    assert all(len(v["sha256"]) == 64 for v in manifest["inputs"].values())
    assert [v["file"] for v in manifest["inputs"].values()] == [
        "images.csv", "pairs.csv", "schema.json"
    ]


def test_run_analysis_deterministic_across_dirs(demo_dir, tmp_path):
    # the second run reads byte-identical copies of the inputs from elsewhere
    copy = tmp_path / "inputs" / "copied elsewhere"
    shutil.copytree(demo_dir, copy)
    for bootstrap in (0, 30):
        a, b = tmp_path / f"a{bootstrap}", tmp_path / f"b{bootstrap}"
        run_analysis(config_for(demo_dir, a, bootstrap=bootstrap))
        run_analysis(config_for(copy, b, bootstrap=bootstrap))
        for name in BUNDLE:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (bootstrap, name)


def test_manifest_records_bootstrap_counts(demo_dir, tmp_path):
    result = run_analysis(config_for(demo_dir, tmp_path / "boot", bootstrap=25))
    manifest = json.loads((tmp_path / "boot" / "run_manifest.json").read_text())
    assert manifest["bootstrap"] == {
        "requested": 25,
        "used": result.bootstrap_used,
        "iterations": result.bootstrap_iterations,
    }
    assert sorted(result.bootstrap_used) == sorted(result.bootstrap_iterations) == ["fmr", "tmr"]
    for model, used in result.bootstrap_used.items():
        assert 0 < used <= 25
        # no resample starts at its own estimate, and none passes max_iter
        assert used <= result.bootstrap_iterations[model] <= 50 * used
    run_analysis(config_for(demo_dir, tmp_path / "plain"))
    manifest = json.loads((tmp_path / "plain" / "run_manifest.json").read_text())
    assert "bootstrap" not in manifest


def test_run_analysis_bootstrap_column(demo_dir, tmp_path):
    result = run_analysis(config_for(demo_dir, tmp_path / "boot", bootstrap=60))
    text = (tmp_path / "boot" / "marginal_effects.csv").read_text()
    header, first = text.splitlines()[:2]
    assert header.split(",")[-1] == "bootstrap_se"
    assert first.split(",")[-1] != ""
    assert result.bootstrap_se


def test_svgs_well_formed(demo_dir, tmp_path):
    run_analysis(config_for(demo_dir, tmp_path / "svg"))
    for name in BUNDLE:
        if name.endswith(".svg"):
            root = ET.fromstring((tmp_path / "svg" / name).read_text())
            assert root.tag.endswith("svg")


def test_cli_analyze_success(demo_dir, tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["analyze", "--schema", str(demo_dir / "schema.json"),
         "--images", str(demo_dir / "images.csv"),
         "--pairs", str(demo_dir / "pairs.csv"),
         "--out", str(tmp_path / "cli_out"), "--min-support", "20", "--seed", "2"],
    )
    assert result.exit_code == 0, result.output
    assert "threshold:" in result.output
    assert "DoB" in result.output and "(percent)" in result.output


def test_cli_analyze_domain_error_exit_1(demo_dir, tmp_path):
    pairs_path = tmp_path / "pairs_one_class.csv"
    lines = (demo_dir / "pairs.csv").read_text().splitlines()
    header = lines[0]
    kept = [header] + [l for l in lines[1:] if ",same," in l]
    pairs_path.write_text("\n".join(kept) + "\n")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["analyze", "--schema", str(demo_dir / "schema.json"),
         "--images", str(demo_dir / "images.csv"),
         "--pairs", str(pairs_path), "--out", str(tmp_path / "nope")],
    )
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["error"] == "DegeneratePairs"
    assert not (tmp_path / "nope" / "fairness_report.json").exists()


def assert_one_json_error(result, error):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # nothing else escaped
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert "Traceback" not in result.output + result.stderr


def test_cli_analyze_repeated_group_by_exit_1(demo_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        ["analyze", "--schema", str(demo_dir / "schema.json"),
         "--images", str(demo_dir / "images.csv"), "--pairs", str(demo_dir / "pairs.csv"),
         "--out", str(tmp_path / "out"), "--group-by", "gender,gender"],
    )
    assert_one_json_error(result, "SchemaInvalid")
    assert json.loads(result.stderr)["message"] == "grouping repeats an attribute"
    assert not (tmp_path / "out").exists()


def test_cli_analyze_bad_predicted_cell_exit_1(demo_dir, tmp_path):
    pairs_path = tmp_path / "pairs_predicted.csv"
    lines = (demo_dir / "pairs.csv").read_text().splitlines()
    pairs_path.write_text(
        "\n".join([lines[0] + ",predicted", lines[1] + ",maybe"]
                  + [l + ",same" for l in lines[2:]]) + "\n"
    )
    result = CliRunner().invoke(
        main,
        ["analyze", "--schema", str(demo_dir / "schema.json"),
         "--images", str(demo_dir / "images.csv"),
         "--pairs", str(pairs_path), "--out", str(tmp_path / "nope")],
    )
    assert_one_json_error(result, "ParseError")
    assert not (tmp_path / "nope").exists()


REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "data" / "demo"


def demo_args(pairs_path: Path, out: Path) -> list[str]:
    return ["analyze", "--schema", str(DEMO / "schema.json"),
            "--images", str(DEMO / "images.csv"),
            "--pairs", str(pairs_path), "--out", str(out)]


def test_cli_analyze_no_false_match_exit_1(tmp_path):
    # every negative far above every positive: the FMR model's response is
    # all zeros, so there is no model to fit
    shutil.copytree(DEMO, tmp_path / "demo")
    pairs_path = tmp_path / "demo" / "pairs.csv"
    lines = pairs_path.read_text().splitlines()
    moved = [
        ",".join(cells[:4] + ["0.99"]) if cells[3] == "different" else line
        for line in lines[1:]
        for cells in [line.split(",")]
    ]
    pairs_path.write_text("\n".join([lines[0]] + moved) + "\n")
    result = CliRunner().invoke(main, demo_args(pairs_path, tmp_path / "nope"))
    assert_one_json_error(result, "DegenerateResponse")
    assert "response takes a single value" in json.loads(result.stderr)["message"]
    assert not (tmp_path / "nope").exists()


def test_cli_diversity_header_only_images_exit_1(tmp_path):
    images_path = tmp_path / "images.csv"
    images_path.write_text((DEMO / "images.csv").read_text().splitlines()[0] + "\n")
    result = CliRunner().invoke(
        main, ["diversity", "--schema", str(DEMO / "schema.json"), "--images", str(images_path)]
    )
    assert_one_json_error(result, "ParseError")
    assert "the image table is empty" in json.loads(result.stderr)["message"]


def test_make_demo_data_defaults_reproduce_data_demo(tmp_path, monkeypatch):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["make_demo_data.py", "--out", str(out)])
    runpy.run_path(str(REPO / "scripts" / "make_demo_data.py"), run_name="__main__")
    for name in ("schema.json", "images.csv", "pairs.csv"):
        assert (out / name).read_bytes() == (DEMO / name).read_bytes(), name


def test_bias_experiment_recovers_the_injected_effect():
    run = runpy.run_path(str(REPO / "scripts" / "run_bias_experiment.py"))["run"]
    _, _, _, effects, table = run(4000, 3, 0.10, "African")
    _, _, _, _, control = run(4000, 3, 0.0, "African")
    african = next(e for e in effects if e.level == "African")
    assert abs(african.estimate - 0.10) <= 1.96 * african.std_error, african

    def eta(anova):
        return next(f.eta_squared for f in anova.factors if f.name == "ethnicity")

    assert eta(table) > eta(control)


#: sha256 of the two bundle files that involve no linear algebra, for
#: ``favfa analyze`` on data/demo: default flags, and --pair-aggregate absdiff
#: (which moves only continuous covariates, so neither file changes).
DEMO_PINS = {
    "per_group.csv": "662dcb3634b654415a5458b4cc274ddf5adb46ea1ce2e51ac99233eb515c0f5f",
    "fairness_report.json": "747a04225b33fab942d10413679ee55843a52892a1084efd2d45ccb0164943f8",
}


@pytest.mark.parametrize("flags", [[], ["--pair-aggregate", "absdiff"]])
def test_demo_bundle_pinned(tmp_path, flags):
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", tmp_path / "out") + flags)
    assert result.exit_code == 0, result.output
    for name, digest in DEMO_PINS.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


def test_demo_bundle_json_is_canonical(tmp_path):
    # diagnostics.json splices its residual lists into canonical_json's text
    out = tmp_path / "out"
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", out))
    assert result.exit_code == 0, result.output
    names = sorted(path.name for path in out.glob("*.json"))
    assert names == sorted(name for name in BUNDLE if name.endswith(".json"))
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        assert text == canonical_json(json.loads(text)), name


#: sha256 of marginal_effects.csv for ``favfa analyze --bootstrap 20`` on
#: data/demo: the delta-method and bootstrap columns, pinned for determinism.
#: Re-pinned when ``logit.expit`` replaced scipy's expit: numpy's exp differs
#: from the C library's in the last bit on about 2 % of inputs, and the
#: file's numbers moved by at most 5.6e-14 relative. Re-pinned when bootstrap
#: refits started from the full-sample estimate instead of zero: the
#: ``bootstrap_se`` column moved by at most 2.7e-10 relative and every other
#: column not at all, within what two stops with a score below ``tol`` = 1e-8
#: allow (about 1.6e-8 to 3.5e-8 of each standard error here).
BOOTSTRAP_EFFECTS_PIN = "a7f2609c7051e3dc36ee5dffbe510c3a304e522e9b9d7fd8eaf11e5673949fac"


#: run_manifest.json's bootstrap block for the same run: the IRLS iterations
#: that the used refits took, so that a change to the kernel's steps shows.
BOOTSTRAP_MANIFEST_PIN = {
    "requested": 20,
    "used": {"fmr": 20, "tmr": 20},
    "iterations": {"fmr": 95, "tmr": 80},
}


def test_demo_bootstrap_effects_pinned(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", out) + ["--bootstrap", "20"])
    assert result.exit_code == 0, result.output
    assert sha256((out / "marginal_effects.csv").read_bytes()) == BOOTSTRAP_EFFECTS_PIN
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["bootstrap"] == BOOTSTRAP_MANIFEST_PIN


def test_demo_bootstrap_certifies_most_steps(tmp_path, monkeypatch):
    # the bootstrap refits of the run above take 10 Newton steps, one block
    # per model; the uncertified kernel computed a log-likelihood on each of
    # them and once before the first. Certified steps skip it, and which are
    # certified is deterministic, so the count is pinned
    calls, steps, booting = [], [], [False]
    log_likelihood, irls = logit._log_likelihood, logit._irls
    bootstrap = favfa.report.bootstrap_marginal_effects

    def counting_log_likelihood(eta, y, counts):
        calls.append(booting[0])
        return log_likelihood(eta, y, counts)

    def counting_irls(*args, **kwargs):
        fits = irls(*args, **kwargs)
        steps.append(int(fits.iterations.max()) if booting[0] else 0)
        return fits

    def flagged_bootstrap(*args):
        booting[0] = True
        try:
            return bootstrap(*args)
        finally:
            booting[0] = False

    monkeypatch.setattr(logit, "_log_likelihood", counting_log_likelihood)
    monkeypatch.setattr(logit, "_irls", counting_irls)
    monkeypatch.setattr(favfa.report, "bootstrap_marginal_effects", flagged_bootstrap)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", out) + ["--bootstrap", "20"])
    assert result.exit_code == 0, result.output
    assert sum(steps) == 10
    assert sum(calls) == 4
    assert sum(calls) <= sum(steps) // 2


def at_openblas_threads(threads: str, args: list[str]) -> str:
    """Standard output of ``python *args`` with OpenBLAS on ``threads`` threads."""
    pythonpath = os.pathsep.join([str(REPO / "src"), str(REPO / "tests")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True, text=True
    ).stdout


def test_bootstrap_effects_independent_of_openblas_threads(tmp_path):
    bundles = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        at_openblas_threads(
            threads, ["-m", "favfa.cli", *demo_args(DEMO / "pairs.csv", out), "--bootstrap", "20"]
        )
        bundles.append({name: (out / name).read_bytes() for name in BUNDLE})
    assert bundles[0] == bundles[1]


#: ANOVA tables with interactions of a 24,000-pair set, a logit fit on a
#: 100,000 x 10 design and its residual diagnostics: each summed over all
#: rows in one BLAS call, their last bits would follow the OpenBLAS thread
#: count.
THREAD_PROBE = """
import numpy as np
from favfa.anova import anova_distances
from favfa.data import Subset, covariates_for_pairs
from favfa.diagnostics import simulate_residuals
from favfa.logit import (
    DesignMatrix,
    bootstrap_marginal_effects,
    build_design,
    fit_logit,
    marginal_effects,
)
from favfa.metrics import optimize_threshold
from synth import make_verification_dataset

data = make_verification_dataset(n_identities=2000, n_positive=12000, n_negative=12000, seed=3)
covs = covariates_for_pairs(data.pairs, data.images, data.schema)
for subset in (Subset.POSITIVES, Subset.NEGATIVES):
    print(repr(anova_distances(data.pairs, covs, data.schema, subset, interactions=True)))

# 12,000 rows and 7 columns: the bootstrap's blocks of 5 resamples share the
# column-product table (28 products, at most 6 per resample of a block)
design = build_design(
    data.pairs, covs, data.schema, Subset.POSITIVES, optimize_threshold(data.pairs)
)
fit = fit_logit(design)
print([(e.estimate.hex(), e.std_error.hex()) for e in marginal_effects(fit, design, data.schema)])
ses, used, iterations = bootstrap_marginal_effects(fit, design, data.schema, n_boot=20, seed=0)
print(sorted((key, se.hex()) for key, se in ses.items()), used, iterations)

rng = np.random.default_rng(0)
X = np.column_stack([np.ones(100_000), rng.integers(0, 2, size=(100_000, 9))]).astype(float)
y = (rng.random(100_000) < 1 / (1 + np.exp(-(X @ rng.normal(scale=0.3, size=10))))) * 1.0
design = DesignMatrix(X, y, tuple(map(str, range(10))), {}, {}, {}, Subset.POSITIVES)
fit = fit_logit(design)
print(fit.beta.tobytes().hex(), fit.covariance.tobytes().hex())
diag = simulate_residuals(fit, design, seed=0)
print(diag.dispersion_ratio.hex(), diag.dispersion_p.hex(), repr(diag.ks_statistic))
"""


def test_anova_and_fit_independent_of_openblas_threads():
    outputs = [at_openblas_threads(threads, ["-c", THREAD_PROBE]) for threads in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_cli_analyze_single_bootstrap_resample(tmp_path):
    # one resample gives no spread, so no bootstrap SE: null, as with no bootstrap
    out = tmp_path / "out"
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", out) + ["--bootstrap", "1"])
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output + result.stderr
    effects = json.loads((out / "marginal_effects.json").read_text())
    rows = [row for model in effects.values() for row in model]
    assert rows and all(row["bootstrap_se"] is None for row in rows)
    lines = (out / "marginal_effects.csv").read_text().splitlines()
    assert lines[0].endswith(",bootstrap_se")
    assert all(line.endswith(",") for line in lines[1:])


def bad_bins_schema(tmp_path: Path) -> Path:
    payload = json.loads((DEMO / "schema.json").read_text())
    age = next(a for a in payload["attributes"] if a["name"] == "age")
    age["bins"] = [["a", 1]]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("command", ["analyze", "diversity"])
def test_cli_non_numeric_bins_exit_1(tmp_path, command):
    args = ["--schema", str(bad_bins_schema(tmp_path)), "--images", str(DEMO / "images.csv")]
    if command == "analyze":
        args += ["--pairs", str(DEMO / "pairs.csv"), "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [command, *args])
    assert_one_json_error(result, "ParseError")
    assert "'age'" in json.loads(result.stderr)["message"]
    assert not (tmp_path / "out").exists()


def test_cli_schema_with_byte_order_mark(tmp_path):
    # every command reads a schema that starts with a UTF-8 byte-order mark
    # as it reads the plain file; only the manifest's schema sha256 differs
    bom_schema = tmp_path / "schema.json"
    bom_schema.write_bytes(b"\xef\xbb\xbf" + (DEMO / "schema.json").read_bytes())
    images = str(DEMO / "images.csv")
    outputs = []
    for schema in (DEMO / "schema.json", bom_schema):
        out = tmp_path / f"out-{len(outputs)}"
        commands = [
            ["analyze", "--images", images, "--pairs", str(DEMO / "pairs.csv"),
             "--out", str(out / "bundle")],
            ["weights", "--images", images, "--attrs", "gender,age",
             "--out", str(out / "weights.csv")],
            ["diversity", "--images", images],
            ["plan", "--ids", images, "--styles", images, "--n-identities", "8",
             "--samples", "4", "--out", str(out / "plan.jsonl")],
        ]
        stdout = []
        for command, *args in commands:
            result = CliRunner().invoke(main, [command, "--schema", str(schema), *args])
            assert result.exit_code == 0, (command, result.output)
            stdout.append(result.stdout.replace(str(out), "<out>"))
        files = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in out.rglob("*") if path.is_file()
        }
        outputs.append((stdout, files))
    (plain_stdout, plain), (bom_stdout, bom) = outputs
    assert bom_stdout == plain_stdout
    manifests = [json.loads(files.pop("bundle/run_manifest.json")) for files in (plain, bom)]
    assert bom == plain
    bundle = {f"bundle/{name}" for name in BUNDLE if name != "run_manifest.json"}
    assert set(plain) == bundle | {"weights.csv", "plan.jsonl"}
    manifests[1]["inputs"]["schema"]["sha256"] = manifests[0]["inputs"]["schema"]["sha256"]
    assert manifests[1] == manifests[0]


def test_bundle_digest_lists_differing_files(tmp_path):
    script = REPO / "scripts" / "bundle_digest.py"
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "same.csv").write_text("x\n")
    (tmp_path / "a" / "moved.json").write_text("1\n")
    (tmp_path / "b" / "moved.json").write_text("2\n")
    (tmp_path / "a" / "only_a.svg").write_text("<svg/>\n")

    def run(*dirs):
        return subprocess.run(
            [sys.executable, str(script), *map(str, dirs)], capture_output=True, text=True
        )

    single = run(tmp_path / "a")
    assert single.returncode == 0
    assert single.stdout.splitlines()[-1] == (
        hashlib.sha256(b"x\n").hexdigest() + "  same.csv"
    )
    both = run(tmp_path / "a", tmp_path / "b")
    assert both.returncode == 1
    assert both.stdout.splitlines()[-1] == "differ (2): moved.json, only_a.svg"
    assert "only_a.svg  " + hashlib.sha256(b"<svg/>\n").hexdigest() + "  -" in both.stdout
    assert run(tmp_path / "a", tmp_path / "a").returncode == 0


def test_cli_analyze_optional_flags(demo_dir, tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["analyze", "--schema", str(demo_dir / "schema.json"),
         "--images", str(demo_dir / "images.csv"),
         "--pairs", str(demo_dir / "pairs.csv"),
         "--out", str(tmp_path / "flags"), "--min-support", "20",
         "--factor-order", "pose,age,ethnicity,gender",
         "--pair-aggregate", "absdiff", "--interactions", "--alpha", "0.01"],
    )
    assert result.exit_code == 0, result.output
    anova_rows = (tmp_path / "flags" / "anova_neg.csv").read_text().splitlines()
    names = [row.split(",")[0] for row in anova_rows[1:]]
    assert names[:4] == ["pose", "age", "ethnicity", "gender"]
    assert any("×" in n for n in names)  # interaction factors present


def test_anova_csv_ends_with_the_warnings_row(tmp_path):
    # with twelve identities some gender x ethnicity cells hold no pair: the
    # interaction's columns for them are absorbed, and each table says so
    data = tmp_path / "data"
    write_dataset(
        make_verification_dataset(n_identities=12, n_positive=300, n_negative=300, seed=0), data
    )
    result = run_analysis(config_for(data, tmp_path / "out", min_support=5, interactions=True))
    for model, name in (("tmr", "anova_pos.csv"), ("fmr", "anova_neg.csv")):
        warnings = result.anova[model].warnings
        assert any("collinear column(s) absorbed" in w for w in warnings), warnings
        last = (tmp_path / "out" / name).read_text().splitlines()[-1]
        assert last == "warnings,,," + "; ".join(warnings)


def test_cli_missing_file_exit_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["analyze", "--schema", str(tmp_path / "missing.json"),
         "--images", "x", "--pairs", "y", "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


def test_cli_diversity_table(tmp_path):
    # 0.7 / 0.1 / 0.1 / 0.1 ethnicity split displays as 0.68 at 2 d.p.
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({
        "attributes": [
            {"name": "ethnicity", "kind": "categorical", "scope": "image",
             "levels": ["Caucasian", "African", "Asian", "Indian"],
             "reference": "Caucasian"},
        ]
    }))
    rows = ["image_id,identity_id,ethnicity"]
    for i in range(10):
        level = "Caucasian" if i < 7 else ["African", "Asian", "Indian"][i - 7]
        rows.append(f"img{i},I{i},{level}")
    images_path = tmp_path / "images.csv"
    images_path.write_text("\n".join(rows) + "\n")
    runner = CliRunner()
    result = runner.invoke(
        main, ["diversity", "--schema", str(schema_path), "--images", str(images_path)]
    )
    assert result.exit_code == 0, result.output
    assert "0.68" in result.output


def test_cli_diversity_extremes(tmp_path):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({
        "attributes": [
            {"name": "gender", "kind": "categorical", "scope": "image",
             "levels": ["Male", "Female"], "reference": "Male"},
        ]
    }))
    balanced = tmp_path / "balanced.csv"
    balanced.write_text("image_id,identity_id,gender\na,A,Male\nb,B,Female\n")
    single = tmp_path / "single.csv"
    single.write_text("image_id,identity_id,gender\na,A,Male\nb,B,Male\n")
    runner = CliRunner()
    assert "1.00" in runner.invoke(
        main, ["diversity", "--schema", str(schema_path), "--images", str(balanced)]
    ).output
    assert "0.00" in runner.invoke(
        main, ["diversity", "--schema", str(schema_path), "--images", str(single)]
    ).output


def write_planner_inputs(tmp_path, ids_per_cell=2):
    from synth import make_planner_pools, schema_to_dict

    schema, ids, styles = make_planner_pools(ids_per_cell=ids_per_cell, styles_per_segment=40)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(canonical_json(schema_to_dict(schema)))

    def dump(table, path):
        rows = ["image_id,identity_id,gender,ethnicity,age,pose"]
        for rec in image_rows(table):
            rows.append(
                f"{rec.image_id},{rec.identity_id},{rec.values['gender']},"
                f"{rec.values['ethnicity']},{rec.values['age']},{rec.values['pose']}"
            )
        path.write_text("\n".join(rows) + "\n")

    dump(ids, tmp_path / "ids.csv")
    dump(styles, tmp_path / "styles.csv")
    return schema_path, tmp_path / "ids.csv", tmp_path / "styles.csv"


def test_cli_plan_toy(tmp_path):
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path)
    runner = CliRunner()
    out = tmp_path / "plan.jsonl"
    result = runner.invoke(
        main,
        ["plan", "--schema", str(schema_path), "--ids", str(ids_path),
         "--styles", str(styles_path), "--n-identities", "8", "--samples", "8",
         "--seed", "1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "1.00" in result.output  # gender and ethnicity diversity
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    entry = json.loads(lines[0])
    assert len(entry["styles"]) == 8


def test_cli_plan_file_equals_plan_to_jsonl(tmp_path, monkeypatch):
    # two identities per segment, written in chunks of three entries, so
    # chunk boundaries fall between the two entries of a segment
    monkeypatch.setattr(favfa.cli, "_PLAN_CHUNK", 3)
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path)
    out = tmp_path / "plan.jsonl"
    result = CliRunner().invoke(
        main,
        ["plan", "--schema", str(schema_path), "--ids", str(ids_path),
         "--styles", str(styles_path), "--n-identities", "16", "--samples", "5",
         "--seed", "3", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output

    schema = load_schema(schema_path)
    ids = consolidate_identity_attributes(load_images(ids_path, schema), schema)
    styles = consolidate_identity_attributes(load_images(styles_path, schema), schema)
    pool = select_id_pool(ids, schema, 16, named_seed(3, "planner"))
    plan = assign_styles(pool, ids, styles, schema, 5)
    assert out.read_bytes() == plan_to_jsonl(plan).encode("utf-8")


def test_cli_plan_chunk_edges_inside_a_segment(tmp_path, monkeypatch):
    # five identities per segment, written in chunks of seven lines, so most
    # chunk edges fall inside one segment's run of lines
    monkeypatch.setattr(favfa.cli, "_PLAN_CHUNK", 7)
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path, ids_per_cell=5)
    out = tmp_path / "plan.jsonl"
    result = CliRunner().invoke(
        main,
        ["plan", "--schema", str(schema_path), "--ids", str(ids_path),
         "--styles", str(styles_path), "--n-identities", "40", "--samples", "6",
         "--seed", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output

    schema = load_schema(schema_path)
    ids = consolidate_identity_attributes(load_images(ids_path, schema), schema)
    styles = consolidate_identity_attributes(load_images(styles_path, schema), schema)
    pool = select_id_pool(ids, schema, 40, named_seed(2, "planner"))
    plan = assign_styles(pool, ids, styles, schema, 6)
    assert np.bincount(plan.group).tolist() == [5] * 8
    assert out.read_text(encoding="utf-8") == reference_jsonl(plan)


@pytest.mark.parametrize("earlier", [None, "an earlier plan\n"])
def test_cli_plan_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, earlier):
    # the chunk source fails with ENOSPC after its first chunk
    monkeypatch.setattr(favfa.cli, "_PLAN_CHUNK", 3)
    calls = []

    def first_chunk_only(plan):
        calls.append(len(plan.ids))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return plan_to_jsonl(plan)

    monkeypatch.setattr(favfa.cli, "plan_to_jsonl", first_chunk_only)
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path)
    out = tmp_path / "out" / "plan.jsonl"
    out.parent.mkdir()
    if earlier is not None:
        out.write_text(earlier)
    result = CliRunner().invoke(
        main,
        ["plan", "--schema", str(schema_path), "--ids", str(ids_path),
         "--styles", str(styles_path), "--n-identities", "16", "--samples", "5",
         "--out", str(out)],
    )
    assert_one_json_error(result, "OutputError")
    assert os.strerror(errno.ENOSPC) in json.loads(result.stderr)["message"]
    assert calls == [3, 3]
    if earlier is None:
        assert list(out.parent.iterdir()) == []
    else:
        assert list(out.parent.iterdir()) == [out]
        assert out.read_text() == earlier


def test_cli_plan_missing_cell_exit_1(tmp_path):
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path)
    text = ids_path.read_text().splitlines()
    filtered = [text[0]] + [l for l in text[1:] if not l.split(",")[2:4] == ["Male", "Asian"]]
    ids_path.write_text("\n".join(filtered) + "\n")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["plan", "--schema", str(schema_path), "--ids", str(ids_path),
         "--styles", str(styles_path), "--n-identities", "8", "--samples", "4",
         "--seed", "1", "--out", str(tmp_path / "plan.jsonl")],
    )
    assert result.exit_code == 1
    assert "InsufficientCandidates" in result.stderr


def test_cli_weights_stdout(tmp_path):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({
        "attributes": [
            {"name": "ethnicity", "kind": "categorical", "scope": "image",
             "levels": ["African", "Asian"], "reference": "African"},
        ]
    }))
    images_path = tmp_path / "images.csv"
    images_path.write_text(
        "image_id,identity_id,ethnicity\ni1,a,African\ni2,b,African\ni3,c,Asian\n"
    )
    runner = CliRunner()
    result = runner.invoke(
        main, ["weights", "--schema", str(schema_path), "--images", str(images_path),
               "--attrs", "ethnicity"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "image_id,weight,probability"
    assert lines[1].split(",") == ["i1", "0.5", "0.25"]
    assert lines[3].split(",") == ["i3", "1.0", "0.5"]


def test_cli_weights_quotes_ids(tmp_path):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({
        "attributes": [
            {"name": "ethnicity", "kind": "categorical", "scope": "image",
             "levels": ["African", "Asian"], "reference": "African"},
        ]
    }))
    ids = ['img,"odd"', "plain", 'img,"odd" 2']
    images_path = tmp_path / "images.csv"
    with open(images_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            [["image_id", "identity_id", "ethnicity"]]
            + [[image_id, f"a{k}", "Asian" if k else "African"] for k, image_id in enumerate(ids)]
        )
    result = CliRunner().invoke(
        main, ["weights", "--schema", str(schema_path), "--images", str(images_path),
               "--attrs", "ethnicity"],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows == [
        ["image_id", "weight", "probability"],
        [ids[0], "1.0", "0.5"], [ids[1], "0.5", "0.25"], [ids[2], "0.5", "0.25"],
    ]


#: sha256 of the outputs of the other consumers of image ingest, pinned to
#: what the record-based ingest produced: ``favfa weights`` and ``favfa
#: diversity`` on data/demo, and the ``favfa plan`` JSONL of
#: write_planner_inputs for two sets of flags.
WEIGHTS_PIN = "24e99f18fbde3b30509b03f2ba27c604f915b966ef5b4be7dc31e8aeaabd4a0d"
DIVERSITY_PIN = "04b2332c793127ee9b28b47c669706381e38e803d3cab73243a244073dedf686"
PLAN_PINS = {
    ("8", "8", "1"): "0f2489c596b033b4d30005e0bacb51a8eaaeccc38216eb91deea15cd923d2f0a",
    ("16", "5", "3"): "4762bc3ef218d68949f5cb9ededbf59d5dc50407489c87ea122648f02c19b4ab",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_weights_and_diversity_pinned(tmp_path):
    schema, images = str(DEMO / "schema.json"), str(DEMO / "images.csv")
    out = tmp_path / "weights.csv"
    result = CliRunner().invoke(main, ["weights", "--schema", schema, "--images", images,
                                       "--attrs", "gender,ethnicity,age,pose", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sha256(out.read_bytes()) == WEIGHTS_PIN
    result = CliRunner().invoke(main, ["diversity", "--schema", schema, "--images", images])
    assert result.exit_code == 0, result.output
    assert sha256(result.stdout_bytes) == DIVERSITY_PIN


@pytest.mark.parametrize(("n_identities", "samples", "seed"), sorted(PLAN_PINS))
def test_plan_jsonl_pinned(tmp_path, n_identities, samples, seed):
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path)
    out = tmp_path / "plan.jsonl"
    result = CliRunner().invoke(
        main,
        ["plan", "--schema", str(schema_path), "--ids", str(ids_path),
         "--styles", str(styles_path), "--n-identities", n_identities, "--samples", samples,
         "--seed", seed, "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert sha256(out.read_bytes()) == PLAN_PINS[(n_identities, samples, seed)]


def undecodable(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\xff\n")


def overlong(path: Path) -> None:
    import csv

    with path.open("a", encoding="utf-8") as fh:
        fh.write("x" * (csv.field_size_limit() + 1) + "\n")


PLAN_ARGS = ["plan", "--schema", "{schema}", "--ids", "{ids}", "--styles", "{styles}",
             "--n-identities", "8", "--samples", "4", "--out", "{out}"]
ANALYZE_ARGS = ["analyze", "--schema", "{schema}", "--images", "{images}", "--pairs", "{pairs}",
                "--out", "{out}"]
IMAGES_ONLY = ["--schema", "{schema}", "--images", "{images}"]
WEIGHTS_ARGS = ["weights", *IMAGES_ONLY, "--attrs", "gender", "--out", "{out}"]


def input_paths(tmp_path, command, out):
    """The demo and planner inputs copied under ``tmp_path / "in"``, by the
    names the argument lists use."""
    shutil.copytree(DEMO, tmp_path / "in")
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path / "in")
    return {
        "images": tmp_path / "in" / "images.csv",
        "pairs": tmp_path / "in" / "pairs.csv",
        "ids": ids_path,
        "styles": styles_path,
        "schema": schema_path if command == "plan" else tmp_path / "in" / "schema.json",
        "out": out,
    }


def unreadable_cases():
    for damage in (undecodable, overlong):
        for target in ("images", "pairs"):
            yield ANALYZE_ARGS, target, damage
        yield ["diversity", *IMAGES_ONLY], "images", damage
        yield WEIGHTS_ARGS, "images", damage
        for target in ("ids", "styles"):
            yield PLAN_ARGS, target, damage
    for args in (ANALYZE_ARGS, PLAN_ARGS, ["diversity", *IMAGES_ONLY]):
        yield args, "schema", undecodable


@pytest.mark.parametrize(
    ("args", "target", "damage"),
    list(unreadable_cases()),
    ids=lambda v: v.__name__ if callable(v) else (v if isinstance(v, str) else v[0]),
)
def test_cli_unreadable_input_exit_1(tmp_path, args, target, damage):
    paths = input_paths(tmp_path, args[0], tmp_path / "out")
    damage(paths[target])
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert_one_json_error(result, "ParseError")
    assert str(paths[target]) in json.loads(result.stderr)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("args", "parent"),
    [(WEIGHTS_ARGS, "missing"), (WEIGHTS_ARGS, "file"), (PLAN_ARGS, "missing"),
     (PLAN_ARGS, "file"), (ANALYZE_ARGS, "file")],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_cli_unwritable_out_exit_1(tmp_path, args, parent):
    # --out under a directory that does not exist, or under a regular file
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / parent / "out"
    paths = input_paths(tmp_path, args[0], out)
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert_one_json_error(result, "OutputError")
    assert repr(str(out)) in json.loads(result.stderr)["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "in"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_cli_analyze_writes_nothing_outside_out(tmp_path, monkeypatch):
    # every bundle file is moved into place from inside --out, so an --out
    # that is a mount point of its own is written like any other directory
    moves = []
    real_replace = os.replace

    def spy(src, dst, *args, **kwargs):
        moves.append((Path(src), Path(dst)))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    out = tmp_path / "parent" / "out"
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", out))
    assert result.exit_code == 0, result.output
    assert sorted(dst.name for _, dst in moves) == sorted(BUNDLE)
    assert [src.parent for src, _ in moves] == [out] * len(BUNDLE)
    assert [dst.parent for _, dst in moves] == [out] * len(BUNDLE)
    assert [p.name for p in out.parent.iterdir()] == ["out"]
    assert sorted(p.name for p in out.iterdir()) == sorted(BUNDLE)


@pytest.mark.parametrize("nth", [1, 6, len(BUNDLE)])
def test_cli_analyze_failed_write_keeps_earlier_bundle(tmp_path, monkeypatch, nth):
    # the write of the nth bundle file fails with ENOSPC after a few bytes
    out = tmp_path / "out"
    args = demo_args(DEMO / "pairs.csv", out)
    assert CliRunner().invoke(main, [*args, "--seed", "4"]).exit_code == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    written = []
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            self.fh.write(next(iter(chunks))[:10])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_filling_the_disk(file, mode="r", **kwargs):
        fh = real_open(file, mode, **kwargs)
        if "r" in mode:
            return fh
        written.append(str(file))
        return FullDisk(fh) if len(written) == nth else fh

    monkeypatch.setattr(favfa.util, "open", open_filling_the_disk, raising=False)
    result = CliRunner().invoke(main, [*args, "--seed", "3"])
    assert_one_json_error(result, "OutputError")
    assert len(written) == nth
    target = written[-1].removesuffix(f".{os.getpid()}.tmp")
    assert Path(target).parent == out and Path(target).name in BUNDLE
    message = json.loads(result.stderr)["message"]
    assert repr(target) in message and os.strerror(errno.ENOSPC) in message
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    assert not list(tmp_path.rglob("*.tmp"))


def test_bundle_headers_and_keys_pinned(demo_dir, tmp_path):
    # headers and keys come from the dataclass fields: a field added to
    # GroupStats or MarginalEffect shows up here
    out = tmp_path / "out"
    run_analysis(config_for(demo_dir, out, bootstrap=5))
    fit = "term,estimate,std_error,z,p_value"
    anova = "name,df,sum_squares,eta_squared"
    headers = {
        name: (out / name).read_text().split("\n", 1)[0]
        for name in BUNDLE if name.endswith(".csv")
    }
    assert headers == {
        "per_group.csv": "group,n_pos,n_neg,tp,fp,tn,fn,tmr,fmr,accuracy,selection_rate,included",
        "logit_tmr.csv": fit,
        "logit_fmr.csv": fit,
        "anova_pos.csv": anova,
        "anova_neg.csv": anova,
        "marginal_effects.csv": (
            "model,attribute,level,unit,estimate,std_error,p_value,significant,bootstrap_se"
        ),
    }
    report = json.loads((out / "fairness_report.json").read_text())
    assert {frozenset(g) for g in report["per_group"]} == {frozenset({
        "group", "n_pos", "n_neg", "tp", "fp", "tn", "fn", "tmr", "fmr", "accuracy",
        "selection_rate",
    })}
    effects = json.loads((out / "marginal_effects.json").read_text())
    assert sorted(effects) == ["fmr", "tmr"]
    assert {frozenset(e) for model in effects.values() for e in model} == {frozenset({
        "attribute", "level", "unit", "estimate", "std_error", "p_value", "significant",
        "bootstrap_se", "interpretation",
    })}
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert sorted(diagnostics) == ["fmr", "tmr"]
    assert {frozenset(d) for d in diagnostics.values()} == {frozenset({
        "ks_statistic", "ks_p_value", "dispersion_ratio", "dispersion_p", "n_observations",
        "seed", "scaled_residuals",
    })}


def test_analysis_options_stated_once(tmp_path):
    # the analyze options are AnalysisConfig's fields, and the manifest's
    # config block is those fields but the paths
    names = {f.name for f in dataclasses.fields(AnalysisConfig)}
    assert {p.name for p in cmd_analyze.params} == names
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, [*demo_args(DEMO / "pairs.csv", out), "--factor-order", "age,gender", "--alpha", "0.01"]
    )
    assert result.exit_code == 0, result.output
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert set(config) == names - {"schema_path", "images_path", "pairs_path", "out_dir"}
    assert config["factor_order"] == ["age", "gender"] and config["alpha"] == 0.01


@pytest.mark.parametrize(
    "args",
    [[*ANALYZE_ARGS, "--factor-order", ","], [*ANALYZE_ARGS, "--group-by", " , "],
     [*WEIGHTS_ARGS, "--attrs", ","]],
    ids=["factor-order", "group-by", "attrs"],
)
def test_cli_list_naming_no_attribute_is_a_usage_error(tmp_path, args):
    paths = input_paths(tmp_path, args[0], tmp_path / "out")
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 2, result.output
    assert "names no attribute" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert not (tmp_path / "out").exists()


def test_bundle_digest_missing_path_is_a_usage_error(tmp_path):
    script = REPO / "scripts" / "bundle_digest.py"
    (tmp_path / "a").mkdir()
    missing = tmp_path / "nope"
    for args in ([missing], [tmp_path / "a", missing], [missing, tmp_path / "a"]):
        result = subprocess.run(
            [sys.executable, str(script), *map(str, args)], capture_output=True, text=True
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"usage: bundle_digest.py PATH [PATH2]: no such file or directory: {missing}"
        ]


def test_bundle_digest_compares_two_files(tmp_path):
    script = REPO / "scripts" / "bundle_digest.py"
    (tmp_path / "a.jsonl").write_text("1\n")
    (tmp_path / "b.jsonl").write_text("2\n")
    (tmp_path / "c.jsonl").write_text("1\n")

    def run(*paths):
        return subprocess.run(
            [sys.executable, str(script), *map(str, paths)], capture_output=True, text=True
        )

    single = run(tmp_path / "a.jsonl")
    assert (single.returncode, single.stdout) == (0, f"{sha256(b'1' + bytes([10]))}  a.jsonl\n")
    differ = run(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [
        f"a.jsonl  {sha256(bytes([49, 10]))}  {sha256(bytes([50, 10]))}"
        "  differing lines 1, first at line 1",
        "differ (1): a.jsonl",
    ]
    same = run(tmp_path / "a.jsonl", tmp_path / "c.jsonl")
    assert (same.returncode, same.stdout.splitlines()[-1]) == (0, "differ (0): none")


def test_bundle_digest_reports_differing_jsonl_lines(tmp_path):
    script = REPO / "scripts" / "bundle_digest.py"
    lines = [json.dumps({"id_image": f"id{i}"}) for i in range(6)]
    (tmp_path / "a.jsonl").write_text("\n".join(lines) + "\n")
    lines[2], lines[4] = lines[4], lines[2]
    (tmp_path / "b.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "c.jsonl").write_text("\n".join(lines))

    def tail(first, second):
        result = subprocess.run(
            [sys.executable, str(script), str(tmp_path / first), str(tmp_path / second)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        return result.stdout.splitlines()[0].split("  ", 3)[3]

    assert tail("a.jsonl", "b.jsonl") == "differing lines 2, first at line 3"
    assert tail("b.jsonl", "c.jsonl") == "layouts differ"


def test_bundle_digest_reports_numeric_differences(tmp_path):
    script = REPO / "scripts" / "bundle_digest.py"
    for side, se, flag in (("a", "0.25", "yes"), ("b", "0.2500000000000001", "yes"),
                           ("c", "0.2500000000000001", "no")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "effects.csv").write_text(f"x,se,significant\n-0.0,{se},{flag}\n")
        (tmp_path / side / "effects.json").write_text(
            json.dumps({"se": [float(se), None], "significant": flag == "yes"})
        )
    (tmp_path / "c" / "effects.json").write_text(json.dumps({"se": [0.25]}))

    def lines(first, second):
        result = subprocess.run(
            [sys.executable, str(script), str(tmp_path / first), str(tmp_path / second)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        return {line.split()[0]: line.split("  ", 3)[3] for line in result.stdout.splitlines()[:-1]}

    rel = f"{(0.2500000000000001 - 0.25) / 0.2500000000000001:.2e}"
    assert lines("a", "b") == {
        "effects.csv": f"max relative difference {rel}, non-numeric differences 0",
        "effects.json": f"max relative difference {rel}, non-numeric differences 0",
    }
    assert lines("a", "c") == {
        "effects.csv": f"max relative difference {rel}, non-numeric differences 1",
        "effects.json": "layouts differ",
    }


def test_perfbench_wrapped_names_resolve():
    """Every function the benchmark's tracer wraps is still where it looks."""
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    ]
    assert wrapped
    for module, attr, _ in wrapped:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
