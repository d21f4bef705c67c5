from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from click.testing import CliRunner

import favfa.cli
from favfa.cli import main
from favfa.data import consolidate_identity_attributes, load_images
from favfa.planner import assign_styles, plan_to_jsonl, select_id_pool
from favfa.report import AnalysisConfig, run_analysis
from favfa.schema import load_schema
from favfa.synth import make_verification_dataset, write_dataset
from favfa.util import named_seed

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


def test_run_analysis_deterministic_across_dirs(demo_dir, tmp_path):
    run_analysis(config_for(demo_dir, tmp_path / "a"))
    run_analysis(config_for(demo_dir, tmp_path / "b"))
    for name in BUNDLE:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_run_analysis_threads_do_not_change_bytes(demo_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("FAVFA_THREADS", "1")
    run_analysis(config_for(demo_dir, tmp_path / "single"))
    monkeypatch.setenv("FAVFA_THREADS", "4")
    run_analysis(config_for(demo_dir, tmp_path / "multi"))
    for name in BUNDLE:
        assert (tmp_path / "single" / name).read_bytes() == (tmp_path / "multi" / name).read_bytes()


def test_run_analysis_threads_do_not_change_bootstrap_bytes(demo_dir, tmp_path, monkeypatch):
    for threads in ("1", "4"):
        monkeypatch.setenv("FAVFA_THREADS", threads)
        run_analysis(config_for(demo_dir, tmp_path / threads, bootstrap=30))
    for name in BUNDLE:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes(), name


def test_manifest_records_bootstrap_counts(demo_dir, tmp_path):
    result = run_analysis(config_for(demo_dir, tmp_path / "boot", bootstrap=25))
    manifest = json.loads((tmp_path / "boot" / "run_manifest.json").read_text())
    assert manifest["bootstrap"] == {"requested": 25, "used": result.bootstrap_used}
    assert sorted(result.bootstrap_used) == ["fmr", "tmr"]
    assert all(0 < used <= 25 for used in result.bootstrap_used.values())
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


def test_cli_analyze_bad_thread_count_exit_1(demo_dir, tmp_path):
    result = CliRunner().invoke(
        main,
        ["analyze", "--schema", str(demo_dir / "schema.json"),
         "--images", str(demo_dir / "images.csv"),
         "--pairs", str(demo_dir / "pairs.csv"), "--out", str(tmp_path / "nope")],
        env={"FAVFA_THREADS": "abc"},
    )
    assert_one_json_error(result, "ParseError")
    assert not (tmp_path / "nope" / "fairness_report.json").exists()


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


#: sha256 of marginal_effects.csv for ``favfa analyze --bootstrap 20`` on
#: data/demo: the delta-method and bootstrap columns, pinned for determinism.
BOOTSTRAP_EFFECTS_PIN = "81ed7a3676c9c0bd60651c1a4cdd686b0bb0aeab0975973a97fef54500291bb5"


def test_demo_bootstrap_effects_pinned(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, demo_args(DEMO / "pairs.csv", out) + ["--bootstrap", "20"])
    assert result.exit_code == 0, result.output
    assert sha256((out / "marginal_effects.csv").read_bytes()) == BOOTSTRAP_EFFECTS_PIN


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


def write_planner_inputs(tmp_path):
    from favfa.schema import schema_to_dict
    from favfa.synth import make_planner_pools
    from favfa.util import canonical_json

    schema, ids, styles = make_planner_pools(ids_per_cell=2, styles_per_segment=40)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(canonical_json(schema_to_dict(schema)))

    def dump(table, path):
        rows = ["image_id,identity_id,gender,ethnicity,age,pose"]
        for rec in table:
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


def unreadable_cases():
    plan = ["plan", "--schema", "{schema}", "--ids", "{ids}", "--styles", "{styles}",
            "--n-identities", "8", "--samples", "4", "--out", "{out}"]
    analyze = ["analyze", "--schema", "{schema}", "--images", "{images}", "--pairs", "{pairs}",
               "--out", "{out}"]
    images_only = ["--schema", "{schema}", "--images", "{images}"]
    for damage in (undecodable, overlong):
        for target in ("images", "pairs"):
            yield analyze, target, damage
        yield ["diversity", *images_only], "images", damage
        yield ["weights", *images_only, "--attrs", "gender", "--out", "{out}"], "images", damage
        for target in ("ids", "styles"):
            yield plan, target, damage
    for args in (analyze, plan, ["diversity", *images_only]):
        yield args, "schema", undecodable


@pytest.mark.parametrize(
    ("args", "target", "damage"),
    list(unreadable_cases()),
    ids=lambda v: v.__name__ if callable(v) else (v if isinstance(v, str) else v[0]),
)
def test_cli_unreadable_input_exit_1(tmp_path, args, target, damage):
    shutil.copytree(DEMO, tmp_path / "in")
    schema_path, ids_path, styles_path = write_planner_inputs(tmp_path / "in")
    paths = {
        "images": tmp_path / "in" / "images.csv",
        "pairs": tmp_path / "in" / "pairs.csv",
        "ids": ids_path,
        "styles": styles_path,
        "schema": schema_path if args[0] == "plan" else tmp_path / "in" / "schema.json",
        "out": tmp_path / "out",
    }
    damage(paths[target])
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert_one_json_error(result, "ParseError")
    assert str(paths[target]) in json.loads(result.stderr)["message"]
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
        f"a.jsonl  {sha256(bytes([49, 10]))}  {sha256(bytes([50, 10]))}",
        "differ (1): a.jsonl",
    ]
    same = run(tmp_path / "a.jsonl", tmp_path / "c.jsonl")
    assert (same.returncode, same.stdout.splitlines()[-1]) == (0, "differ (0): none")


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
