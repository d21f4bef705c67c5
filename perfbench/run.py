"""Benchmark of `favfa analyze` and `favfa plan`, run from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One run measures the set-up cost of a fresh interpreter importing favfa.cli,
writes the workload's inputs from a separate generator process, runs whole
rounds of CLI operations in a worker process for ``--seconds`` seconds,
checks every output against computations made here, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and the metrics. ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones. The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    # RFW-sized analysis: ingest, group metrics, ANOVA, diagnostics and
    # bundle writing dominate; two IRLS fits are a small share
    "analyze-24k": {"n_pairs": 24_000, "datasets": (0, 1, 2, 3), "extra": []},
    # repeated IRLS refits and marginal effects dominate
    "analyze-boot-12k": {"n_pairs": 12_000, "datasets": (0, 1, 2), "extra": ["--bootstrap", "100"]},
    # DCFace scale: 10k identities × 50 styles, all planner and serialisation
    "plan-10k": {"n_identities": 10_000, "samples": 50},
}

#: Fresh imports before the worker starts; the worker adds one between rounds
#: every few seconds, so ``setup_s`` samples the whole run.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
SETUP_CMD = [sys.executable, "-c", "import favfa.cli"]


def declared(kind: str) -> dict[str, str]:
    """Name and unit of each metric BENCHMARK.json lists under ``kind``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


IMPORT_PREFIX = "setup.import."
#: Modules whose import time the traced run reports: the favfa modules, plus
#: the one third-party module that dominates it today.
IMPORT_MODULES = tuple(
    name[len(IMPORT_PREFIX):-len("_s")] for name in declared("per_layer") if name.startswith(IMPORT_PREFIX)
)
#: Seconds beyond --seconds a worker may take before the run is abandoned:
#: a round that starts just before the deadline runs to its end.
WORKER_GRACE_S = 110


class BenchError(Exception):
    """The run could not be carried out."""


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def fresh_import(cwd: Path, importtime: bool = False) -> tuple[float, str]:
    """Wall time of a new interpreter that imports favfa.cli, and its stderr."""
    cmd = SETUP_CMD[:1] + (["-X", "importtime"] if importtime else []) + SETUP_CMD[1:]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), cwd=cwd, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"importing favfa.cli failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def import_times(text: str) -> dict[str, float]:
    """Seconds each module in IMPORT_MODULES costs, from ``-X importtime``.

    favfa modules are read from their own line's cumulative time. scipy
    loads scipy.stats through a module ``__getattr__``, so the package gets
    no line of its own; its cost is the sum of the cumulative times of the
    scipy.stats.* lines that no other scipy.stats line encloses.
    """
    rows = []
    for line in text.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\| (\s*)(\S+)", line)
        if match:
            rows.append((len(match.group(2)) // 2, match.group(3), int(match.group(1)) / 1e6))
    out = dict.fromkeys(IMPORT_MODULES, 0.0)
    ancestors: list[tuple[int, str]] = []
    # lines come children first, so walk backwards to meet each parent first
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        ancestors.append((depth, name))
        if name in out and not name.startswith("scipy.stats"):
            out[name] = cumulative
        elif name.startswith("scipy.stats.") and not parent.startswith("scipy.stats"):
            out["scipy.stats"] += cumulative
    return out


def generate(kind: str, out: Path, *args: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), kind, str(out), *map(str, args)],
        check=True, timeout=120,
    )
    with np.load(out / "truth.npz") as data:
        return {k: data[k] for k in data.files}


def build(workload: str, seed: int, work: Path) -> tuple[list[dict], dict]:
    """One round of operations, and what the checks need per input."""
    spec = WORKLOADS[workload]
    inputs = work / "inputs"
    out = work / "out"
    out.mkdir(parents=True)
    if workload == "plan-10k":
        truth = generate("plan", inputs, seed)
        op = {
            "key": "plan",
            "out": str(out / "plan.jsonl"),
            "args": ["plan", "--schema", str(inputs / "schema.json"), "--ids", str(inputs / "ids.csv"),
                     "--styles", str(inputs / "styles.csv"),
                     "--n-identities", str(spec["n_identities"]), "--samples", str(spec["samples"]),
                     "--seed", str(seed), "--out", str(out / "plan.jsonl")],
        }
        return [op], {"plan": {"truth": truth, "dir": inputs}}

    # The sets, and the analysis seed each is run with, are fixed: whether
    # IRLS stalls depends on them, and every run must fail the same share of
    # operations. The run's seed picks where the rotation starts.
    datasets = spec["datasets"]
    start = seed % len(datasets)
    ops, inputs_by_key = [], {}
    for dataset in datasets[start:] + datasets[:start]:
        key = f"set{dataset}"
        d = inputs / key
        truth = generate("pairs", d, dataset, spec["n_pairs"])
        ops.append({
            "key": key,
            "out": str(out / key),
            "args": ["analyze", "--schema", str(d / "schema.json"), "--images", str(d / "images.csv"),
                     "--pairs", str(d / "pairs.csv"), "--out", str(out / key),
                     "--min-support", str(checks.MIN_SUPPORT), "--seed", str(dataset), *spec["extra"]],
        })
        inputs_by_key[key] = {"truth": truth, "dir": d}
    return ops, inputs_by_key


def run_worker(job: dict, work: Path) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env=_env(), cwd=work, capture_output=True, text=True, timeout=job["seconds"] + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check(workload: str, records: list[dict], inputs: dict, keep: Path) -> list[str]:
    spec = WORKLOADS[workload]
    problems = [p for r in records if r["exit"] != 0 for p in checks.check_failure(r)]
    if all(r["exit"] != 0 for r in records):
        problems.append("no operation succeeded")
    kept = {key: keep / key for key in inputs if (keep / key).exists()}
    problems += checks.check_repeats(records, kept)
    for key, path in sorted(kept.items()):
        truth, d = inputs[key]["truth"], inputs[key]["dir"]
        if workload == "plan-10k":
            found = checks.check_plan(path / "plan.jsonl", truth, d / "styles.csv", spec["n_identities"], spec["samples"])
        else:
            found = checks.check_threshold_and_groups(path, truth) + checks.check_models(path, truth)
            found += checks.check_manifest(path, {"schema": d / "schema.json", "images": d / "images.csv",
                                                  "pairs": d / "pairs.csv"})
            if "--bootstrap" in spec["extra"]:
                found += checks.check_bootstrap(path)
        problems += [f"{key}: {p}" for p in found]
    return problems


def per_input_median(records: list[dict], value) -> float:
    """Mean over inputs of the median ``value`` of the successful operations
    on each input. Inputs of one rotation differ in cost, so a plain median
    over all operations would jump between them from run to run. The run's
    first operation pays lazy imports and first-touch costs, so it is left
    out wherever its input has other successful operations."""
    by_key: dict[str, list[dict]] = {}
    for r in records:
        if r["exit"] == 0:
            by_key.setdefault(r["key"], []).append(r)
    if not by_key:
        return 0.0
    return statistics.fmean(
        statistics.median(value(r) for r in ([r for r in rs if r["id"] != 0] or rs))
        for rs in by_key.values()
    )


def _seconds(record: dict) -> float:
    return record["seconds"]


def _bytes(record: dict) -> float:
    return sum(o["bytes"] for o in record["outputs"].values())


def labelled(values: dict[str, float], kind: str) -> dict:
    """``values`` with the units BENCHMARK.json gives them under ``kind``.
    A name missing from either side fails the run."""
    units = declared(kind)
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"not emitted {sorted(set(units) - set(values))}, "
                         f"not listed {sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(records: list[dict], result: dict, setup: list[float]) -> dict:
    return labelled({
        "op_s": per_input_median(records, _seconds),
        "peak_rss_mb": result["peak_rss_mb"],
        "output_bytes": per_input_median(records, _bytes),
        "setup_s": statistics.median(setup),
    }, "end_to_end")


def per_layer(records: list[dict], result: dict, imports: list[dict[str, float]]) -> dict:
    by_mode = {m: [r for r in records if r["mode"] == m] for m in ("plain", "spans", "alloc")}
    layers = spans.layer_metrics(result["spans"], by_mode["spans"], by_mode["alloc"])
    layers["trace.op_s"] = per_input_median(by_mode["spans"], _seconds)
    layers["trace.overhead_s"] = layers["trace.op_s"] - per_input_median(by_mode["plain"], _seconds)
    layers["report.diagnostics_json_bytes"] = per_input_median(
        records, lambda r: r["outputs"].get("diagnostics.json", {}).get("bytes", 0))
    for module in IMPORT_MODULES:
        layers[f"{IMPORT_PREFIX}{module}_s"] = statistics.median(t[module] for t in imports)
    return labelled(layers, "per_layer")


def _phase(name: str, since: float) -> float:
    now = time.perf_counter()
    print(f"perfbench: {name} {now - since:.2f} s", file=sys.stderr)
    return now


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    t = time.perf_counter()
    # set-up first, before this process's own inputs and checks load the box
    if trace:
        imports = [import_times(fresh_import(work, importtime=True)[1]) for _ in range(IMPORT_REPEATS)]
    else:
        setup = [fresh_import(work)[0] for _ in range(SETUP_REPEATS)]
    t = _phase("setup", t)
    ops, inputs = build(workload, seed, work)
    t = _phase("inputs", t)
    keep = work / "keep"
    result = run_worker(
        {"src": str(SRC), "round": ops, "seconds": seconds, "trace": trace, "keep": str(keep),
         "setup_cmd": None if trace else SETUP_CMD}, work)
    records = result["ops"]
    t = _phase(f"worker ({result['rounds']} rounds in {result['measured_s']:.2f} s)", t)
    problems = check(workload, records, inputs, keep)
    t = _phase("checks", t)
    if trace:
        metrics = per_layer(records, result, imports)
    else:
        metrics = end_to_end(records, result, setup + result["setup_s"])
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["exit"] != 0 for r in records),
        "metrics": metrics,
        "rounds": result["rounds"],
        "problems": problems,
        "spans": result.get("spans", []),
        "ops": [{k: r[k] for k in ("id", "key", "mode", "exit", "seconds")} for r in records],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "favfa" / "cli.py").is_file():
        print(f"perfbench: no favfa source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=workdir))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}.json"
    (results / name).write_text(json.dumps(outcome, indent=1) + "\n", encoding="utf-8")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
