"""Run one workload as two sets of runs and compare them against the bounds.

    python3 perfbench/compare.py --workload analyze-24k [--seconds N]

Each set runs the command in BENCHMARK.json ten times, with seeds 1-10 and
11-20. For every end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) and the drift of the
second median from the first, each against the metric's bound, and whether
the failed share of operations is the same in both sets. Exits 1 if
anything is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # the run's full record also says how many rounds fitted in the run
    record = HERE / "results" / f"{workload}-seed{seed}-run.json"
    result["rounds"] = json.loads(record.read_text(encoding="utf-8"))["rounds"]
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    sets = []
    seed = 1
    for number in range(SETS):
        runs = []
        for _ in range(RUNS):
            result = run_once(bench, args.workload, seed, args.seconds)
            print(f"set {number + 1} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                  + f" attempted={result['attempted']} failed={result['failed']}"
                  + f" rounds={result['rounds']}", flush=True)
            runs.append(result)
            seed += 1
        sets.append(runs)

    ok = True
    summary = {"workload": args.workload, "runs": RUNS, "seconds": args.seconds, "metrics": {}}
    print(f"\n{'metric':<14}{'set':>4}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        entry = summary["metrics"][name] = {"bound": bound, "sets": []}
        for number, runs in enumerate(sets, 1):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            s = spread(values)
            held = s <= bound
            ok &= held
            entry["sets"].append({"q1": q1, "median": median, "q3": q3, "spread": s, "values": values})
            print(f"{name:<14}{number:>4}{q1:>14.6g}{median:>14.6g}{q3:>14.6g}{s:>9.4f}{bound:>8}"
                  + ("" if held else "  SPREAD OVER BOUND"))
        drift = worse_by(entry["sets"][0]["median"], entry["sets"][1]["median"], metric["better"])
        entry["drift"] = drift
        held = drift <= bound
        ok &= held
        print(f"{'':<14}second median worse by {drift:+.4f} (bound {bound})"
              + ("" if held else "  DRIFT OVER BOUND"))
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    same_share = len(set().union(*shares)) == 1
    ok &= same_share
    summary["failed_shares"] = [sorted(s) for s in shares]
    summary["rounds"] = [[r["rounds"] for r in runs] for runs in sets]
    print(f"failed share per run: {summary['failed_shares']}" + ("" if same_share else "  DIFFERS"))
    print("AGREE" if ok else "DISAGREE")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"compare-{args.workload}.json").write_text(json.dumps(summary, indent=1) + "\n",
                                                          encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
