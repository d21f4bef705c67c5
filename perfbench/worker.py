"""Runs favfa operations through the click entry point and times them.

    python3 perfbench/worker.py <job.json> <result.json>

The job names the source tree to import favfa from, one round of CLI
argument lists, how long to keep starting rounds, whether to trace, and the
set-up command to time between rounds (none when tracing). Every round
runs whole, so each run attempts the same operations in the same
proportions. Only the CLI call is timed; hashing and sizing its outputs
happen after the clock stops. The result holds one record per operation, the
set-up times, the process's peak resident memory and, when tracing, the
recorded spans.

A traced job runs each operation three times in a row: untraced, with spans,
and with spans plus allocation peaks. The first and second give the tracing
overhead; the second the layer timings; the third the allocation peaks.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: Least time between two set-up samples. A sample costs about 1.3 s, so on a
#: workload of short rounds one after every round would crowd out operations.
SETUP_EVERY_S = 6.0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(out: Path) -> dict[str, dict]:
    """Size and sha256 of each file an operation left at ``out``."""
    if out.is_dir():
        files = sorted(p for p in out.iterdir() if p.is_file())
    elif out.is_file():
        files = [out]
    else:
        files = []
    return {p.name: {"bytes": p.stat().st_size, "sha256": _digest(p)} for p in files}


def _remove(out: Path) -> None:
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()


def _invoke(main, args: list[str]) -> tuple[int, str, float]:
    """One CLI invocation: exit code, captured stderr, wall seconds. An
    exception that escapes the CLI is recorded with its traceback and exit
    code -1, and the run goes on, so the checks can report it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main.main(args=args, prog_name="favfa")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, stderr.getvalue(), time.perf_counter() - start


def _setup_seconds(cmd: list[str]) -> float:
    """Wall time of the set-up command, run in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"set-up command failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def run(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import favfa.cli

    if src not in Path(favfa.cli.__file__).resolve().parents:
        raise SystemExit(f"favfa was imported from {favfa.cli.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
    modes = ("plain", "spans", "alloc") if tracer else ("plain",)
    keep = Path(job["keep"])

    def one(op_id: int, op: dict, mode: str) -> dict:
        out = Path(op["out"])
        _remove(out)
        gc.collect()
        if mode != "plain":
            tracer.install(alloc=mode == "alloc")
            tracer.begin_op(op_id)
        try:
            code, stderr, seconds = _invoke(favfa.cli.main, op["args"])
        finally:
            if mode != "plain":
                tracer.end_op()
                tracer.uninstall()
        outputs = _outputs(out)
        record = {"id": op_id, "key": op["key"], "mode": mode, "exit": code,
                  "stderr": stderr, "seconds": seconds, "outputs": outputs}
        kept = keep / op["key"]
        if code == 0 and not kept.exists():
            if out.is_dir():
                shutil.move(str(out), str(kept))
            else:
                kept.mkdir(parents=True)
                shutil.move(str(out), str(kept / out.name))
        else:
            _remove(out)
        return record

    records: list[dict] = []
    setup: list[float] = []
    rounds = 0
    start = last_setup = time.perf_counter()
    while not records or time.perf_counter() - start < job["seconds"]:
        for op in job["round"]:
            for mode in modes:
                records.append(one(len(records), op, mode))
        rounds += 1
        if job["setup_cmd"] and time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(_setup_seconds(job["setup_cmd"]))
            last_setup = time.perf_counter()
    result = {
        "ops": records,
        "rounds": rounds,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "measured_s": time.perf_counter() - start,
    }
    if tracer:
        result["spans"] = spans.span_records(tracer)
    return result


def main(argv: list[str]) -> None:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(job)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
