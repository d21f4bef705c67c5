"""Print the sha256 of every file in an analysis bundle, or compare two bundles.

    python scripts/bundle_digest.py PATH           # "<sha256>  <name>" per file
    python scripts/bundle_digest.py PATH PATH2     # one line per file, then the
                                                   # files that differ

Each PATH is a bundle directory or a single file, such as a plan JSONL or a
weights CSV. With two paths, each line reads ``<name>  <sha256 in PATH>
<sha256 in PATH2>``, with ``-`` for a file that one side lacks, and the last
line lists the files whose bytes differ; two files are compared with each
other under the first one's name. The exit code is 0 when both sides are
byte-identical, 1 otherwise, and 2 on a usage error (a wrong number of
arguments, or a PATH that does not exist). ``run_manifest.json`` records the
input paths, so it differs between runs that read the same inputs from
different places.

For a ``.csv`` or ``.json`` file whose bytes differ, the line goes on with
the largest relative difference ``|a - b| / max(|a|, |b|)`` between the
numbers at the same position (cell, or key path) of the two files and the
count of other values that differ (text, booleans, null against a number),
or ``layouts differ`` when the rows, keys or list lengths do not line up
(or a file is not UTF-8 CSV or JSON)::

    marginal_effects.csv  <sha256>  <sha256>  max relative difference 1.72e-15, non-numeric differences 0
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path


USAGE = "usage: bundle_digest.py PATH [PATH2]"


def digests(path: Path) -> dict[str, str]:
    """sha256 hex digest of each file directly inside ``path``, by name, or
    of ``path`` itself when it is a file."""
    files = [path] if path.is_file() else sorted(p for p in path.iterdir() if p.is_file())
    return {file.name: hashlib.sha256(file.read_bytes()).hexdigest() for file in files}


class LayoutDiffers(Exception):
    """The two files' values do not line up position by position."""


def _relative(a: float, b: float) -> float | None:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(a - b) / max(abs(a), abs(b))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_pairs(a: object, b: object):
    """Leaf values of two JSON documents, paired by position."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise LayoutDiffers
        for key in a:
            yield from _json_pairs(a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise LayoutDiffers
        for x, y in zip(a, b):
            yield from _json_pairs(x, y)
    elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        raise LayoutDiffers
    else:
        yield a, b


def _csv_pairs(a: str, b: str):
    """Cells of two CSV texts, paired by position; numeric cells as floats."""
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if len(rows_a) != len(rows_b) or any(len(x) != len(y) for x, y in zip(rows_a, rows_b)):
        raise LayoutDiffers
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            try:
                yield float(x), float(y)
            except ValueError:
                yield x, y


def numeric_difference(a: Path, b: Path) -> str:
    """How the values of two CSV or JSON files differ, as one phrase."""
    largest, other = 0.0, 0
    try:
        text_a, text_b = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
        if a.suffix == ".json":
            pairs = list(_json_pairs(json.loads(text_a), json.loads(text_b)))
        else:
            pairs = list(_csv_pairs(text_a, text_b))
    except (LayoutDiffers, UnicodeDecodeError, json.JSONDecodeError):
        return "layouts differ"
    for x, y in pairs:
        rel = _relative(x, y) if _is_number(x) and _is_number(y) else None
        if rel is not None:
            largest = max(largest, rel)
        elif x != y:
            other += 1
    return f"max relative difference {largest:.2e}, non-numeric differences {other}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    for arg in argv:
        if not Path(arg).exists():
            print(f"{USAGE}: no such file or directory: {arg}", file=sys.stderr)
            return 2
    first = digests(Path(argv[0]))
    if len(argv) == 1:
        for name, digest in first.items():
            print(f"{digest}  {name}")
        return 0
    second = digests(Path(argv[1]))
    if Path(argv[0]).is_file() and Path(argv[1]).is_file():
        second = dict(zip(first, second.values()))
    differ = []
    for name in sorted(first.keys() | second.keys()):
        a, b = first.get(name, "-"), second.get(name, "-")
        line = f"{name}  {a}  {b}"
        if a != b:
            differ.append(name)
            if "-" not in (a, b) and Path(name).suffix in (".csv", ".json"):
                line += "  " + numeric_difference(
                    *(p / name if p.is_dir() else p for p in map(Path, argv))
                )
        print(line)
    print(f"differ ({len(differ)}): {', '.join(differ) if differ else 'none'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
