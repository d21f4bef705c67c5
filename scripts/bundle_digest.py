"""Print the sha256 of every file in an analysis bundle, or compare two bundles.

    python scripts/bundle_digest.py PATH           # "<sha256>  <name>" per file
    python scripts/bundle_digest.py PATH PATH2     # one line per file, then the
                                                   # files that differ

Each PATH is a bundle directory or a single file, such as a plan JSONL or a
weights CSV. With two paths, each line reads ``<name>  <sha256 in PATH>
<sha256 in PATH2>``, with ``-`` for a file that one side lacks, and the last
line lists the files whose bytes differ; two files are compared with each
other under the first one's name. The exit code is 0 when both sides are
byte-identical and 1 otherwise. ``run_manifest.json`` records the input
paths, so it differs between runs that read the same inputs from different
places.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def digests(path: Path) -> dict[str, str]:
    """sha256 hex digest of each file directly inside ``path``, by name, or
    of ``path`` itself when it is a file."""
    files = [path] if path.is_file() else sorted(p for p in path.iterdir() if p.is_file())
    return {file.name: hashlib.sha256(file.read_bytes()).hexdigest() for file in files}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bundle_digest.py PATH [PATH2]", file=sys.stderr)
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
        print(f"{name}  {a}  {b}")
        if a != b:
            differ.append(name)
    print(f"differ ({len(differ)}): {', '.join(differ) if differ else 'none'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
