"""Print the sha256 of every file in an analysis bundle, or compare two bundles.

    python scripts/bundle_digest.py DIR          # "<sha256>  <name>" per file
    python scripts/bundle_digest.py DIR DIR2     # one line per file, then the
                                                 # files that differ

With two directories, each line reads ``<name>  <sha256 in DIR>  <sha256 in
DIR2>``, with ``-`` for a file that one side lacks, and the last line lists
the files whose bytes differ. The exit code is 0 when the bundles are
byte-identical and 1 otherwise. ``run_manifest.json`` records the input
paths, so it differs between runs that read the same inputs from different
places.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def digests(directory: Path) -> dict[str, str]:
    """sha256 hex digest of each file directly inside ``directory``, by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bundle_digest.py DIR [DIR2]", file=sys.stderr)
        return 2
    first = digests(Path(argv[0]))
    if len(argv) == 1:
        for name, digest in first.items():
            print(f"{digest}  {name}")
        return 0
    second = digests(Path(argv[1]))
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
