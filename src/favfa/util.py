"""Small shared helpers: seed derivation, canonical JSON, file hashing, and
the one CSV encoder and atomic file writer every output goes through."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable, Mapping

from .errors import OutputError


def named_seed(seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for the named random stream of a run."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, no NaN."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def sha256_hex(path: str | Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            hasher.update(block)
    return hasher.hexdigest()


def cell(value: object) -> object:
    """One CSV cell: a float as its repr, None as empty, a boolean as yes/no,
    anything else as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return value


def csv_text(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    """CSV text of a header row and the ``rows``, every value through
    :func:`cell`, lines ended by ``\\n``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(cell, row) for row in rows)
    return buffer.getvalue()


def write_files(files: Mapping[Path, Iterable[str]]) -> None:
    """Write each file's text chunks to a temporary sibling
    (``<file>.<pid>.tmp``, opened exclusively), then move every sibling onto
    its file once all are written.

    Nothing is written outside the files' own directories. On any failure
    the siblings are removed, so no partial file is left and every earlier
    file keeps its bytes; an OSError is raised as an OutputError naming the
    file that failed.
    """
    pid = os.getpid()
    siblings: list[str] = []
    try:
        for path, chunks in files.items():
            tmp = f"{path}.{pid}.tmp"
            with open(tmp, "x", encoding="utf-8") as fh:
                siblings.append(tmp)
                fh.writelines(chunks)
        for path, tmp in zip(files, siblings):
            os.replace(tmp, path)
    except BaseException as error:
        for tmp in siblings:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(error, OSError):
            raise OutputError(path, error) from error
        raise
