"""numpy's C parser against the block reader, on the same text.

``load_images`` and ``load_pairs`` read a file first through numpy's C
parser (``favfa.data._parsed_blocks``) and, wherever that parse might differ
from the csv module's or a check flags a row, again from the top through the
block reader (``favfa.data._csv_blocks``). Whatever the text, the two must
give the same frames, bit for bit, or raise the same error, and the first
may add no warning. Clean files must load without the block reader at all,
or a parser that always fell back would pass every other test.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.util
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import favfa.data
from conftest import block_reader_only, outcome, parser_only, route
from favfa.data import LevelCodes, consolidate_identity_attributes, load_images, load_pairs
from favfa.schema import (
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
    load_schema,
)
from test_cli_contract import DAMAGES, HUGE, OVERFLOWS, damaged

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "data" / "demo"


def frame_values(frame) -> dict:
    """Every field of a frame, arrays as their dtype, shape and bytes."""

    def value(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes()
        if isinstance(v, LevelCodes):
            return value(v.codes), v.levels
        if isinstance(v, dict):
            return {k: value(x) for k, x in v.items()}
        return v

    return {f.name: value(getattr(frame, f.name)) for f in dataclasses.fields(frame)}


def ingest(root: Path, schema) -> tuple[dict, dict]:
    images = load_images(root / "images.csv", schema)
    pairs = load_pairs(root / "pairs.csv", images)
    return frame_values(images), frame_values(pairs)


def both_routes(root: Path, schema):
    """The outcome of ingest as shipped and through the block reader alone,
    with the warnings each emitted."""
    results = []
    for name in ("parsed", "cells"):
        with route(name), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(ingest, root, schema)
        results.append((got, [str(w.message) for w in caught]))
    return results


def demo_texts() -> dict[str, str]:
    return {name: (DEMO / name).read_text(encoding="utf-8") for name in ("images.csv", "pairs.csv")}


def _rows(text: str) -> tuple[str, list[str]]:
    header, *rows = text.split("\n")[:-1]
    return header, rows


def _joined(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _set_cell(text: str, row: int, column: str, cell: str) -> str:
    header, rows = _rows(text)
    cells = rows[row].split(",")
    cells[header.split(",").index(column)] = cell
    rows[row] = ",".join(cells)
    return _joined(header, rows)


def _rename_image(texts: dict[str, str], where: int, new: str) -> None:
    """Give one image a new id in both files."""
    _, rows = _rows(texts["images.csv"])
    old = rows[where % len(rows)].split(",")[0]
    for name in texts:
        texts[name] = texts[name].replace(old + ",", new + ",")


#: Cells that are numbers to ``float()`` but not to numpy's C parser, or
#: that spell a value in an unusual way.
NUMBERS = [
    "1_0", "\u0663", "\uff11\uff12", "nan(1)", "Infinity", "-inf", "1e400", "-0.0", "+.5",
    "0x10", " 0.25 ", "\t1e-3", "1d3", "", "0." + "0" * csv.field_size_limit() + "1",
]

#: The columns of the demo files whose cells are numbers.
NUMBER_COLUMNS = {
    "images.csv": ["gender:Male", "ethnicity:Asian", "age", "pitch", "roll"],
    "pairs.csv": ["distance"],
}


def damage(texts: dict[str, str], kind: str, where: int) -> None:
    """Apply one damage of ``kind`` to the demo texts; ``where`` picks the
    file, row and cell."""
    target = ("images.csv", "pairs.csv")[where % 2]
    text = texts[target]
    header, rows = _rows(text)
    i = where % len(rows)
    if kind in DAMAGES:
        texts[target] = damaged(text, kind, where)
    elif kind in HUGE or kind in OVERFLOWS:
        name = "pairs.csv" if kind == "huge-distance" else "images.csv"
        texts[name] = damaged(texts[name], kind, where)
    elif kind == "quoted":
        cells = rows[i].split(",")
        j = where % len(cells)
        cells[j] = f'"{cells[j]}"'
        rows[i] = ",".join(cells)
        texts[target] = _joined(header, rows)
    elif kind == "quoted-newline":
        # a number whose quoted cell runs from the last line of the pairs
        # file's first 2,048-line block onto the first line of the next
        distance = _rows(texts["pairs.csv"])[1][2047].split(",")[4]
        texts["pairs.csv"] = _set_cell(texts["pairs.csv"], 2047, "distance", f'"{distance}\n"')
    elif kind == "spaces":
        column = header.split(",")[where % 3 if target == "images.csv" else where % 5]
        cell = rows[i].split(",")[header.split(",").index(column)]
        space = (" ", "\t", "\u00a0", "\u2028")[where % 4]  # the last two are not ASCII
        texts[target] = _set_cell(text, i, column, space + cell + space)
    elif kind == "hash-id":
        _rename_image(texts, where, f"im#{where % 97}")
    elif kind == "wide-id":
        _rename_image(texts, where, "w" * (15, 16, 17, 40, 255, 256, 300)[where % 7])
    elif kind == "huge-id":
        _rename_image(texts, where, "h" * (csv.field_size_limit() + 1))
    elif kind == "blank-block":  # more blank lines than a block holds
        rows[i:i] = [""] * 2100
        texts[target] = _joined(header, rows)
    elif kind == "space-line":
        rows.insert(i, ("  ", "\t", " \r")[where % 3])
        texts[target] = _joined(header, rows)
    elif kind == "number":
        columns = NUMBER_COLUMNS[target]
        texts[target] = _set_cell(text, i, columns[where % len(columns)],
                                  NUMBERS[where % len(NUMBERS)])
    elif kind == "labels":  # upper case, title case and a trailing space
        pairs_header, pair_rows = _rows(texts["pairs.csv"])
        for n, k in enumerate(range(where % 7, len(pair_rows), 1 + where % 50)):
            cells = pair_rows[k].split(",")
            cells[3] = (str.upper, str.title, lambda s: s + " ")[n % 3](cells[3])
            pair_rows[k] = ",".join(cells)
        texts["pairs.csv"] = _joined(pairs_header, pair_rows)
    elif kind == "predicted":
        # an optional column, mostly empty, in some other spelling here and there
        pairs_header, pair_rows = _rows(texts["pairs.csv"])
        spellings = ["", "", "", "same", "different", "SAME", " different", "maybe"]
        texts["pairs.csv"] = _joined(pairs_header + ",predicted", [
            f"{row},{spellings[(k * (1 + where % 5)) % (6 + where % 3)]}"
            for k, row in enumerate(pair_rows)
        ])
    elif kind in ("crlf", "cr"):
        texts[target] = text.replace("\n", "\r\n" if kind == "crlf" else "\r")
    elif kind == "nul":  # Python 3.10's csv module raises on a NUL, 3.11 reads it
        _rename_image(texts, where, "nul\0")
    elif kind == "bom":
        texts[target] = "\ufeff" + text
    else:
        raise AssertionError(kind)


KINDS = (
    *DAMAGES, *HUGE, *OVERFLOWS, "quoted", "quoted-newline", "spaces", "hash-id", "wide-id",
    "huge-id", "blank-block", "space-line", "number", "labels", "predicted", "crlf", "cr", "nul",
    "bom",
)


def assert_routes_agree(texts: dict[str, str], block_rows: int = 2048) -> None:
    schema = load_schema(DEMO / "schema.json")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        favfa.data, "_BLOCK_ROWS", block_rows
    ):
        root = Path(tmp)
        for name, text in texts.items():
            (root / name).write_text(text, encoding="utf-8", newline="")
        (parsed, parsed_warnings), (cells, cells_warnings) = both_routes(root, schema)
    assert parsed == cells
    assert parsed_warnings == cells_warnings


@pytest.mark.parametrize("kind", KINDS)
@given(where=st.integers(0, 10**6), block_rows=st.sampled_from([7, 2048]))
@settings(max_examples=3, deadline=None)
def test_parser_and_block_reader_agree(kind, where, block_rows):
    texts = demo_texts()
    damage(texts, kind, where)
    assert_routes_agree(texts, block_rows)


@pytest.mark.parametrize("number", NUMBERS)
@pytest.mark.parametrize("where", [0, 1, 2, 4])  # a column of either file
def test_number_spellings_read_alike(number, where):
    texts = demo_texts()
    target = ("images.csv", "pairs.csv")[where % 2]
    columns = NUMBER_COLUMNS[target]
    texts[target] = _set_cell(texts[target], 10 + where, columns[where % len(columns)], number)
    assert_routes_agree(texts)


@pytest.mark.parametrize("width", [15, 16, 17, 40, 255, 256, 300])
def test_wide_ids_read_alike(width, tmp_path):
    texts = demo_texts()
    _rename_image(texts, 3 * width, "w" * width)
    assert_routes_agree(texts)
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    with parser_only():
        images, _ = ingest(tmp_path, load_schema(DEMO / "schema.json"))
    assert "w" * width in images["ids"]


def test_header_only_files_read_without_a_warning(tmp_path):
    schema = load_schema(DEMO / "schema.json")
    for name, text in demo_texts().items():
        (tmp_path / name).write_text(text.split("\n")[0] + "\n", encoding="utf-8")
    with parser_only(), warnings.catch_warnings():
        warnings.simplefilter("error")
        images, pairs = ingest(tmp_path, schema)
    assert images["ids"] == () and pairs["distance"][1] == (0,)


def _gen():
    """perfbench's input generator, imported from its file."""
    spec = importlib.util.spec_from_file_location("gen", REPO / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clean_files_take_the_parser(tmp_path):
    gen = _gen()
    (tmp_path / "pairs").mkdir()
    (tmp_path / "plan").mkdir()
    gen.make_pairs(tmp_path / "pairs", 0, 2400)
    gen.make_plan(tmp_path / "plan", 0)
    sets = [
        (load_schema(tmp_path / "pairs" / "schema.json"), tmp_path / "pairs"),
        (load_schema(DEMO / "schema.json"), DEMO),
    ]
    for schema, root in sets:
        with parser_only():
            parsed = ingest(root, schema)
        with block_reader_only():
            assert parsed == ingest(root, schema)
    schema = load_schema(tmp_path / "plan" / "schema.json")
    for name in ("ids.csv", "styles.csv"):
        path = tmp_path / "plan" / name
        with parser_only():
            parsed = consolidate_identity_attributes(load_images(path, schema), schema)
        with block_reader_only():
            read = consolidate_identity_attributes(load_images(path, schema), schema)
        assert frame_values(parsed) == frame_values(read)


@pytest.mark.parametrize("name", ["parsed", "cells"])
def test_byte_order_mark_is_skipped(tmp_path, name):
    schema = load_schema(DEMO / "schema.json")
    want = ingest(DEMO, schema)
    for file in ("images.csv", "pairs.csv"):
        text = (DEMO / file).read_text(encoding="utf-8")
        (tmp_path / file).write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "images.csv").read_bytes().startswith(b"\xef\xbb\xbfimage_id,")
    with parser_only() if name == "parsed" else block_reader_only():
        assert ingest(tmp_path, schema) == want


@pytest.mark.parametrize(
    "text",
    [
        "image_id,identity_id,pitch,yaw,roll\na1,A,x,1,2\nb1,B,y,3,4\n",  # pitch is a level
        "image_id,identity_id,pitch,yaw,roll\na1,A,x,1,2\nb1,B,1,3,4\n",
        "image_id,identity_id,pose\na1,A,3\nb1,B,4\n",
    ],
)
def test_a_column_read_in_two_roles_reads_alike(tmp_path, text):
    # identity_id is also a categorical attribute; pitch a categorical one
    # and a rotation component of the continuous pose
    schema = AttributeSchema((
        AttributeDef("identity_id", Categorical(("A", "B"), "A"), Scope.IDENTITY),
        AttributeDef("pitch", Categorical(("x", "y"), "x"), Scope.IMAGE),
        AttributeDef("pose", Continuous("degrees"), Scope.IMAGE),
    ))
    if "pitch" not in text:
        schema = AttributeSchema(tuple(a for a in schema.attributes if a.name != "pitch"))
    path = tmp_path / "images.csv"
    path.write_text(text, encoding="utf-8")
    got = outcome(lambda: frame_values(load_images(path, schema)))
    with block_reader_only():
        assert got == outcome(lambda: frame_values(load_images(path, schema)))
