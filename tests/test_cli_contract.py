"""The CLI contract on damaged inputs: exit 0, or exit 1 with one JSON error
line on stderr, never a traceback, and no partial bundle.

A small synthetic dataset is damaged one way at a time (its table emptied
or cut to the header, blank lines, ragged rows, a non-numeric cell, an image
id the pairs cannot resolve) and run through ``diversity``, ``weights`` and
``analyze``. The explicit examples are a seed corpus; Hypothesis adds its
own. They include finite image values too large to combine (pose components
whose squares overflow, soft scores whose sum does), which must fail as a
``ParseError`` naming the image, and a finite distance or age too large to
square, which must fail as a ``ValueOutOfRange`` without a numpy warning.
Damaged ``schema.json`` files (not JSON, not UTF-8, an ``attributes`` that
is not a list or an attribute that is not an object, a key missing or of the
wrong type, an empty name or level list, an unknown ``kind`` or ``scope``, a
bin bound that is not a JSON number or an integer too long to read, bins
that are not a list of ``[lo, hi]`` pairs, an empty or inverted bin list, a
repeated name) fail all three commands with exit 1 and the error they name,
before any output.
``plan`` is run on damaged ``--ids`` and ``--styles`` tables, and on schemas
that lack an attribute it bins styles by. Every registered command turns a
``FavfaError`` into the one JSON line, and an ``--alpha`` of NaN is a usage
error.
"""

from __future__ import annotations

import functools
import json
import tempfile
import warnings
from collections.abc import Callable
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import favfa.cli
import favfa.report
from favfa.cli import main
from favfa.errors import ParseError
from synth import make_verification_dataset, write_dataset

DAMAGES = ("empty", "header-only", "blank-lines", "ragged", "non-numeric", "unknown-id")

#: Finite cells whose squares overflow, by damage: the column set to 1e200.
HUGE = {"huge-distance": "distance", "huge-age": "age"}

#: Finite images.csv cells whose squares or sum overflow, by damage: the
#: image's cells to set, one choice per parity of ``where``.
OVERFLOWS = {
    "huge-pose": (
        {"pitch": "1e200", "yaw": "1", "roll": "1"},
        {"pitch": "1.3e154", "yaw": "1.3e154", "roll": "1"},
    ),
    "huge-scores": ({"gender:Male": "1e308", "gender:Female": "1e308"},) * 2,
}


@functools.cache
def base_texts() -> dict[str, str]:
    """schema.json, images.csv and pairs.csv of a small synthetic dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        dataset = make_verification_dataset(
            n_identities=40, images_per_identity=3, n_positive=150, n_negative=150, seed=1
        )
        write_dataset(dataset, tmp)
        return {
            name: (Path(tmp) / name).read_text(encoding="utf-8")
            for name in ("schema.json", "images.csv", "pairs.csv")
        }


def damaged(text: str, damage: str, where: int) -> str:
    """``text`` with one damage; ``where`` picks the row and cell."""
    if damage == "empty":  # not even a header
        return ""
    header, *rows = text.splitlines()
    i = where % len(rows)
    cells = rows[i].split(",")
    if damage == "header-only":
        rows = []
    elif damage == "blank-lines":
        rows[i:i] = ["", ""]
    elif damage == "ragged":
        rows[i] = ",".join(cells[: where % len(cells)] if where % 2 else cells + ["extra"])
    elif damage == "non-numeric":
        cells[2 + where % (len(cells) - 2)] = "abc"  # past the id columns
        rows[i] = ",".join(cells)
    elif damage in HUGE:  # finite, but its square is not
        cells[header.split(",").index(HUGE[damage])] = "1e200"
        rows[i] = ",".join(cells)
    elif damage in OVERFLOWS:
        columns = header.split(",")
        for name, value in OVERFLOWS[damage][where % 2].items():
            cells[columns.index(name)] = value
        rows[i] = ",".join(cells)
    elif text.startswith("pair_id"):  # unknown-id: a pair names a missing image
        cells[1] = "ghost"
        rows[i] = ",".join(cells)
    else:  # unknown-id: an image the pairs name is gone
        del rows[i]
    return "\n".join([header, *rows]) + "\n"


@given(
    command=st.sampled_from(["diversity", "weights", "analyze"]),
    target=st.sampled_from(["images.csv", "pairs.csv"]),
    damage=st.sampled_from(DAMAGES),
    where=st.integers(0, 10**6),
)
@example(command="analyze", target="images.csv", damage="empty", where=0)
@example(command="analyze", target="pairs.csv", damage="empty", where=0)
@example(command="diversity", target="images.csv", damage="header-only", where=0)
@example(command="weights", target="images.csv", damage="header-only", where=0)
@example(command="analyze", target="images.csv", damage="header-only", where=0)
@example(command="analyze", target="pairs.csv", damage="header-only", where=0)
@example(command="analyze", target="pairs.csv", damage="blank-lines", where=3)
@example(command="weights", target="images.csv", damage="ragged", where=5)
@example(command="analyze", target="pairs.csv", damage="non-numeric", where=7)
@example(command="analyze", target="pairs.csv", damage="unknown-id", where=11)
@example(command="analyze", target="images.csv", damage="unknown-id", where=0)
@example(command="diversity", target="images.csv", damage="huge-pose", where=4)
@example(command="diversity", target="images.csv", damage="huge-pose", where=9)
@example(command="diversity", target="images.csv", damage="huge-scores", where=2)
@example(command="analyze", target="images.csv", damage="huge-scores", where=13)
@example(command="analyze", target="pairs.csv", damage="huge-distance", where=21)
@example(command="analyze", target="images.csv", damage="huge-age", where=5)
@settings(max_examples=50, deadline=None)
def test_cli_contract_on_damaged_inputs(command, target, damage, where):
    texts = dict(base_texts())
    texts[target] = damaged(texts[target], damage, where)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in texts.items():
            (root / name).write_text(text, encoding="utf-8")
        args = [command, "--schema", str(root / "schema.json")]
        args += ["--images", str(root / "images.csv")]
        if command == "weights":
            args += ["--attrs", "gender,age"]
        if command == "analyze":
            args += ["--pairs", str(root / "pairs.csv"), "--out", str(root / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)

        assert result.exit_code in (0, 1), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(
            result.exception
        )
        assert "Traceback" not in result.output + result.stderr
        if result.exit_code == 1:
            lines = result.stderr.splitlines()
            assert len(lines) == 1, result.stderr
            assert set(json.loads(lines[0])) == {"error", "message"}
            if command == "analyze":
                assert not (root / "out").exists()
                assert not list(root.rglob("*.tmp"))
        if damage in OVERFLOWS:
            rows = base_texts()[target].splitlines()[1:]
            image_id = rows[where % len(rows)].split(",")[0]
            error = json.loads(result.stderr)
            assert result.exit_code == 1 and error["error"] == "ParseError", result.stderr
            assert f"image {image_id!r}" in error["message"], result.stderr
        if damage in HUGE:
            error = json.loads(result.stderr)
            assert result.exit_code == 1 and error["error"] == "ValueOutOfRange", result.stderr
            assert not caught, [str(w.message) for w in caught]


@given(
    target=st.sampled_from(["ids", "styles"]),
    damage=st.sampled_from(DAMAGES + tuple(OVERFLOWS) + ("huge-age",)),
    where=st.integers(0, 10**6),
)
@example(target="ids", damage="header-only", where=0)
@example(target="styles", damage="header-only", where=0)
@example(target="styles", damage="blank-lines", where=3)
@example(target="ids", damage="ragged", where=5)
@example(target="styles", damage="non-numeric", where=7)
@example(target="styles", damage="unknown-id", where=11)
@example(target="styles", damage="huge-pose", where=4)
@example(target="ids", damage="huge-scores", where=2)
@example(target="styles", damage="huge-age", where=5)
@settings(max_examples=25, deadline=None)
def test_cli_plan_contract_on_damaged_inputs(target, damage, where):
    texts = base_texts()
    tables = {"ids": texts["images.csv"], "styles": texts["images.csv"]}
    tables[target] = damaged(tables[target], damage, where)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "schema.json").write_text(texts["schema.json"], encoding="utf-8")
        for name, text in tables.items():
            (root / f"{name}.csv").write_text(text, encoding="utf-8")
        out = root / "plan.jsonl"
        result = CliRunner().invoke(
            main,
            ["plan", "--schema", str(root / "schema.json"), "--ids", str(root / "ids.csv"),
             "--styles", str(root / "styles.csv"), "--n-identities", "8", "--samples", "2",
             "--out", str(out)],
        )
        assert result.exit_code in (0, 1), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(
            result.exception
        )
        assert "Traceback" not in result.output + result.stderr
        if result.exit_code == 1:
            lines = result.stderr.splitlines()
            assert len(lines) == 1, result.stderr
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not out.exists()
        else:
            assert out.exists()


@pytest.mark.parametrize("dropped", ["age", "pose"])
def test_cli_plan_schema_without_style_attribute(tmp_path, dropped):
    texts = base_texts()
    schema = json.loads(texts["schema.json"])
    schema["attributes"] = [a for a in schema["attributes"] if a["name"] != dropped]
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "images.csv").write_text(texts["images.csv"], encoding="utf-8")
    out = tmp_path / "plan.jsonl"
    result = CliRunner().invoke(
        main,
        ["plan", "--schema", str(tmp_path / "schema.json"),
         "--ids", str(tmp_path / "images.csv"), "--styles", str(tmp_path / "images.csv"),
         "--n-identities", "8", "--samples", "2", "--out", str(out)],
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output + result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"] == "SchemaInvalid"
    assert repr(dropped) in json.loads(lines[0])["message"]
    assert not out.exists()


def test_cli_analyze_alpha_nan_is_a_usage_error(tmp_path):
    # FloatRange(0, 1) alone lets NaN through: every comparison with it is false
    for name, text in base_texts().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["analyze", "--schema", str(tmp_path / "schema.json"),
         "--images", str(tmp_path / "images.csv"), "--pairs", str(tmp_path / "pairs.csv"),
         "--out", str(tmp_path / "out"), "--alpha", "nan"],
    )
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("Usage: "), result.stderr
    assert "'--alpha'" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert not (tmp_path / "out").exists()


def required_args(command: click.Command, root: Path) -> list[str]:
    """Arguments for every required option of ``command``: an existing file
    for an input path, a path under ``root`` for an output, 1 for a number
    and ``gender`` for anything else."""
    args = []
    for param in command.params:
        if not param.required:
            continue
        if isinstance(param.type, click.Path):
            value = str(root / ("schema.json" if param.type.exists else param.name))
        elif isinstance(param.type, click.types.IntParamType):
            value = "1"
        else:
            value = "gender"
        args += [param.opts[0], value]
    return args


@pytest.mark.parametrize("name", sorted(main.commands))
def test_every_command_reports_a_favfa_error_as_one_json_line(tmp_path, monkeypatch, name):
    def broken(path):
        raise ParseError(f"{path}: broken schema")

    monkeypatch.setattr(favfa.cli, "load_schema", broken)
    monkeypatch.setattr(favfa.report, "load_schema", broken)
    (tmp_path / "schema.json").write_text(base_texts()["schema.json"], encoding="utf-8")
    result = CliRunner().invoke(main, [name, *required_args(main.commands[name], tmp_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0]) == {
        "error": "ParseError", "message": f"{tmp_path / 'schema.json'}: broken schema"
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["schema.json"]


def replaced(old: str, new: str) -> Callable[[str], bytes]:
    """A schema damage that puts ``new`` in place of the first ``old``."""
    return lambda text: text.replace(old, new, 1).encode()


def edited(index: int, **fields) -> Callable[[str], bytes]:
    """A schema damage that sets ``fields`` on the base schema's attribute
    ``index``: 0 is ``gender``, categorical, and 2 is ``age``, binned."""

    def damage(text: str) -> bytes:
        schema = json.loads(text)
        schema["attributes"][index].update(fields)
        return json.dumps(schema).encode()

    return damage


#: Damaged schema.json files, by damage: the error they must raise and the
#: bytes written in place of the base schema's text, whose first number is
#: the first bound of ``age``.
DAMAGED_SCHEMAS = {
    "not-json": ("ParseError", lambda text: text[:40].encode()),
    "not-utf8": ("ParseError", lambda text: text.replace("Male", "M\xe4le").encode("latin-1")),
    "attributes-not-a-list": ("ParseError", lambda text: b'{"attributes": {}}'),
    "attribute-not-an-object": ("ParseError", lambda text: b'{"attributes": [1]}'),
    "missing-kind": ("ParseError", replaced('"kind": "categorical",', "")),
    "unknown-kind": ("ParseError", replaced('"categorical"', '"ordinal"')),
    "name-not-a-string": ("ParseError", edited(0, name=7)),
    "empty-name": ("SchemaInvalid", edited(0, name="")),
    "unknown-scope": ("ParseError", edited(0, scope="video")),
    "levels-not-strings": ("ParseError", edited(0, levels=["Male", 1])),
    "no-levels": ("SchemaInvalid", edited(0, levels=[])),
    "reference-not-a-string": ("ParseError", edited(0, reference=None)),
    "bins-not-a-list": ("ParseError", edited(2, bins={"lo": 0, "hi": 3})),
    "bin-not-a-pair": ("ParseError", edited(2, bins=[[0, 3, 10]])),
    "string-bin-bound": ("ParseError", replaced("0.0", '"zero"')),
    "padded-string-bin-bound": ("ParseError", replaced("0.0", '" 0 "')),
    "boolean-bin-bound": ("ParseError", replaced("0.0", "true")),
    "long-integer-bin-bound": ("ParseError", replaced("0.0", "1" * 5000)),
    "empty-bin-list": ("SchemaInvalid", edited(2, bins=[])),
    "inverted-bin": ("SchemaInvalid", edited(2, bins=[[10, 3]])),
    "duplicate-names": ("SchemaInvalid", replaced('"name": "ethnicity"', '"name": "gender"')),
}


@pytest.mark.parametrize("command", ["diversity", "weights", "analyze"])
@pytest.mark.parametrize("damage", sorted(DAMAGED_SCHEMAS))
def test_cli_contract_on_damaged_schemas(tmp_path, command, damage):
    texts = base_texts()
    for name in ("images.csv", "pairs.csv"):
        (tmp_path / name).write_text(texts[name], encoding="utf-8")
    expected, damage_schema = DAMAGED_SCHEMAS[damage]
    (tmp_path / "schema.json").write_bytes(damage_schema(texts["schema.json"]))
    args = [command, "--schema", str(tmp_path / "schema.json")]
    args += ["--images", str(tmp_path / "images.csv")]
    if command == "weights":
        args += ["--attrs", "gender,age", "--out", str(tmp_path / "weights.csv")]
    if command == "analyze":
        args += ["--pairs", str(tmp_path / "pairs.csv"), "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, args)

    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output + result.stderr
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    error = json.loads(lines[0])
    assert set(error) == {"error", "message"}
    assert error["error"] == expected, error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["images.csv", "pairs.csv", "schema.json"]
