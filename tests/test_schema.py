from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from favfa.errors import ParseError, SchemaInvalid, ValueOutOfRange
from favfa.schema import (
    AttributeDef,
    AttributeSchema,
    Categorical,
    Continuous,
    Scope,
    load_schema,
)
from synth import schema_to_dict

VALID = {
    "attributes": [
        {"name": "gender", "kind": "categorical", "scope": "identity",
         "levels": ["Male", "Female"], "reference": "Male"},
        {"name": "ethnicity", "kind": "categorical", "scope": "identity",
         "levels": ["Caucasian", "African", "Asian", "Indian"], "reference": "Caucasian"},
        {"name": "age", "kind": "continuous", "scope": "image", "unit": "years"},
        {"name": "pose", "kind": "continuous", "scope": "image", "unit": "degrees"},
    ]
}


def write_schema(tmp_path, payload):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_valid_schema(tmp_path):
    schema = load_schema(write_schema(tmp_path, VALID))
    assert schema.names == ("gender", "ethnicity", "age", "pose")
    assert schema["gender"].reference == "Male"
    assert schema["ethnicity"].reference == "Caucasian"
    assert schema["ethnicity"].levels == ("Caucasian", "African", "Asian", "Indian")


def test_readme_schema_example_loads(tmp_path):
    # the schema example under the README's "File formats" loads as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("**Schema**", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    attributes = json.loads("[" + block.strip().replace("}\n{", "},\n{") + "]")
    schema = load_schema(write_schema(tmp_path, {"attributes": attributes}))
    assert schema.names == ("gender", "age")
    assert schema["age"].n_bins == 5


def test_default_bins_applied(tmp_path):
    schema = load_schema(write_schema(tmp_path, VALID))
    assert schema["age"].n_bins == 9
    assert schema["pose"].n_bins == 5
    assert schema["age"].bins[0] == (0.0, 3.0)
    assert math.isinf(schema["age"].bins[-1][1])


def test_explicit_bins_override_defaults(tmp_path):
    payload = json.loads(json.dumps(VALID))
    payload["attributes"][2]["bins"] = [[0, 50], [50, None]]
    schema = load_schema(write_schema(tmp_path, payload))
    assert schema["age"].n_bins == 2
    assert schema["age"].bin_index(49.9) == 0
    assert schema["age"].bin_index(50.0) == 1


def test_empty_attribute_list_invalid(tmp_path):
    with pytest.raises(SchemaInvalid):
        load_schema(write_schema(tmp_path, {"attributes": []}))


def test_missing_reference_level_invalid(tmp_path):
    payload = json.loads(json.dumps(VALID))
    payload["attributes"][0]["reference"] = "X"
    with pytest.raises(SchemaInvalid):
        load_schema(write_schema(tmp_path, payload))


def test_duplicate_attribute_names_invalid():
    attr = AttributeDef("gender", Categorical(("Male", "Female"), "Male"), Scope.IDENTITY)
    with pytest.raises(SchemaInvalid):
        AttributeSchema((attr, attr))


def test_duplicate_levels_invalid():
    with pytest.raises(SchemaInvalid):
        AttributeDef("gender", Categorical(("Male", "Male"), "Male"), Scope.IDENTITY)


@pytest.mark.parametrize("level", ["", " Male", "Male ", "\tMale", "Male\u00a0", " "])
def test_level_no_cell_can_spell_invalid(level):
    # cells are read stripped and an empty cell holds no value, so no row
    # could have such a level
    with pytest.raises(SchemaInvalid, match="empty or has whitespace around it"):
        AttributeDef("gender", Categorical((level, "Female"), "Female"), Scope.IDENTITY)


def test_level_no_cell_can_spell_invalid_in_file(tmp_path):
    payload = json.loads(json.dumps(VALID))
    payload["attributes"][0]["levels"] = [" Male", "Female"]
    with pytest.raises(SchemaInvalid, match="' Male'"):
        load_schema(write_schema(tmp_path, payload))


def test_noncontiguous_bins_invalid():
    with pytest.raises(SchemaInvalid):
        AttributeDef("age", Continuous("years"), Scope.IMAGE, ((0.0, 10.0), (20.0, 30.0)))


@pytest.mark.parametrize(
    ("bins", "shown"),
    [([["a", 1]], "'a'"), ([[0, "b"]], "'b'"), ([[None, 1]], "None"),
     ([[[0], 1]], "[0]"), ([[0, {}]], "{}"), ([[0, 10**400]], "cannot be read")],
)
def test_non_numeric_bin_bound_parse_error(tmp_path, bins, shown):
    payload = json.loads(json.dumps(VALID))
    payload["attributes"][2]["bins"] = bins
    with pytest.raises(ParseError, match="attribute 'age'") as info:
        load_schema(write_schema(tmp_path, payload))
    assert shown in str(info.value)


def test_bins_on_categorical_invalid():
    with pytest.raises(SchemaInvalid):
        AttributeDef(
            "gender", Categorical(("Male", "Female"), "Male"), Scope.IDENTITY,
            ((0.0, 1.0),),
        )


def test_bin_index_boundaries():
    attr = AttributeDef(
        "pose", Continuous("degrees"), Scope.IMAGE,
        ((0.0, 10.0), (10.0, 20.0), (20.0, math.inf)),
    )
    assert attr.bin_index(0.0) == 0
    assert attr.bin_index(9.999) == 0
    assert attr.bin_index(10.0) == 1
    assert attr.bin_index(1e9) == 2
    with pytest.raises(ValueOutOfRange):
        attr.bin_index(-0.1)


def test_bad_json_is_parse_error(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_schema(path)


def test_continuous_without_unit_is_parse_error(tmp_path):
    payload = json.loads(json.dumps(VALID))
    del payload["attributes"][2]["unit"]
    with pytest.raises(ParseError):
        load_schema(write_schema(tmp_path, payload))


def test_schema_round_trip(tmp_path):
    schema = load_schema(write_schema(tmp_path, VALID))
    path = tmp_path / "round.json"
    path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    again = load_schema(path)
    assert again == schema
