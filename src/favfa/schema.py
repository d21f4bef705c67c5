"""Attribute declarations: kinds, scopes, bins, and the JSON schema loader."""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Union

from .errors import ParseError, SchemaInvalid, ValueOutOfRange


class Scope(str, Enum):
    IDENTITY = "identity"
    IMAGE = "image"


# Age brackets applied when a schema declares `age` without bins; these match
# the nine output brackets of common face-attribute classifiers.
DEFAULT_AGE_BINS: tuple[tuple[float, float], ...] = (
    (0.0, 3.0), (3.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0),
    (40.0, 50.0), (50.0, 60.0), (60.0, 70.0), (70.0, math.inf),
)

# Rotation-magnitude brackets (degrees) applied when `pose` has no bins.
DEFAULT_POSE_BINS: tuple[tuple[float, float], ...] = (
    (0.0, 10.0), (10.0, 20.0), (20.0, 35.0), (35.0, 60.0), (60.0, math.inf),
)

_DEFAULT_BINS = {"age": DEFAULT_AGE_BINS, "pose": DEFAULT_POSE_BINS}


@dataclass(frozen=True)
class Categorical:
    levels: tuple[str, ...]
    reference: str


@dataclass(frozen=True)
class Continuous:
    unit: str


Kind = Union[Categorical, Continuous]


def _check_bins(name: str, bins: tuple[tuple[float, float], ...]) -> None:
    if not bins:
        raise SchemaInvalid(f"attribute {name!r}: empty bin list")
    for lo, hi in bins:
        if not math.isfinite(lo) or not lo < hi:
            raise SchemaInvalid(f"attribute {name!r}: bad bin [{lo}, {hi})")
    for (_, hi), (lo, _) in zip(bins, bins[1:]):
        if hi != lo:
            raise SchemaInvalid(
                f"attribute {name!r}: bins must be contiguous and ascending"
            )


@dataclass(frozen=True)
class AttributeDef:
    """One attribute: categorical (with a reference level) or continuous.

    ``bins``, allowed on continuous attributes only, are half-open intervals
    [lo, hi), contiguous and ascending; the final bin may extend to +inf.
    """

    name: str
    kind: Kind
    scope: Scope
    bins: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaInvalid("attribute name must be non-empty")
        if isinstance(self.kind, Categorical):
            levels = self.kind.levels
            if not levels:
                raise SchemaInvalid(f"attribute {self.name!r} declares no levels")
            if len(set(levels)) != len(levels):
                raise SchemaInvalid(f"attribute {self.name!r} has duplicate levels")
            for level in levels:  # cells are read stripped, and an empty one holds no value
                if not level or level != level.strip():
                    raise SchemaInvalid(
                        f"attribute {self.name!r}: level {level!r} is empty or has whitespace "
                        "around it"
                    )
            if self.kind.reference not in levels:
                raise SchemaInvalid(
                    f"attribute {self.name!r}: reference level "
                    f"{self.kind.reference!r} is not among its levels"
                )
            if self.bins is not None:
                raise SchemaInvalid(
                    f"attribute {self.name!r}: bins are only valid on continuous attributes"
                )
        elif self.bins is not None:
            _check_bins(self.name, self.bins)

    @property
    def is_categorical(self) -> bool:
        return isinstance(self.kind, Categorical)

    @property
    def levels(self) -> tuple[str, ...]:
        assert isinstance(self.kind, Categorical)
        return self.kind.levels

    @property
    def reference(self) -> str:
        assert isinstance(self.kind, Categorical)
        return self.kind.reference

    @property
    def n_bins(self) -> int:
        if self.bins is None:
            raise SchemaInvalid(f"attribute {self.name!r} declares no bins")
        return len(self.bins)

    def bin_error(self, value: float) -> SchemaInvalid | ValueOutOfRange:
        """The error of ``value`` when no bin holds it: the attribute
        declares no bins, or the value lies outside them."""
        if self.bins is None:
            return SchemaInvalid(f"attribute {self.name!r} declares no bins")
        return ValueOutOfRange(
            f"attribute {self.name!r}: value {value} outside "
            f"[{self.bins[0][0]}, {self.bins[-1][1]})"
        )

    def bin_index(self, value: float) -> int:
        """Index of the half-open bin containing ``value``."""
        if self.bins is None or not (self.bins[0][0] <= value < self.bins[-1][1]):
            raise self.bin_error(value)
        lows = [lo for lo, _ in self.bins]
        return bisect_right(lows, value) - 1


@dataclass(frozen=True)
class AttributeSchema:
    attributes: tuple[AttributeDef, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaInvalid("schema declares no attributes")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaInvalid("duplicate attribute names in schema")

    def __contains__(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)

    def __getitem__(self, name: str) -> AttributeDef:
        for a in self.attributes:
            if a.name == name:
                return a
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def categorical(self) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if a.is_categorical)

    def continuous(self) -> tuple[AttributeDef, ...]:
        return tuple(a for a in self.attributes if not a.is_categorical)


def _parse_bins(name: str, raw: object) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list):
        raise ParseError(f"attribute {name!r}: 'bins' must be a list")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"attribute {name!r}: each bin must be a [lo, hi] pair")
        lo, hi = entry
        out.append((_bound(name, lo), math.inf if hi is None else _bound(name, hi)))
    return tuple(out)


def _bound(name: str, value: object) -> float:
    """A bin bound, which must be a JSON number: not a string or a boolean,
    though ``float`` would read either."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the range of a float
            pass
    raise ParseError(f"attribute {name!r}: bin bound {value!r} cannot be read as a number")


def _parse_attribute(entry: object) -> AttributeDef:
    if not isinstance(entry, dict):
        raise ParseError("each attribute must be a JSON object")
    try:
        name = entry["name"]
        kind_str = entry["kind"]
        scope_str = entry["scope"]
    except KeyError as exc:
        raise ParseError(f"attribute entry is missing key {exc}") from exc
    if not isinstance(name, str):
        raise ParseError("attribute 'name' must be a string")
    try:
        scope = Scope(scope_str)
    except ValueError as exc:
        raise ParseError(f"attribute {name!r}: unknown scope {scope_str!r}") from exc

    if kind_str == "categorical":
        levels = entry.get("levels")
        reference = entry.get("reference")
        if not isinstance(levels, list) or not all(isinstance(l, str) for l in levels):
            raise ParseError(f"attribute {name!r}: 'levels' must be a list of strings")
        if not isinstance(reference, str):
            raise ParseError(f"attribute {name!r}: 'reference' must be a string")
        return AttributeDef(name, Categorical(tuple(levels), reference), scope)
    if kind_str == "continuous":
        unit = entry.get("unit")
        if not isinstance(unit, str):
            raise ParseError(f"attribute {name!r}: continuous attributes need a 'unit'")
        bins = entry.get("bins")
        if bins is not None:
            bins = _parse_bins(name, bins)
        else:
            bins = _DEFAULT_BINS.get(name)
        return AttributeDef(name, Continuous(unit), scope, bins)
    raise ParseError(f"attribute {name!r}: unknown kind {kind_str!r}")


def load_schema(path: str | Path) -> AttributeSchema:
    """Read and validate a schema JSON file.

    Expected shape::

        {"attributes": [
            {"name": "gender", "kind": "categorical", "scope": "identity",
             "levels": ["Male", "Female"], "reference": "Male"},
            {"name": "age", "kind": "continuous", "scope": "image",
             "unit": "years", "bins": [[0, 3], [3, 10], ..., [70, null]]}]}

    A null upper bound means +inf. Continuous attributes named ``age`` or
    ``pose`` receive default bins when none are given.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"schema {path}: not UTF-8 text: {exc.reason}") from None
    try:
        raw = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer too long to convert
        raise ParseError(f"schema {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("attributes"), list):
        raise ParseError(f"schema {path}: expected an object with an 'attributes' list")
    return AttributeSchema(tuple(_parse_attribute(e) for e in raw["attributes"]))
