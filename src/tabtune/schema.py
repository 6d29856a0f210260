"""Validation against this package's JSON Schema files, the only statement
of the config and report rules. ``validate`` interprets the draft-7 subset
they use: ``type``, ``enum``, ``const``, ``required``, ``properties``,
``additionalProperties``, ``propertyNames``, the four bounds, ``items``,
``minItems``, ``uniqueItems``, ``oneOf``, local ``$ref`` and ``default``."""

from __future__ import annotations

import copy
import json
import operator
import reprlib
from functools import reduce
from pathlib import Path

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}

_BOUNDS = {
    "minimum": (operator.ge, "below minimum"),
    "maximum": (operator.le, "above maximum"),
    "exclusiveMinimum": (operator.gt, "not above exclusive minimum"),
    "exclusiveMaximum": (operator.lt, "not below exclusive maximum"),
}


class SchemaViolation(ValueError):
    """A document breaks its schema; ``path`` names the field, such as
    ``tuner.families[1]`` (empty for the document itself)."""

    def __init__(self, path: str, message: str):
        super().__init__(f"field '{path}': {message}" if path else f"top level: {message}")
        self.path = path


def load_schema(name: str) -> dict:
    """A schema file of this package, such as ``config.schema.json``."""
    return json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def validate(value, schema: dict, path: str = "", *, _root: dict | None = None):
    """``value`` checked against ``schema`` and returned as a copy in which
    each missing field that has a ``default`` holds a copy of it, and each
    integral float in an ``integer`` field is an int. Raises SchemaViolation
    naming the first field that breaks a rule; ``path`` prefixes the names."""
    root = schema if _root is None else _root
    if "$ref" in schema:  # draft 7 ignores the keywords beside a $ref
        schema = reduce(operator.getitem, schema["$ref"].removeprefix("#/").split("/"), root)

    def fail(message, where=path):
        raise SchemaViolation(where, message)

    def check(item, rule, where):
        return validate(item, rule, where, _root=root)

    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[name](value) for name in types):
            fail(f"expected {' or '.join(types)}, got {reprlib.repr(value)}")
        if "integer" in types and isinstance(value, float):
            value = int(value)
    if "const" in schema and value != schema["const"]:
        fail(f"expected {schema['const']!r}, got {reprlib.repr(value)}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{reprlib.repr(value)} not one of {schema['enum']}")
    if _TYPES["number"](value):
        for keyword, (holds, words) in _BOUNDS.items():
            if keyword in schema and not holds(value, schema[keyword]):
                fail(f"{value} {words} {schema[keyword]}")

    if isinstance(value, list):
        if "items" in schema:
            value = [check(item, schema["items"], f"{path}[{i}]") for i, item in enumerate(value)]
        if len(value) < schema.get("minItems", 0):
            fail(f"{len(value)} items, fewer than the minimum {schema['minItems']}")
        if schema.get("uniqueItems") and any(item in value[:i] for i, item in enumerate(value)):
            fail("items are not unique")

    if isinstance(value, dict):
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key in value:
            if extra is False and key not in properties:
                fail(f"unknown field, expected one of {sorted(properties)}", _field(path, key))
            if "propertyNames" in schema:
                check(key, schema["propertyNames"], _field(path, key))
        for key in schema.get("required", ()):
            if key not in value:
                fail("required field is missing", _field(path, key))
        checked = {}
        for key, rule in properties.items():  # in schema order, so defaults sit in place
            if key in value or "default" in rule:
                item = value[key] if key in value else copy.deepcopy(rule["default"])
                checked[key] = check(item, rule, _field(path, key))
        for key, item in value.items():
            if key not in properties:
                checked[key] = item if extra is True else check(item, extra, _field(path, key))
        value = checked

    if "oneOf" in schema:
        names = [form["$ref"].rsplit("/", 1)[-1] if "$ref" in form
                 else "object with " + " and ".join(form.get("required", ()))
                 for form in schema["oneOf"]]
        matches, reasons = [], []
        for name, form in zip(names, schema["oneOf"]):
            try:
                matches.append(check(value, form, path))
            except SchemaViolation as exc:
                reasons.append(f"{name}: {exc}")
        if len(matches) != 1:
            found = f"{len(matches)} matched" if matches else f"none matched ({'; '.join(reasons)})"
            fail(f"expected exactly one of: {', '.join(names)}; {found}")
        value = matches[0]
    return value
