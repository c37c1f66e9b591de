"""A minimal JSON-schema checker covering exactly the subset the shipped
schema files use: type, properties, required, items, enum.

`validate` returns a list of human-readable problems (empty = valid);
`assert_valid` raises ValidationError instead.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ValidationError

SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def load_schema() -> dict:
    """The report schema, schemas/report.schema.json."""
    with open(SCHEMA_DIR / "report.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def _type_ok(value, tname: str) -> bool:
    py = _TYPES.get(tname)
    if py is None:
        raise ValidationError(f"schema uses unsupported type {tname!r}")
    if tname in ("integer", "number") and isinstance(value, bool):
        return False
    return isinstance(value, py)


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    problems: list[str] = []
    if "enum" in schema:
        if instance not in schema["enum"]:
            problems.append(f"{path}: {instance!r} not in {schema['enum']}")
        return problems
    tname = schema.get("type")
    if tname is not None and not _type_ok(instance, tname):
        problems.append(
            f"{path}: expected {tname}, got {type(instance).__name__}")
        return problems
    if tname == "object":
        for key in schema.get("required", []):
            if key not in instance:
                problems.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                problems += validate(instance[key], sub, f"{path}.{key}")
    elif tname == "array":
        sub = schema.get("items")
        if sub is not None:
            for i, item in enumerate(instance):
                problems += validate(item, sub, f"{path}[{i}]")
    return problems


def assert_valid(instance) -> None:
    problems = validate(instance, load_schema())
    if problems:
        raise ValidationError(
            "report does not match the schema: " + "; ".join(problems[:5]))
