"""Stable JSON reports for the command-line front end.

Reports are deterministic: sorted keys, no timestamps, and the input is
identified by a content digest, so identical (input, seed) pairs serialize
byte-identically.  The report envelope is described by the schema shipped
next to this module; :func:`validate_report` checks an object against it
with a small structural interpreter (types, required keys, enums, closed
objects), which covers everything the schema uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from importlib import resources

SCHEMA_VERSION = 2
TOOL = "canonalg"


def tool_version() -> str:
    from . import __version__

    return __version__


def record_fields(record) -> dict:
    """A dataclass record's fields by name, in order: ``dataclasses.asdict`` without its deep copy of every value."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def input_digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def build_report(command: str, digest: str, payload: dict, seed: int | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL,
        "tool_version": tool_version(),
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "payload": payload,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def load_schema() -> dict:
    text = resources.files("canonalg").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


_TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, expected) -> bool:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        py = _TYPE_MAP[name]
        if name == "integer" and isinstance(value, bool):
            continue
        if isinstance(value, py):
            return True
    return False


def validate_report(obj, schema: dict | None = None, path: str = "$") -> None:
    """Raise ValueError when obj does not match the (subset) schema."""
    schema = load_schema() if schema is None else schema
    if "type" in schema and not _type_ok(obj, schema["type"]):
        raise ValueError(f"{path}: expected type {schema['type']}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise ValueError(f"{path}: {obj!r} not in enum {schema['enum']}")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                raise ValueError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extra = set(obj) - set(props)
            if extra:
                raise ValueError(f"{path}: unexpected keys {sorted(extra)}")
        for key, sub in props.items():
            if key in obj:
                validate_report(obj[key], sub, f"{path}.{key}")
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            validate_report(item, schema["items"], f"{path}[{i}]")
