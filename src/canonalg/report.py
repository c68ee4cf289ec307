"""Stable JSON reports for the command-line front end.

Reports are deterministic: sorted keys, no timestamps, and the input is
identified by a content digest, so identical (input, seed) pairs serialize
byte-identically.  ``_ENVELOPE`` states the envelope once, its seven keys
in :func:`build_report`'s order with their JSON types, and
:func:`validate_report` checks a report against it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

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


# Each envelope key with its JSON type, in build_report's order; a report has exactly these keys.
_ENVELOPE = {
    "schema_version": "integer",
    "tool": "string",
    "tool_version": "string",
    "command": "string",
    "input_digest": "string",
    "seed": ["integer", "null"],
    "payload": "object",
}
_PY_TYPES = {"integer": int, "string": str, "null": type(None), "object": dict}


def validate_report(obj) -> None:
    """Raise ValueError when obj is not a report envelope."""
    if not isinstance(obj, dict):
        raise ValueError(f"$: expected type object, got {type(obj).__name__}")
    for key in _ENVELOPE:
        if key not in obj:
            raise ValueError(f"$: missing required key {key!r}")
    extra = set(obj) - set(_ENVELOPE)
    if extra:
        raise ValueError(f"$: unexpected keys {sorted(extra)}")
    for key, expected in _ENVELOPE.items():
        names = expected if isinstance(expected, list) else [expected]
        value = obj[key]
        # no envelope key is boolean, and a bool is no integer
        if isinstance(value, bool) or not isinstance(value, tuple(_PY_TYPES[name] for name in names)):
            raise ValueError(f"$.{key}: expected type {expected}, got {type(value).__name__}")
