"""Deterministic serialization of reports.

JSON is emitted by a small writer with a fixed float format (17
significant digits, exact double round-trip) and insertion-ordered keys,
so identical inputs produce byte-identical files.  Non-finite values are
rejected up front: NaN signals a numerical failure, and unbounded values
(the exponentiated bound can overflow) must be mapped to null by the
caller before serialization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, is_dataclass

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = "1"


class NonFiniteError(DomainError):
    """A NaN or infinity reached the serializer."""


def sanitize(value):
    """Convert to plain JSON-ready types; infinities become None, NaN raises."""
    if is_dataclass(value) and not isinstance(value, type):
        return sanitize(asdict(value))
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            raise NonFiniteError("NaN in report")
        if math.isinf(value):
            return None
        return value
    if isinstance(value, complex):
        return {"re": sanitize(value.real), "im": sanitize(value.imag)}
    if value is None or isinstance(value, str):
        return value
    return str(value)


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit(value, indent: int, pieces: list):
    pad = "  " * indent
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, str):
        pieces.append(_escape(value))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteError("non-finite float escaped sanitization")
        pieces.append(format(value, ".17g"))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            pieces.append(pad + "  " + _escape(str(k)) + ": ")
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(value) else "\n")
        pieces.append(pad + "}")
    elif isinstance(value, list):
        if not value:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, v in enumerate(value):
            pieces.append(pad + "  ")
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(value) else "\n")
        pieces.append(pad + "]")
    else:
        raise DomainError(f"unserializable value of type {type(value)!r}")


def dumps(report: dict) -> str:
    """Deterministic JSON text for a sanitized report dictionary."""
    pieces: list = []
    _emit(sanitize(report), 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def dumps_csv(rows: list[dict]) -> str:
    """Flat CSV: one header from the first row's keys, one line per row."""
    if not rows:
        return "\n"
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        cells = []
        for k in keys:
            v = sanitize(row.get(k))
            if isinstance(v, float):
                cells.append(format(v, ".17g"))
            elif v is None:
                cells.append("")
            elif isinstance(v, str):
                cells.append('"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# report schemas in the JSON Schema keywords type, required, properties and items

_NUMBER = {"type": ["number", "null"]}
_CHECK = {
    "type": "object",
    "required": ["name", "lhs", "rhs", "margin", "passed"],
    "properties": {
        "name": {"type": "string"},
        "lhs": _NUMBER,
        "rhs": _NUMBER,
        "margin": _NUMBER,
        "passed": {"type": "boolean"},
    },
}

SCHEMAS = {
    "constants": {
        "type": "object",
        "required": ["schema_version", "command", "curve", "constants"],
        "properties": {
            "schema_version": {"type": "string"},
            "command": {"type": "string"},
            "curve": {"type": "object"},
            "constants": {
                "type": "object",
                "required": ["length", "chord_arc", "holder_constant", "max_curvature", "converged"],
            },
        },
    },
    "bound": {
        "type": "object",
        "required": ["schema_version", "command", "inputs", "alpha", "mori_constant", "log_L", "L", "checks"],
        "properties": {"checks": {"type": "array", "items": _CHECK}},
    },
    "verify": {
        "type": "object",
        "required": ["schema_version", "command", "scenario", "checks", "all_passed"],
        "properties": {"checks": {"type": "array", "items": _CHECK}},
    },
    "scenarios": {
        "type": "object",
        "required": ["schema_version", "command", "catalog"],
    },
}


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _has_type(value, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def _check(value, schema: dict, path: str):
    names = schema.get("type", [])
    names = [names] if isinstance(names, str) else names
    if names and not any(_has_type(value, name) for name in names):
        raise DomainError(f"report field {path} is not of type {' or '.join(names)}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                raise DomainError(f"report missing required key {key!r} in {path}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{path}[{i}]")


def validate_report(report: dict, kind: str):
    """Check a sanitized report against the schema for ``kind``, reading
    the keywords ``type``, ``required``, ``properties`` and ``items``;
    a bool does not count as a number."""
    _check(report, SCHEMAS[kind], kind)
