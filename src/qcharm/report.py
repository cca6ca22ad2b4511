"""Deterministic serialization of reports.

JSON is written by the standard library's ``json`` with insertion-ordered
keys, two-space indentation and floats in their shortest round-trip form
(``repr``), so identical inputs produce byte-identical files and every
double parses back bit-identical.  CSV cells keep 17 significant digits.
A report is sanitized once, before its schema check: ``sanitize`` turns
infinities (the exponentiated bound can overflow) into null, and NaN,
which signals a numerical failure, raises.  ``dumps`` writes the sanitized
dictionary; ``dumps_csv`` sanitizes each cell.
"""

from __future__ import annotations

import json
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


def dumps(report: dict) -> str:
    """Deterministic JSON text for a report dictionary that ``sanitize`` has already made plain;
    a NaN or infinity left in it raises ``ValueError`` (``allow_nan=False``)."""
    return json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


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
            "curve": {
                "type": "object",
                "required": ["kind", "dimension", "degree", "tail"],
                "properties": {"degree": {"type": "number"}, "tail": {"type": "number"}},
            },
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
